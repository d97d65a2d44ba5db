"""End-to-end CLI tests: exit codes, CSV/JSON schemas, determinism, plots."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmgspec
from lmgspec import (
    GeneralTridiag,
    LmgError,
    SpinJ,
    build_nonhermitian,
    build_susy_rotated,
    classify_spectrum,
    cli,
    eig_dense_symmetric,
    extract_hn_blocks,
)
from lmgspec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_bounded(argv):
    """main(argv) in process, with the exit-code contract every input must
    meet: exit 0, 1 or 2 within 10 s, no traceback, and on exit 2 nothing on
    stdout and one line on stderr.  Returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - start < 10.0
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    return code, out.getvalue()


def csv_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def counting(monkeypatch, name):
    """Replace cli.<name> with a wrapper that counts its calls."""
    calls = []
    inner = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(1) or inner(*a, **k))
    return calls


# Tokens for the argument fuzz tests; the garbage has no digits, so no draw
# asks for a large solve.
GARBAGE = st.text(alphabet="abcxyz -+", max_size=4)
SMALL_J_TOKEN = st.one_of(
    st.integers(0, 5).map(str),
    st.integers(0, 4).map(lambda k: f"{2 * k + 1}/2"),
    st.sampled_from(["1/0", "1/3", "0.3", "-1", "nan", "inf", "2.25", "x5", ""]),
    GARBAGE,
)
GAMMA_TOKEN = st.one_of(
    st.floats(-5.0, 5.0).map(repr),
    st.floats(-400.0, 400.0).map(repr),
    st.sampled_from(["1e300", "-1e308", "354.5", "1e309", "nan", "-inf", "abc", ""]),
    GARBAGE,
)
# Values argparse reads as a float (so each draw reaches the command).
FLOAT_TOKEN = st.one_of(
    st.floats(-5.0, 5.0).map(repr),
    st.sampled_from(["0", "1e154", "-1e200", "1e300", "1e309", "nan", "-inf", "1e-320"]),
)


def assert_no_silent_nan(code, out):
    if code == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower()


class TestSpectrum:
    def test_j2_gamma_zero_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--j", "2", "--gamma", "0")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["j", "gamma", "level_index", "eigenvalue", "pair_id", "is_zero_mode"]
        levels = [float(r["eigenvalue"]) for r in rows]
        assert np.allclose(levels, [0.0, 1.0, 1.0, 4.0, 4.0], atol=1e-10)
        assert rows[0]["is_zero_mode"] == "true"
        assert rows[1]["pair_id"] == rows[2]["pair_id"] == "0"
        assert rows[3]["pair_id"] == rows[4]["pair_id"] == "1"

    def test_grid_row_count_and_order(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--j", "2",
            "--gamma-min", "-1", "--gamma-max", "1", "--steps", "101",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 505
        gammas = [float(r["gamma"]) for r in rows]
        assert gammas == sorted(gammas)
        assert gammas[0] == -1.0 and gammas[-1] == 1.0  # endpoints included

    @pytest.mark.parametrize("grid", [
        ["--gamma", "nan"],
        ["--gamma-min", "nan", "--gamma-max", "1", "--steps", "2"],
        ["--gamma-min", "0", "--gamma-max", "inf", "--steps", "3"],
    ])
    def test_non_finite_gamma(self, capsys, grid):
        code, out, err = run(capsys, "spectrum", "--j", "2", *grid)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_general_model(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--j", "2", "--gamma", "0.5", "--model", "general",
            "--xi", "1", "--chi1", "2", "--chi2", "1", "--lambda", "0.7",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 5
        assert rows[0]["pair_id"] == ""  # no SUSY pairing claimed

    def test_general_model_diagonalizes_once_per_j(self, capsys, monkeypatch):
        calls = counting(monkeypatch, "eig_dense_symmetric")
        argv = ["spectrum", "--j", "2,3", "--gamma-min", "0", "--gamma-max", "1",
                "--steps", "5", "--model", "general",
                "--xi", "1", "--chi1", "2", "--chi2", "1", "--lambda", "0.7"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(calls) == 2
        _, rows = csv_rows(out)
        assert len(rows) == 5 * (5 + 7)
        for jj in ("2", "3"):
            levels = [[r["eigenvalue"] for r in rows if r["j"] == jj and r["gamma"] == g]
                      for g in {r["gamma"] for r in rows}]
            assert all(l == levels[0] for l in levels)  # gamma is not read

    @pytest.mark.parametrize("params", [
        ["--xi=nan", "--chi1=2"], ["--xi=1", "--chi1=1e200"], ["--xi=1e300", "--chi1=1e10"],
    ])
    def test_general_model_non_finite_entries_is_one_error_line(self, capsys, params):
        code, out, err = run(
            capsys, "spectrum", "--j", "2", "--gamma", "0.5", "--model", "general",
            "--chi2", "1", "--lambda", "0.7", *params,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        j_tokens=st.lists(SMALL_J_TOKEN, min_size=1, max_size=3),
        grid=st.one_of(
            st.lists(GAMMA_TOKEN, min_size=1, max_size=4).map(
                lambda t: ["--gamma=" + ",".join(t)]),
            st.tuples(FLOAT_TOKEN, FLOAT_TOKEN, st.integers(-1, 6)).map(
                lambda t: [f"--gamma-min={t[0]}", f"--gamma-max={t[1]}", f"--steps={t[2]}"]),
        ),
        model=st.sampled_from(["susy", "general"]),
        params=st.lists(FLOAT_TOKEN, min_size=4, max_size=4),
        tol=st.one_of(st.none(), FLOAT_TOKEN),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_any_arguments_end_in_an_exit_code(self, j_tokens, grid, model, params, tol, fmt):
        # J stays at most 5 and --steps at most 6; the general model's
        # couplings and --tol take any float, including NaN and overflow.
        # The couplings go only with --model general, so that the susy
        # draws reach a solve.
        argv = ["spectrum", "--j=" + ",".join(j_tokens), *grid, "--model", model,
                "--format", fmt]
        flags = ("--xi", "--chi1", "--chi2", "--lambda")
        if model == "general":
            argv += [f"{flag}={value}" for flag, value in zip(flags, params)]
        if tol is not None:
            argv.append(f"--tol={tol}")
        assert_no_silent_nan(*run_bounded(argv))

    def test_general_model_missing_params(self, capsys):
        code, _, err = run(
            capsys, "spectrum", "--j", "2", "--gamma", "0.5", "--model", "general",
        )
        assert code == 2 and "error" in err

    def test_general_model_rejects_tol(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--j", "2", "--gamma", "0.5", "--model", "general",
            "--xi", "1", "--chi1", "2", "--chi2", "1", "--lambda", "0.7", "--tol", "1e-300",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --tol") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--xi", "--chi1", "--chi2", "--lambda"])
    def test_susy_model_rejects_couplings(self, capsys, monkeypatch, flag):
        calls = counting(monkeypatch, "eig_dense_symmetric")
        code, out, err = run(capsys, "spectrum", "--j", "2", "--gamma", "0.5", flag, "3")
        assert (code, out) == (2, "") and len(calls) == 0
        assert err.startswith("error:") and err.count("\n") == 1

    def test_too_large_j_rejected(self, capsys):
        code, _, err = run(capsys, "spectrum", "--j", "500", "--gamma", "0")
        assert code == 2 and "error" in err

    def test_gamma_flag_conflicts(self, capsys):
        code, _, err = run(
            capsys, "spectrum", "--j", "2", "--gamma", "0", "--gamma-min", "1",
        )
        assert code == 2 and "conflicts" in err

    def test_missing_gamma(self, capsys):
        code, _, err = run(capsys, "spectrum", "--j", "2")
        assert code == 2

    def test_range_without_steps_is_one_point(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--j", "1", "--gamma-min", "0.5",
                           "--gamma-max", "0.5")
        assert code == 0 and {r["gamma"] for r in csv_rows(out)[1]} == {"0.5"}
        # One point cannot hold two different ends.
        code, out, err = run(capsys, "spectrum", "--j", "1", "--gamma-min", "0.5",
                             "--gamma-max", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: --gamma-max") and err.count("\n") == 1

    def test_overflow_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "spectrum", "--j", "2", "--gamma", "400")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("g", [0.0, 0.5, -1.1])
    @pytest.mark.parametrize("j", ["2", "5/2", "6"])
    def test_general_model_at_the_susy_point_matches_susy(self, capsys, j, g):
        # xi = lambda = 1, chi1 = cosh(g), chi2 = sinh(g) is the SUSY point.
        code, out, _ = run(capsys, "spectrum", "--j", j, "--gamma", repr(g))
        assert code == 0
        susy = np.array([float(r["eigenvalue"]) for r in csv_rows(out)[1]])
        code, out, _ = run(
            capsys, "spectrum", "--j", j, "--gamma", repr(g), "--model", "general",
            "--xi", "1", "--lambda", "1",
            "--chi1", repr(math.cosh(g)), "--chi2", repr(math.sinh(g)),
        )
        assert code == 0
        general = np.array([float(r["eigenvalue"]) for r in csv_rows(out)[1]])
        assert general.shape == susy.shape == (SpinJ.from_j(j).dim,)
        assert np.max(np.abs(general - susy)) <= 1e-11 * max(1.0, np.max(np.abs(susy)))

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--j", "2", "--gamma", "0.3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "rows", "summary"}
        assert payload["config"]["model"] == "susy"
        assert len(payload["rows"]) == 5
        assert payload["summary"]["n_rows"] == 5


class TestGapScan:
    def test_trivial_row(self, capsys):
        code, out, _ = run(capsys, "gap-scan", "--j-list", "2", "--gamma", "0")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["j", "gamma", "gap", "bound", "satisfied"]
        assert rows[0]["bound"] == "1.0"
        assert abs(float(rows[0]["gap"]) - 1.0) < 1e-12
        assert rows[0]["satisfied"] == "true"

    def test_half_integer_error_marker(self, capsys):
        code, out, _ = run(capsys, "gap-scan", "--j-list", "2,1.5", "--gamma", "0.5")
        assert code == 0  # not all rows failed
        _, rows = csv_rows(out)
        marks = {r["j"]: r["satisfied"] for r in rows}
        assert marks["2"] == "true" and marks["1.5"] == "error"

    def test_all_rows_failing_exits_one(self, capsys):
        code, out, _ = run(capsys, "gap-scan", "--j-list", "1.5", "--gamma", "0.5")
        assert code == 1

    def test_large_j_row(self, capsys):
        code, out, _ = run(capsys, "gap-scan", "--j-list", "100000", "--gamma", "0.5")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["satisfied"] == "true"

    def test_determinism_across_threads_and_runs(self, capsys, tmp_path):
        args = [
            "gap-scan", "--j-list", "2,5,10", "--gamma-min", "0",
            "--gamma-max", "2", "--steps", "21",
        ]
        paths = [tmp_path / f"scan{i}.csv" for i in range(3)]
        for path, threads in zip(paths, ["1", "4", "2"]):
            code = main(args + ["--out", str(path), "--threads", threads])
            assert code == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_bad_threads(self, capsys):
        code, _, err = run(
            capsys, "gap-scan", "--j-list", "2", "--gamma", "0", "--threads", "0",
        )
        assert code == 2

    def test_bad_gamma_text(self, capsys):
        code, _, err = run(capsys, "gap-scan", "--j-list", "5", "--gamma", "abc")
        assert code == 2 and err.startswith("error:")

    def test_non_finite_gamma(self, capsys):
        code, _, err = run(capsys, "gap-scan", "--j-list", "5", "--gamma", "nan")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("jj, gamma", [("5", "354.5"), ("5", "400"), ("1000000", "345")])
    def test_overflow_is_one_error_line(self, capsys, jj, gamma):
        code, out, err = run(capsys, "gap-scan", "--j-list", jj, "--gamma", gamma)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_emit_plot(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        plot_path = tmp_path / "scan.gp"
        code = main([
            "gap-scan", "--j-list", "2,3", "--gamma-min", "0", "--gamma-max", "1",
            "--steps", "5", "--out", str(csv_path), "--emit-plot", str(plot_path),
        ])
        assert code == 0
        script = plot_path.read_text()
        assert str(csv_path) in script
        assert "cosh(2*x)" in script

    def test_emit_plot_requires_out(self, capsys, tmp_path):
        # Checked before any solve, so no CSV reaches stdout
        plot_path = tmp_path / "x.gp"
        for argv in (["gap-scan", "--j-list", "2"], ["spectrum", "--j", "2"]):
            code, out, err = run(capsys, *argv, "--gamma", "0", "--emit-plot", str(plot_path))
            assert code == 2 and out == ""
            assert err.startswith("error: --emit-plot") and err.count("\n") == 1
        assert not plot_path.exists()

    def test_unwritable_emit_plot_is_one_error_line(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code, out, err = run(capsys, "gap-scan", "--j-list", "2", "--gamma", "0", "--out",
                             str(csv_path), "--emit-plot", str(tmp_path / "missing" / "x.gp"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert csv_path.exists()  # the CSV is written before the script

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        j_tokens=st.lists(st.one_of(
            st.integers(0, 300).map(str),
            st.integers(0, 300).map(lambda k: f"{2 * k + 1}/2"),
            st.sampled_from(["1/0", "1/3", "0.3", "-1", "nan", "inf", "2.25", "x5", ""]),
            GARBAGE,
        ), min_size=1, max_size=4),
        gamma_tokens=st.lists(GAMMA_TOKEN, min_size=1, max_size=5),
        threads=st.sampled_from([None, "1", "2"]),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_any_arguments_end_in_an_exit_code(self, j_tokens, gamma_tokens, threads, fmt):
        # J stays at most 300 and the garbage has no digits, so no draw asks
        # for a large solve; --threads is only validated, never a pool size.
        argv = ["gap-scan", "--j-list=" + ",".join(j_tokens),
                "--gamma=" + ",".join(gamma_tokens), "--format", fmt]
        if threads is not None:
            argv += ["--threads", threads]
        code, out = run_bounded(argv)
        if code == 0 and fmt == "csv":
            assert "nan" not in out


class TestSusyCheck:
    def test_integer_j_passes(self, capsys):
        code, out, _ = run(capsys, "susy-check", "--j", "2", "--gamma", "0.7")
        assert code == 0
        assert "FAIL" not in out
        assert "verdict: SusyPattern" in out

    def test_gamma_zero_exact(self, capsys):
        code, out, _ = run(capsys, "susy-check", "--j", "3", "--gamma", "0")
        assert code == 0 and "SusyPattern" in out

    def test_tol_reaches_the_classification(self, capsys):
        jv = SpinJ.from_j("3")
        eigs = eig_dense_symmetric(build_susy_rotated(jv, 0.7))
        expected = classify_spectrum(eigs, jv, tol=1e-300).verdict
        code, out, _ = run(capsys, "susy-check", "--j", "3", "--gamma", "0.7", "--tol", "1e-300")
        assert f"verdict: {expected}" in out
        assert ("FAIL  spectrum_classification" in out) == (expected != "SusyPattern")
        assert code == (0 if expected == "SusyPattern" else 1)

    def test_half_integer_broken_is_expected(self, capsys):
        code, out, _ = run(capsys, "susy-check", "--j", "1.5", "--gamma", "0.5")
        assert code == 0
        assert "SusyBroken" in out

    def test_half_integer_ground_energy_below_rounding(self, capsys):
        # The ground energy 5.9e-61 is far below the rounding error of the
        # dense spectrum, whose eigs[0] is negative here.
        code, out, _ = run(capsys, "susy-check", "--j", "50.5", "--gamma", "0.7")
        assert code == 0
        assert "PASS  spectrum_classification_broken" in out

    def test_half_integer_large_gamma(self, capsys):
        # sigma_min underflows below what bisection resolves; det T does not
        code, out, _ = run(capsys, "susy-check", "--j", "5.5", "--gamma", "300")
        assert code == 0
        assert "PASS  spectrum_classification_broken" in out

    @pytest.mark.parametrize("gamma", ["354.5", "400", "800"])
    def test_overflow_is_one_error_line(self, capsys, gamma):
        code, out, err = run(capsys, "susy-check", "--j", "2", "--gamma", gamma)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_too_large_j_is_one_error_line(self, capsys, monkeypatch):
        # The guard runs before any array is built, so this returns at once.
        calls = counting(monkeypatch, "build_susy_rotated")
        code, out, err = run(capsys, "susy-check", "--j", "2001", "--gamma", "0.7")
        assert code == 2 and out == "" and calls == []
        assert err == "error: J=2001 exceeds the susy-check limit (dim <= 4001)\n"

    def test_largest_j_passes_the_guard(self, capsys, monkeypatch):
        def stop(jv, g, tol):
            raise LmgError(f"reached J={jv}")
        monkeypatch.setattr(cli, "susy_levels", stop)
        code, _, err = run(capsys, "susy-check", "--j", "2000", "--gamma", "0.7")
        assert code == 2 and err == "error: reached J=2000\n"

    @pytest.mark.parametrize("j", ["4", "5/2"])
    def test_one_dense_eigensolve(self, capsys, monkeypatch, j):
        calls = counting(monkeypatch, "eig_dense_symmetric")
        assert run(capsys, "susy-check", "--j", j, "--gamma", "0.9")[0] == 0
        assert len(calls) == 1

    def test_bad_gamma_text(self, capsys):
        code, _, err = run(capsys, "susy-check", "--j", "2", "--gamma", "x")
        assert code == 2 and err.startswith("error:")

    def test_non_finite_gamma(self, capsys):
        code, out, err = run(capsys, "susy-check", "--j", "2", "--gamma", "nan")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("gamma", [15.0, 30.0, 100.0, 236.5, 300.0])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("j", ["1", "2", "5", "12"])
    def test_large_gamma_passes(self, capsys, j, sign, gamma):
        # [Q, H] and the characteristic polynomials are formed after exact
        # power-of-two scalings, so rounding stays at the bounds' level and
        # nothing overflows inside the gamma guard
        code, out, _ = run(capsys, "susy-check", "--j", j, "--gamma", repr(sign * gamma))
        assert code == 0 and "FAIL" not in out

    @pytest.mark.parametrize("gamma", [0.7, 100.0])
    def test_charpoly_residual_detects_h_minus_error(self, gamma):
        jv = SpinJ(4)
        hn = build_nonhermitian(jv, gamma)
        blocks = extract_hn_blocks(hn, jv)
        assert cli.charpoly_residual(hn, blocks) <= 1e-8
        h_minus = blocks.h_minus
        beta = h_minus.beta.copy()
        beta[0] *= 1.0 + 1e-6
        mutant = dataclasses.replace(
            blocks, h_minus=GeneralTridiag(h_minus.alpha, beta, h_minus.gamma_sub)
        )
        assert cli.charpoly_residual(hn, mutant) > 1e-8

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "susy-check", "--j", "4", "--gamma", "0.9", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["all_passed"] is True
        names = {row["check"] for row in payload["rows"]}
        assert "superalgebra_q1_sq" in names
        assert "charpoly_factorization" in names
        assert "h_plus_minus_permutation_equivalent" in names


class TestFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["gap-scan", "--j-list", "2", "--gamma", "0"], ["--tol", "1e-8"]),
        (["ground-state", "--j", "2", "--gamma", "0"], ["--tol", "1e-8"]),
        (["bench", "--j-list", "2", "--gamma", "0"], ["--tol", "1e-8"]),
        (["susy-check", "--j", "2", "--gamma", "0"], ["--emit-plot", "x.gp"]),
        (["ground-state", "--j", "2", "--gamma", "0"], ["--emit-plot", "x.gp"]),
        (["bench", "--j-list", "2", "--gamma", "0"], ["--emit-plot", "x.gp"]),
        (["susy-check", "--j", "2", "--gamma", "0.5"], ["--threads", "0"]),
        (["ground-state", "--j", "2", "--gamma", "0"], ["--threads", "1"]),
        (["spectrum", "--j", "2", "--gamma", "0"], ["--threads", "1"]),
        (["bench", "--j-list", "2", "--gamma", "0"], ["--threads", "1"]),
    ])
    def test_flag_the_subcommand_does_not_read_is_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--j", "2"], ["gap-scan", "--j-list", "5"], ["bench", "--j-list", "5"],
    ])
    def test_steps_conflicts_with_gamma(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--gamma", "0.5", "--steps", "7")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "conflicts" in err and err.count("\n") == 1

    @pytest.mark.parametrize("steps", [[], ["--steps", "1"]])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--j", "2"], ["gap-scan", "--j-list", "5"], ["bench", "--j-list", "5"],
    ])
    def test_one_point_range_needs_equal_ends(self, capsys, argv, steps):
        code, out, err = run(capsys, *argv, "--gamma-min", "0", "--gamma-max", "1", *steps)
        assert (code, out) == (2, "")
        assert err.startswith("error: --gamma-max") and err.count("\n") == 1
        code, out, _ = run(capsys, *argv, "--gamma-min", "1", "--gamma-max", "1", *steps)
        assert code == 0 and len(csv_rows(out)[1]) >= 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["susy-check", "ground-state"]),
        j_token=st.one_of(
            st.integers(0, 20).map(str),
            st.integers(0, 19).map(lambda k: f"{2 * k + 1}/2"),
            st.sampled_from(["1/0", "1/3", "0.3", "-1", "nan", "inf", "2.25", "x5", ""]),
            GARBAGE,
        ),
        gamma_token=GAMMA_TOKEN,
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_any_single_cell_arguments_end_in_an_exit_code(
            self, command, j_token, gamma_token, fmt):
        # susy-check and ground-state take one J (at most 20 here) and one gamma.
        run_bounded([command, "--j=" + j_token, "--gamma=" + gamma_token, "--format", fmt])

    @pytest.mark.parametrize("j", ["1/0", "abc", "0.3"])
    @pytest.mark.parametrize("command", [
        ["spectrum", "--j"], ["gap-scan", "--j-list"], ["susy-check", "--j"],
        ["ground-state", "--j"], ["bench", "--j-list"],
    ])
    def test_bad_j_is_one_error_line(self, capsys, command, j):
        code, out, err = run(capsys, *command, j, "--gamma", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["gap-scan", "--j-list", "5"], ["ground-state", "--j", "5"],
    ])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, command):
        code, out, err = run(capsys, *command, "--gamma", "0.5",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["ground-state", "--j", "1e15", "--gamma", "0.5"],
        ["gap-scan", "--j-list", "1e15", "--gamma", "0"],
        ["bench", "--j-list", "1e15", "--gamma", "0"],
        ["ground-state", "--j", "5e18", "--gamma", "0.5"],
    ])
    def test_j_too_large_to_allocate_is_one_error_line(self, capsys, argv):
        # At J = 1e15 the first array asks for at least 7 PiB, past the
        # 128 TiB user address space, so it fails at once; at 5e18, 2J + 1
        # exceeds the largest array size and parse_j rejects it.
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gap-scan", "--j-list=--", "--gamma", "0"],
        ["gap-scan", "--j-list", "2", "--gamma=--"],
        ["spectrum", "--j", "2", "--gamma-min=--", "--gamma-max", "1"],
        ["susy-check", "--j=--", "--gamma", "0"],
    ])
    def test_double_dash_value_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("gamma", ["-1e-05", "-2.5E+00", "-1e-05,0.5", "-.5"])
    def test_negative_gamma_in_scientific_notation_is_a_value(self, capsys, gamma):
        # argparse's own negative-number pattern has no exponent or list
        code, out, err = run(capsys, "gap-scan", "--j-list", "2", "--gamma", gamma)
        assert code == 0 and err == ""
        assert [r["gamma"] for r in csv_rows(out)[1]] == [
            cli.fmt(float(g)) for g in gamma.split(",")]
        if "," not in gamma:
            code, out, err = run(capsys, "susy-check", "--j", "2", "--gamma", gamma)
            assert code == 0 and out.splitlines()[-1] == "verdict: SusyPattern"

    @pytest.mark.parametrize("gamma", ["-inf", "-NaN,0.5"])
    def test_negative_non_finite_gamma_is_one_error_line(self, capsys, gamma):
        code, out, err = run(capsys, "gap-scan", "--j-list", "5", "--gamma", gamma)
        assert code == 2 and out == ""
        assert err.startswith("error: --gamma: not finite") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--j", "2", "--gamma", "0"],
        ["susy-check", "--j", "2", "--gamma", "0"],
    ])
    def test_bad_tol_is_one_error_line(self, capsys, argv, tol):
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert code == 2 and out == ""
        assert err.startswith("error: --tol") and err.count("\n") == 1


class TestFormats:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--j", "2,3/2", "--gamma", "0,0.7"],
        ["spectrum", "--j", "3", "--gamma", "0,0.5", "--model", "general",
         "--xi", "1", "--chi1", "2", "--chi2", "1", "--lambda", "0.7"],
        ["gap-scan", "--j-list", "1,5/2,10", "--gamma=-1,0,0.5"],
        ["ground-state", "--j", "4", "--gamma", "0.5"],
        ["susy-check", "--j", "4", "--gamma", "0.9"],
        ["susy-check", "--j", "5/2", "--gamma", "0.3"],
        ["susy-check", "--j", "3", "--gamma", "0.7", "--tol", "1e-300"],
    ])
    def test_csv_and_json_carry_the_same_rows(self, capsys, argv):
        code, text, _ = run(capsys, *argv)
        json_code, payload, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(payload)
        assert code == json_code
        if argv[0] == "susy-check":
            lines = text.splitlines()
            assert [l.split() for l in lines[1:-1]] == [
                ["PASS" if r["passed"] else "FAIL", r["check"], r["detail"]]
                for r in payload["rows"]]
            assert lines[-1] == f"verdict: {payload['summary']['verdict']}"
            return
        header, rows = csv_rows(text)
        assert len(rows) == len(payload["rows"]) > 0
        for row, obj in zip(rows, payload["rows"]):
            assert set(obj) == set(header)
            assert row == {k: cli.fmt(v) for k, v in obj.items()}
        comments = dict(l[2:].split("=") for l in text.splitlines() if l.startswith("# "))
        assert comments == {k: cli.fmt(v) for k, v in payload["summary"].items()
                            if argv[0] == "ground-state"}


class TestImports:
    def test_only_the_gap_loads_scipy(self):
        # In a fresh interpreter: the zero mode and every command without a
        # gap solve run on numpy alone; the first gap solve imports scipy.
        script = textwrap.dedent('''
            import contextlib, io, sys
            import lmgspec, lmgspec.cli
            lmgspec.ground_state(lmgspec.SpinJ(10), 0.3)
            for argv in (["susy-check", "--j", "3", "--gamma", "0.4"],
                         ["susy-check", "--j", "5/2", "--gamma", "0.4"],
                         ["spectrum", "--j", "2,5/2", "--gamma", "0,0.5"],
                         ["spectrum", "--j", "3", "--gamma", "0", "--model", "general",
                          "--xi", "1", "--chi1", "2", "--chi2", "1", "--lambda", "0.7"],
                         ["ground-state", "--j", "5", "--gamma", "0.3"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = lmgspec.cli.main(argv)
                assert code == 0, (argv, code)
            assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
            lmgspec.spectral_gap(lmgspec.SpinJ(4), 0.5)
            assert "scipy" in sys.modules
        ''')
        src = str(Path(lmgspec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestMain:
    def test_dispatch_by_name_after_first_call(self, capsys, monkeypatch):
        # The parser is built once; the subcommand is looked up at call time.
        assert run(capsys, "susy-check", "--j", "1", "--gamma", "0.5")[0] == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_susy_check", lambda args: calls.append(args.j) or 7)
        assert run(capsys, "susy-check", "--j", "3", "--gamma", "0.5")[0] == 7
        assert calls == ["3"]

    def test_usage_error_on_second_call(self, capsys):
        assert run(capsys, "susy-check", "--j", "1", "--gamma", "0.5")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["susy-check", "--j", "1"])
        assert exc.value.code == 2
        assert "--gamma" in capsys.readouterr().err


class TestGroundStateCmd:
    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "ground-state", "--j", "2", "--gamma", "0")
        assert code == 0
        _, rows = csv_rows(out)
        amp = {r["m"]: float(r["amplitude"]) for r in rows}
        assert amp["0"] == 1.0 and amp["2"] == 0.0
        assert "energy_residual=0.0" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "ground-state", "--j", "4", "--gamma", "0.5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["amplitudes"]) == 9
        s = payload["summary"]
        assert math.isclose(s["norm_direct"], s["norm_legendre"], rel_tol=1e-10)
        assert s["energy_residual"] < 1e-9

    def test_half_integer_rejected(self, capsys):
        code, _, err = run(capsys, "ground-state", "--j", "2.5", "--gamma", "0.5")
        assert code == 2 and "error" in err

    def test_non_finite_gamma(self, capsys):
        code, out, err = run(capsys, "ground-state", "--j", "2", "--gamma", "nan")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_j200_gamma2_norms_finite(self, capsys):
        code, out, _ = run(capsys, "ground-state", "--j", "200", "--gamma", "2")
        assert code == 0
        summary = dict(l[2:].split("=") for l in out.splitlines() if l.startswith("# "))
        direct, legendre = float(summary["norm_direct"]), float(summary["norm_legendre"])
        assert math.isfinite(direct) and math.isfinite(legendre)
        assert math.isclose(direct, legendre, rel_tol=1e-12)
        assert math.isfinite(float(summary["energy_residual"]))

    @pytest.mark.parametrize("jj, gamma", [("1", "300"), ("2", "-200"), ("3", "200")])
    def test_large_gamma_residual_is_finite(self, capsys, jj, gamma):
        # The residual's entries pass 1e154, so their squares would overflow
        # unscaled; the norm itself is finite.
        code, out, err = run(capsys, "ground-state", "--j", jj, "--gamma", gamma)
        assert code == 0 and err == ""
        summary = dict(l[2:].split("=") for l in out.splitlines() if l.startswith("# "))
        assert math.isfinite(float(summary["energy_residual"]))

    def test_unrepresentable_norm_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "ground-state", "--j", "200", "--gamma", "4")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestBench:
    def test_sanity_row(self, capsys):
        code, out, _ = run(capsys, "bench", "--j-list", "10", "--gamma", "0")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["j", "gamma", "gap", "bound", "satisfied", "seconds", "mem_bytes"]
        assert abs(float(rows[0]["gap"]) - 1.0) < 1e-12
        assert float(rows[0]["seconds"]) >= 0.0
        assert int(rows[0]["mem_bytes"]) > 0

    def test_mem_bytes_is_measured(self, capsys):
        # The large-J solve keeps four length-J float64 arrays alive at once
        # (d, l and two iterates), so a measured peak is at least 4 * 8 * J.
        jj = 10**5
        code, out, _ = run(capsys, "bench", "--j-list", str(jj), "--gamma", "0.5")
        assert code == 0
        mem = int(csv_rows(out)[1][0]["mem_bytes"])
        assert 4 * 8 * jj <= mem <= 16 * 8 * jj

    def test_tracemalloc_starts_once_per_command(self, capsys, monkeypatch):
        # Each cell's peak is reset: the small cell after the large one reads
        # its own peak, not the large cell's.
        starts = []
        start = tracemalloc.start
        monkeypatch.setattr(tracemalloc, "start", lambda: starts.append(1) or start())
        jj = 10**5
        code, out, _ = run(capsys, "bench", "--j-list", f"{jj},10", "--gamma", "0.5,0")
        assert code == 0 and len(starts) == 1 and not tracemalloc.is_tracing()
        mem = [int(r["mem_bytes"]) for r in csv_rows(out)[1]]
        assert all(4 * 8 * jj <= m <= 16 * 8 * jj for m in mem[:2])
        assert all(0 < m < 4 * 8 * jj // 100 for m in mem[2:])

    @pytest.mark.parametrize("j_list", ["10,100,5/2", "10,0"])
    def test_j_list_is_checked_before_the_first_solve(self, capsys, monkeypatch, j_list):
        calls = counting(monkeypatch, "spectral_gap")
        code, out, err = run(capsys, "bench", "--j-list", j_list, "--gamma", "0,0.5")
        assert (code, out, err) == (2, "", "error: the spectral gap is defined for integer J >= 1\n")
        assert len(calls) == 0

    def test_overflowing_gamma_is_checked_before_the_first_solve(self, capsys, monkeypatch):
        calls = counting(monkeypatch, "spectral_gap")
        code, out, err = run(capsys, "bench", "--j-list", "100000,10", "--gamma", "0.5,0,400")
        assert (code, out) == (2, "") and len(calls) == 0
        assert err.startswith("error: J=100000, gamma=400.0:") and err.count("\n") == 1

    def test_caller_tracing_is_left_on(self, capsys):
        tracemalloc.start()
        try:
            assert run(capsys, "bench", "--j-list", "10", "--gamma", "0")[0] == 0
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        j_tokens=st.lists(SMALL_J_TOKEN, min_size=1, max_size=3),
        gamma_tokens=st.lists(GAMMA_TOKEN, min_size=1, max_size=4),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_any_arguments_end_in_an_exit_code(self, j_tokens, gamma_tokens, fmt):
        argv = ["bench", "--j-list=" + ",".join(j_tokens),
                "--gamma=" + ",".join(gamma_tokens), "--format", fmt]
        assert_no_silent_nan(*run_bounded(argv))
        assert not tracemalloc.is_tracing()

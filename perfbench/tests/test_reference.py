"""Tests of the benchmark's references and checks.

    python3 -m pytest perfbench/tests -q

Each reference must reproduce an exact case, and each check must reject a
wrong output.  Nothing here imports lmgspec.
"""

import math
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ references


@pytest.mark.parametrize("j", [2, 3, 7, 20])
def test_gap_mp_is_one_at_gamma_zero(j):
    assert ref.gap_mp(j, 0.0) == pytest.approx(1.0, rel=1e-15, abs=0)


@pytest.mark.parametrize("gamma", [-1.3, 0.2, 0.7, 2.5])
def test_gap_mp_is_cosh_2gamma_at_j1(gamma):
    exact = float(mpmath.cosh(2 * mpmath.mpf(gamma)))
    assert ref.gap_mp(1, gamma) == pytest.approx(exact, rel=1e-15, abs=0)


def test_gap_mp_matches_dense_float64():
    diag, off, _ = ref.gap_block(12, 0.9)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert ref.gap_mp(12, 0.9) == pytest.approx(np.linalg.eigvalsh(dense)[0], rel=1e-13)


def rodrigues(n: int, x: Fraction) -> Fraction:
    """P_n(x) = 2^-n sum_k C(n,k)^2 (x-1)^(n-k) (x+1)^k, exactly."""
    return sum(comb(n, k) ** 2 * (x - 1) ** (n - k) * (x + 1) ** k
               for k in range(n + 1)) / 2 ** n


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("x", [Fraction(5, 4), Fraction(3, 2), Fraction(7)])
def test_legendre_mp_matches_rodrigues(n, x):
    exact = rodrigues(n, x)
    value = ref.legendre_mp(n, mpmath.mpf(x.numerator) / x.denominator)
    assert float(value) == pytest.approx(float(exact), rel=1e-15)


# ------------------------------------------------------------ gap checks


def test_check_gap_accepts_reference_and_reports_digits():
    oracle = ref.GapOracle()
    exact = ref.gap_mp(10, 0.4)
    errs, digits = ref.check_gap(10, 0.4, exact, oracle)
    assert errs == [] and digits == ref.DIGITS_CAP


@pytest.mark.parametrize("cell", [(10, 0.4), (10, 0.0), (1000, 0.7)])
def test_check_gap_rejects_relative_error_1e_6(cell):
    oracle = ref.GapOracle()
    good, cross, _ = oracle(*cell)
    good = good if good is not None else cross
    errs, _ = ref.check_gap(*cell, good * (1 + 1e-6), oracle)
    assert errs


@pytest.mark.parametrize("cell", [(10, 0.4), (1000, -0.7)])
def test_check_gap_rejects_gap_below_bound(cell):
    below = math.cosh(2 * cell[1]) * (1 - 1e-3)
    errs, _ = ref.check_gap(*cell, below, ref.GapOracle())
    assert any("below cosh" in e for e in errs)


def scan_text(j_list, gammas, gap):
    rows = ["j,gamma,gap,bound,satisfied"]
    rows += [f"{j},{g!r},{gap(j, g)!r},{math.cosh(2 * g)!r},true" for j in j_list for g in gammas]
    return "\n".join(rows) + "\n"


def test_check_scan_csv_accepts_references_and_rejects_one_bad_cell():
    oracle = ref.GapOracle()
    j_list, gammas = [5, 10], [0.0, 0.3]
    text = scan_text(j_list, gammas, lambda j, g: oracle(j, g)[0])
    assert ref.check_scan_csv(text, j_list, gammas, oracle)[0] == []
    bad = text.replace(repr(oracle(10, 0.3)[0]), repr(oracle(10, 0.3)[0] * (1 + 1e-6)))
    assert ref.check_scan_csv(bad, j_list, gammas, oracle)[0]


# ------------------------------------------------------------ zero mode


def closed_form_state(j: int, gamma: float) -> dict:
    """exp(gamma Jx)|0> by scipy's expm on the benchmark's own Jx."""
    _, jp = ref.ladder_matrices(2 * j)
    col = expm(gamma * 0.5 * (jp + jp.T))[:, j]
    norm = float(np.linalg.norm(col))
    return {"amplitudes": col / norm, "norm_direct": norm,
            "norm_legendre": norm, "energy_residual": 0.0}


def test_check_zero_mode_accepts_closed_form():
    errs, digits = ref.check_zero_mode(12, 0.8, closed_form_state(12, 0.8))
    assert errs == [] and digits > 12


def test_check_zero_mode_rejects_all_zero_amplitudes():
    state = dict(closed_form_state(12, 0.8), amplitudes=np.zeros(25))
    assert ref.check_zero_mode(12, 0.8, state)[0]
    assert ref.zero_mode_overflowed(state)


def test_check_zero_mode_rejects_state_of_another_gamma():
    state = closed_form_state(12, 0.81)
    assert ref.check_zero_mode(12, 0.8, state)[0]


def test_overflow_signature():
    state = {"amplitudes": np.zeros(5), "norm_direct": math.inf,
             "norm_legendre": math.nan, "energy_residual": math.nan}
    assert ref.zero_mode_overflowed(state)
    assert not ref.zero_mode_overflowed(closed_form_state(2, 0.3))


# ------------------------------------------------------------ SUSY


def susy_out(two_j, gamma, spectrum=None):
    verdict = "SusyPattern" if two_j % 2 == 0 else "SusyBroken"
    eigs = ref.susy_spectrum(two_j, gamma) if spectrum is None else spectrum
    return {"code": 0, "text": f"...\nverdict: {verdict}\n", "spectrum": eigs}


@pytest.mark.parametrize("two_j", [2, 8, 7])
def test_check_susy_accepts_reference(two_j):
    errs, digits = ref.check_susy(two_j, 0.6, susy_out(two_j, 0.6), ref.susy_spectrum(two_j, 0.6))
    assert errs == [] and digits == ref.DIGITS_CAP


def test_check_susy_rejects_split_doublet():
    eigs = ref.susy_spectrum(8, 0.6)
    split = eigs.copy()
    split[3] += 1e-6 * abs(split[3])
    errs, _ = ref.check_susy(8, 0.6, susy_out(8, 0.6, np.sort(split)), eigs)
    assert any("doublets" in e for e in errs)


def test_check_susy_rejects_nonzero_exit_and_wrong_verdict():
    out = dict(susy_out(8, 0.6), code=1, text="verdict: SusyBroken\n")
    errs, _ = ref.check_susy(8, 0.6, out, ref.susy_spectrum(8, 0.6))
    assert len(errs) == 2


@pytest.mark.parametrize("two_j", [1, 7, 25, 101, 199])
def test_half_integer_ground_energy_clear_of_rounding_at_range_edge(two_j):
    """At the largest seeded |gamma| the ground energy stays far above
    float64 rounding of ||H||, so its sign is well defined."""
    gamma = min(2.0, workloads.SUSY_HALF_G2J1_MAX / (two_j + 1))
    eigs = ref.susy_spectrum(two_j, gamma)
    assert eigs[0] > 1e-9 * np.max(np.abs(eigs))


# ------------------------------------------------------------ workloads and spans


@pytest.mark.parametrize("name", sorted(workloads.ROUNDS))
def test_rounds_repeat_per_seed_and_include_gamma_zero(name):
    cells = workloads.round_cells(name, 7)
    assert cells == workloads.round_cells(name, 7)
    assert cells != workloads.round_cells(name, 8)
    gammas = cells[0] if name == "gap_scan" else [c[-1] for c in cells]
    assert 0.0 in gammas


def test_zero_mode_seeded_cells_stay_below_overflow():
    for seed in range(20):
        cells = workloads.zero_mode_cells(workloads.random.Random(seed))
        seeded = [c for c in cells if tuple(c) not in map(tuple, workloads.ZERO_MODE_FAULT_CELLS)]
        assert len(seeded) == len(cells) - 2
        assert all(2 * abs(g) * j <= workloads.ZERO_MODE_2GJ_MAX for j, g in seeded)


def test_layer_metrics_self_time_and_missing_layers():
    tracer = spans.Tracer()
    tracer.spans = [
        ("cli.gap_scan", 0.0, 1.0, -1, 0, None),
        ("eigensolve.spectral_gap", 0.1, 0.4, 0, 0, None),
        ("eigensolve.spectral_gap", 0.5, 0.7, 0, 0, None),
        ("models.gap_sector_tridiag", 0.1, 0.2, 1, 0, 1_000_000),
        ("cli.gap_scan", 2.0, 4.0, -1, 1, None),
    ]
    m = tracer.layer_metrics(2)
    assert m["cli.gap_scan.s"][0] == pytest.approx(1.5)
    assert m["cli.gap_scan.self_s"][0] == pytest.approx((0.5 + 2.0) / 2)
    assert m["eigensolve.spectral_gap.s"][0] == pytest.approx(0.25)
    assert m["models.gap_sector_tridiag.peak_mb"][0] == pytest.approx(1.0)
    assert m["spin.mat_exp_scaled.s"][0] == 0.0
    assert list(m) == spans.metric_names()


def test_raised_operation_fails_and_only_explained_failures_stay_correct():
    errs, failed, _ = run.check("gap_large", [[10, 0.0]], [["error", "LmgError: x"]])
    assert failed == {0} and errs
    fault = ["ground_state", 200, 2.0]
    errs, failed, _ = run.check("dense", [fault], [["error", "OverflowRisk: x"]])
    assert failed == {0} and errs == []
    overflowed = [[0.0] * 401, math.inf, math.nan, math.nan]
    errs, failed, _ = run.check("dense", [fault], [overflowed])
    assert failed == {0} and errs == []
    errs, failed, _ = run.check("dense", [["ground_state", 200, 1.0]], [overflowed])
    assert failed == {0} and errs
    errs, failed, _ = run.check("dense", [["susy_check", 8, 0.6]], [["error", "LmgError: x"]])
    assert failed == {0} and errs

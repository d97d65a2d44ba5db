"""Command-line front end.

Subcommands: spectrum, gap-scan, susy-check, ground-state, bench; each takes
only the flags its cmd_* function reads.  Every table goes through emit, as
CSV (default) or JSON, to stdout or --out; floats are formatted as shortest
round-trip decimals so repeated runs are byte-identical.  Grid cells run
serially in grid order.  gap-scan accepts --threads and rejects values below
1, but reads it no further; it solves its whole (J, gamma) grid in one
eigensolve._gap_cells call, the solve of spectral_gap_cells without a
GapResult per cell.  An empty J or gamma list is a usage error.  bench
ends its table with the environment it measured in.  spectrum --model general reads no gamma: it
diagonalizes once per J and repeats the levels for every gamma.

susy-check verifies the superalgebra on the supercharge's O(J) bands
(susy.verify_superalgebra_bands), each residual printed beside its bound
(in JSON both numbers, where finite; detail holds the verdict on the
classification row), and classifies the dense spectrum of H, so it stops
at J = 2000.  The parser is built once per process; main dispatches to
cmd_<command> by name at call time, so a replaced cmd_* function is the
one that runs.

Exit status: 0 = success, 1 = verification failure, 2 = usage/config error,
an unwritable output path or a J too large to allocate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
import tracemalloc

import numpy as np

from .eigensolve import _gap_bound, _gap_cells, eig_dense_symmetric, spectral_gap
from .errors import LmgError
from .groundstate import ground_state
from .models import ModelParams, build_lmg_general, build_susy_rotated
from .spin import SpinJ
from .susy import classify_spectrum, verify_superalgebra_bands

DENSE_DIM_LIMIT = 401           # dense-oracle guard (J <= 200)
SUSY_CHECK_DIM_LIMIT = 4001     # dense H of susy-check (J <= 2000)
ARRAY_DIM_LIMIT = np.iinfo(np.intp).max // 8    # elements of the largest float64 array


class ConfigError(Exception):
    """Invalid flag combination; maps to exit status 2."""


def fmt(value) -> str:
    """Shortest round-trip text for a cell value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def parse_j(text: str) -> SpinJ:
    """A J whose 2J + 1 doubles no numpy array can hold is a usage error."""
    try:
        jv = SpinJ.from_j(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if jv.dim > ARRAY_DIM_LIMIT:
        raise ConfigError(f"J={text}: 2J + 1 exceeds {ARRAY_DIM_LIMIT}, "
                          "the largest float64 array size")
    return jv


def parse_j_values(text: str) -> list:
    """The comma-separated J values; a list without one is a usage error."""
    values = [parse_j(tok) for tok in text.split(",") if tok]
    if not values:
        raise ConfigError(f"no J value in {text!r}")
    return values


def parse_gamma(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"--gamma: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"--gamma: not finite: {text!r}")
    return value


def check_tol(value) -> float:
    """--tol, or 1e-8 where it is unset."""
    if value is None:
        return 1e-8
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"--tol: must be positive and finite, got {value!r}")
    return value


def gamma_grid(args) -> list:
    if args.gamma is not None:
        if (args.gamma_min, args.gamma_max, args.steps) != (None, None, None):
            raise ConfigError("--gamma conflicts with --gamma-min/--gamma-max/--steps")
        grid = [parse_gamma(tok) for tok in args.gamma.split(",") if tok]
        if not grid:
            raise ConfigError(f"--gamma: no gamma value in {args.gamma!r}")
        return grid
    if args.gamma_min is None or args.gamma_max is None:
        raise ConfigError("need --gamma or both --gamma-min and --gamma-max")
    steps = 1 if args.steps is None else args.steps
    if steps < 1:
        raise ConfigError("--steps must be >= 1")
    lo, hi = args.gamma_min, args.gamma_max
    grid = [lo] if steps == 1 else [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    if not all(math.isfinite(g) for g in (hi, *grid)):
        raise ConfigError("--gamma-min/--gamma-max: the gamma grid is not finite")
    if steps == 1 and hi != lo:
        raise ConfigError("--gamma-max differs from --gamma-min, but a one-point grid "
                          "(--steps 1 or no --steps) holds only --gamma-min")
    return grid


def write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit(args, config: dict, header: list, rows: list, summary: dict, comments=(),
         lines=None, **extra):
    """The rows as CSV, with comments as trailing '# ' lines, or as one JSON
    object of config, rows keyed by header, summary and any extra keys.
    lines, where given, are the rows' CSV lines, formatted by fmt."""
    if args.format == "json":
        payload = dict(config=config, rows=[dict(zip(header, r)) for r in rows],
                       summary=summary, **extra)
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        if lines is None:
            lines = [",".join(fmt(v) for v in row) for row in rows]
        text = "\n".join([",".join(header), *lines, *(f"# {c}" for c in comments)])
    write(args, text + "\n")


# ---------------------------------------------------------------- spectrum

SPECTRUM_HEADER = ["j", "gamma", "level_index", "eigenvalue", "pair_id", "is_zero_mode"]


def susy_levels(jv: SpinJ, g: float, tol: float):
    """The dense spectrum of the rotated SUSY H and its classification."""
    eigs = eig_dense_symmetric(build_susy_rotated(jv, g))
    return eigs, classify_spectrum(eigs, jv, tol=tol)


def cmd_spectrum(args) -> int:
    j_values = parse_j_values(args.j)
    gammas = gamma_grid(args)
    tol = check_tol(args.tol)
    if args.model == "general":
        if args.tol is not None:
            raise ConfigError("--tol: --model general classifies no pairs and reads no tolerance")
        if any(getattr(args, f) is None for f in ("xi", "chi1", "chi2", "lam")):
            raise ConfigError("general model requires --xi --chi1 --chi2 --lambda")
        params = ModelParams(xi=args.xi, chi1=args.chi1, chi2=args.chi2, lam=args.lam)
    elif any(getattr(args, f) is not None for f in ("xi", "chi1", "chi2", "lam")):
        raise ConfigError("--xi, --chi1, --chi2 and --lambda need --model general")
    for jv in j_values:
        if jv.dim > DENSE_DIM_LIMIT:
            raise ConfigError(f"J={jv} exceeds the dense-oracle limit (dim <= {DENSE_DIM_LIMIT})")
    rows = []
    for jv in j_values:
        if args.model == "general":
            # The general model reads no gamma, so one spectrum serves every gamma.
            eigs = eig_dense_symmetric(build_lmg_general(jv, params))
            rows += [(str(jv), g, i, float(e), None, None) for g in gammas
                     for i, e in enumerate(eigs)]
            continue
        for g in gammas:
            eigs, report = susy_levels(jv, g, tol)
            rows += [(str(jv), g, i, float(e), p if p >= 0 else -1, p == -1)
                     for i, (e, p) in enumerate(zip(eigs, report.pair_index))]
    config = {
        "command": "spectrum", "j": [str(j) for j in j_values], "gamma": gammas,
        "model": args.model, "tol": tol if args.model == "susy" else None,
    }
    emit(args, config, SPECTRUM_HEADER, rows, {"n_rows": len(rows)})
    return 0


# ---------------------------------------------------------------- gap-scan

GAP_HEADER = ["j", "gamma", "gap", "bound", "satisfied"]


def cmd_gap_scan(args) -> int:
    """Each J's text is made once per J, and each gamma's text and bound
    text once per gamma; each cell adds only its gap and verdict."""
    j_values = parse_j_values(args.j_list)
    gammas = gamma_grid(args)
    if args.threads is not None and args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    # Half-integer J and J = 0, where spectral_gap raises NotIntegerSpin, give error rows.
    defined = [jv.is_integer_spin() and jv.two_j >= 2 for jv in j_values]
    bounds, gaps, satisfied = _gap_cells([(jv, g) for jv, ok in zip(j_values, defined) if ok
                                          for g in gammas])
    n = len(gammas)
    g_texts = [fmt(g) for g in gammas]
    b_texts = [fmt(b) for b in bounds[:n]]  # cosh 2 gamma, the same at every J
    rows, lines, start = [], [], 0
    for jv, ok in zip(j_values, defined):
        jt = str(jv)
        if not ok:
            rows += [(jt, g, None, None, "error") for g in gammas]
            lines += [f"{jt},{gt},,,error" for gt in g_texts]
            continue
        run = slice(start, start + n)
        start += n
        rows += [(jt, *cell) for cell in zip(gammas, gaps[run], bounds[run], satisfied[run])]
        lines += [f"{jt},{gt},{fmt(gap)},{bt},{fmt(sat)}"
                  for gt, bt, gap, sat in zip(g_texts, b_texts, gaps[run], satisfied[run])]
    n_err = (len(j_values) - sum(defined)) * len(gammas)
    config = {"command": "gap-scan", "j": [str(j) for j in j_values], "gamma": gammas}
    emit(args, config, GAP_HEADER, rows, {"n_rows": len(rows), "n_errors": n_err}, lines=lines)
    return 1 if rows and n_err == len(rows) else 0


# ---------------------------------------------------------------- susy-check

def cmd_susy_check(args) -> int:
    jv = parse_j(args.j)
    g = parse_gamma(args.gamma_value)
    tol = check_tol(args.tol)
    if jv.dim > SUSY_CHECK_DIM_LIMIT:
        raise ConfigError(f"J={jv} exceeds the susy-check limit (dim <= {SUSY_CHECK_DIM_LIMIT})")
    _, report = susy_levels(jv, g, tol)
    checks = []        # (name, passed, detail, bound or None)
    if jv.is_integer_spin():
        res = verify_superalgebra_bands(jv, g)
        bound = res.bound()
        for name, r in (("q1_sq", res.r_q1_sq), ("q2_sq", res.r_q2_sq),
                        ("anticommutator", res.r_anti), ("commutators", res.r_comm)):
            checks.append(("superalgebra_" + name, r <= bound, r, bound))
        checks.append(("spectrum_classification", report.verdict == "SusyPattern",
                       report.verdict, None))
    else:
        # For half-integer J, det T = +-prod e_{2k}^2 != 0 holds identically.
        broken_ok = report.verdict == "SusyBroken"
        checks.append(("spectrum_classification_broken", broken_ok, report.verdict, None))

    all_pass = all(ok for _, ok, _, _ in checks)
    if args.format == "json":
        emit(args, {"command": "susy-check", "j": str(jv), "gamma": g},
             ["check", "passed", "detail", "bound"],
             [(n, bool(ok), d if isinstance(d, float) and math.isfinite(d) else fmt(d), b)
              for n, ok, d, b in checks],
             {"verdict": report.verdict, "all_passed": all_pass})
    else:
        lines = [f"susy-check J={jv} gamma={fmt(g)}"]
        lines += [f"  {'PASS' if ok else 'FAIL'}  {n}  {fmt(d)}"
                  + ("" if b is None else f"  bound {fmt(b)}") for n, ok, d, b in checks]
        write(args, "\n".join(lines + [f"verdict: {report.verdict}"]) + "\n")
    return 0 if all_pass else 1


# ---------------------------------------------------------------- ground-state

GROUND_HEADER = ["m", "amplitude"]


def cmd_ground_state(args) -> int:
    jv = parse_j(args.j)
    g = parse_gamma(args.gamma_value)
    state = ground_state(jv, g)
    ms = jv.m_values()
    rows = [(int(m), float(a)) for m, a in zip(ms, state.amplitudes)]
    summary = {
        "norm_direct": state.norm_direct,
        "norm_legendre": state.norm_legendre,
        "energy_residual": state.energy_residual,
    }
    emit(args, {"command": "ground-state", "j": str(jv), "gamma": g}, GROUND_HEADER, rows,
         summary, [f"{k}={fmt(v)}" for k, v in summary.items()],
         amplitudes=[a for _, a in rows])
    return 0


# ---------------------------------------------------------------- bench

BENCH_HEADER = ["j", "gamma", "gap", "bound", "satisfied", "seconds", "mem_bytes"]


def cmd_bench(args) -> int:
    """Per cell: the solve's wall time and its tracemalloc peak in bytes,
    above what was already traced when the solve began.  Each cell runs
    twice, so that tracing does not slow the timed solve: a traced pass
    over the grid gives mem_bytes, then an untraced pass gives seconds and
    the reported gap.  tracemalloc runs once, for the traced pass, unless
    the caller already traces.  Every cell is checked, in grid order,
    before scipy is imported and the first solve runs."""
    j_values = parse_j_values(args.j_list)
    gammas = gamma_grid(args)
    cells = [(jv, g) for jv in j_values for g in gammas]
    for jv, g in cells:
        _gap_bound(jv, g)
    import scipy.linalg.lapack  # the gap kernel's import, outside the first cell's timing
    mems = []
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for jv, g in cells:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            spectral_gap(jv, g)
            mems.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        if not tracing:
            tracemalloc.stop()
    rows = []
    for (jv, g), mem in zip(cells, mems):
        start = time.perf_counter()
        res = spectral_gap(jv, g)
        elapsed = time.perf_counter() - start
        rows.append((str(jv), g, res.gap, res.bound, res.satisfied, elapsed, mem))
    config = {"command": "bench", "j": [str(j) for j in j_values], "gamma": gammas}
    env = bench_env()
    emit(args, config, BENCH_HEADER, rows, {"n_rows": len(rows)},
         ["env " + " ".join(f"{k}={fmt(v)}" for k, v in env.items())], env=env)
    return 0


def bench_env() -> dict:
    """The interpreter, library versions and CPU count a bench table was
    measured with.  Called after the solves, which import scipy; the
    imports here would add to the start-up of every other command."""
    import importlib.metadata
    import importlib.util
    import platform

    import scipy

    numba = "absent"
    if importlib.util.find_spec("numba") is not None:
        numba = importlib.metadata.version("numba")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numba": numba, "cpus": os.cpu_count()}


# ---------------------------------------------------------------- parser

def _add_common(p, gamma_single=False):
    """The gamma flags, --format and --out."""
    if gamma_single:
        p.add_argument("--gamma", dest="gamma_value", required=True,
                       help="anisotropy parameter (single value)")
    else:
        p.add_argument("--gamma", help="explicit gamma value(s), comma separated")
        p.add_argument("--gamma-min", type=float)
        p.add_argument("--gamma-max", type=float)
        p.add_argument("--steps", type=int,
                       help="grid points, endpoints included (default 1)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """argparse, reading any token that starts with "-" and a digit, "-."
    and a digit, "-inf" or "-nan" as a value rather than a flag: its own
    negative-number pattern has no exponent and no comma list, so
    "--gamma -1e-05" and "--gamma -0.5,1" failed with "expected one
    argument".  No flag here starts with a digit, "inf" or "nan".
    Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lmg",
        description="Spectral analysis of the antiferromagnetic LMG model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues over a gamma grid")
    p.add_argument("--j", required=True, help="total spin value(s), comma separated")
    p.add_argument("--model", choices=["susy", "general"], default="susy")
    p.add_argument("--xi", type=float)
    p.add_argument("--chi1", type=float)
    p.add_argument("--chi2", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    _add_common(p)
    p.add_argument("--tol", type=float, help="pairing tolerance (default 1e-8)")

    p = sub.add_parser("gap-scan", help="spectral gap vs analytic bound")
    p.add_argument("--j-list", required=True)
    p.add_argument("--threads", type=int, help="validated (>= 1); cells run serially")
    _add_common(p)

    p = sub.add_parser("susy-check", help="verify supersymmetric structure")
    p.add_argument("--j", required=True)
    _add_common(p, gamma_single=True)
    p.add_argument("--tol", type=float, help="pairing tolerance (default 1e-8)")

    p = sub.add_parser("ground-state", help="closed-form zero mode")
    p.add_argument("--j", required=True)
    _add_common(p, gamma_single=True)

    p = sub.add_parser("bench", help="time the large-J gap path")
    p.add_argument("--j-list", required=True)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if [] in vars(args).values():  # argparse stores an explicit "--" value as []
            raise ConfigError("'--' is not an option value")
        return command(args)
    except (ConfigError, LmgError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

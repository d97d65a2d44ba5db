"""Benchmark of lmgspec: one workload per run, checked against references.

    python3 perfbench/run.py --workload gap_scan --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is taken from src/ beside this directory.
The run
  1. draws one round of cells from the seed (workloads.py);
  2. times set-up (import lmgspec and a first call) in SETUP_RUNS fresh
     processes;
  3. runs whole rounds for --seconds in one more process (worker.py), with
     BLAS and `lmg --threads` held to one thread;
  4. checks every output against references made apart from lmgspec
     (reference.py), and counts the operations that failed;
  5. prints one JSON line: correct, attempted, failed and the metrics, the
     end-to-end ones with --trace 0 and the per-layer ones (spans.py) with
     --trace 1.
Results, and with --trace 1 the spans, are written under results/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import scipy

import reference as ref
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
ZERO_MODE_KEYS = ("amplitudes", "norm_direct", "norm_legendre", "energy_residual")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LMG_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(spec: dict, deadline: float) -> dict:
    """Run worker.py on spec; its last stdout line is the result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
        capture_output=True, text=True, env=child_env(),
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(workload: str, cells: list, outputs: list) -> tuple:
    """(messages, failed cell indices, digits per checked output).

    An operation fails when it raises, or, for ground_state, when it shows
    the overflow signature; only ground_state failures beyond 2|g|J = 700,
    where P_J(cosh 2g) overflows, leave the run correct.
    """
    errs, failed, digits = [], set(), []
    oracle = ref.GapOracle()
    for i, (cell, out) in enumerate(zip(cells, outputs)):
        raised = isinstance(out, list) and out[:1] == ["error"]
        kind = cell[0] if workload == "dense" else workload
        if kind == "ground_state":
            _, j, g = cell
            state = None if raised else dict(zip(ZERO_MODE_KEYS, out))
            if raised or ref.zero_mode_overflowed(state):
                failed.add(i)
                if 2 * abs(g) * j <= workloads.OVERFLOW_2GJ:
                    errs.append(f"J={j} gamma={g!r}: failed below 2|g|J = {workloads.OVERFLOW_2GJ}")
                continue
            cell_errs, d = ref.check_zero_mode(j, g, state)
        elif raised:
            failed.add(i)
            errs.append(f"cell {cell}: {out[1]}")
            continue
        elif kind == "gap_large":
            cell_errs, d = ref.check_gap(cell[0], cell[1], out, oracle)
        elif kind == "gap_scan":
            code, text = out
            cell_errs, d = ref.check_scan_csv(text, list(workloads.GAP_SCAN_J), cell, oracle)
            if code != 0:
                cell_errs.append(f"gap-scan exited {code}")
        else:
            _, two_j, g = cell
            code, text, spectrum = out
            cell_errs, d = ref.check_susy(
                two_j, g, {"code": code, "text": text, "spectrum": spectrum},
                ref.susy_spectrum(two_j, g))
        errs += cell_errs
        if d is not None:
            digits.append(d)
    return errs, failed, digits


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "cpus": os.cpu_count(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lmgspec" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'lmgspec'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cells = workloads.round_cells(args.workload, args.seed)
    spec = {"workload": args.workload, "cells": cells, "seconds": args.seconds,
            "setup_only": False, "trace_path": str(stem) + ".spans.json" if args.trace else None}

    setups = []
    try:
        if not args.trace:
            setups = [run_worker(dict(spec, setup_only=True), deadline)["setup_s"]
                      for _ in range(SETUP_RUNS)]
        run = run_worker(spec, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errs, failed_cells, digits = check(args.workload, cells, run["outputs"])
    errs += [f"output of cell {cells[i]} changed between rounds" for i in run["changed_cells"]]
    if "threads_check" in run and not run["threads_check"]["identical"]:
        errs.append("gap-scan output differs between --threads 1 and --threads 2")

    op_seconds = run["op_seconds"]
    attempted = len(op_seconds)
    failed = sum(1 for k in range(attempted) if k % len(cells) in failed_cells)
    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in run["layers"].items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric((attempted - failed) / run["elapsed_s"], "1/s"),
            "op_s_p50": metric(statistics.median(op_seconds), "s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
            "digits_min": metric(min(digits) if digits else math.nan, "digits"),
        }
    summary = {"correct": not errs and bool(digits), "attempted": attempted,
               "failed": failed, "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, cells=cells, errors=errs[:50], environment=environment(),
                  setup_samples_s=setups, elapsed_s=run["elapsed_s"], op_seconds=op_seconds,
                  peak_rss_mb=run["peak_rss_mb"], threads_check=run.get("threads_check"))
    with open(str(stem) + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    for e in errs[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 --seconds 20 [--first-seed 1] [workload ...]

Runs run.py once per seed (first-seed, first-seed+1, ...) on each workload
and prints, per metric, the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median, beside the metric's bound in
BENCHMARK.json.  The share of failed operations must be the same in every
run; the table shows the distinct shares seen.  The figures are also
written to results/spread-<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            runs.append(json.loads(out.stdout.splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bound, "values": values}
        report[workload] = {"correct": all(r["correct"] for r in runs),
                            "failed_shares": shares, "metrics": rows}
        print(f"{workload}: correct={report[workload]['correct']} failed shares={shares}")
        for name, row in rows.items():
            print(f"  {name:12s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.4f}  bound {row['bound']}")
        sys.stdout.flush()
    (HERE / "results").mkdir(exist_ok=True)
    out_path = HERE / "results" / f"spread-{args.first_seed}.json"
    out_path.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

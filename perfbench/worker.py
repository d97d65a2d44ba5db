"""One workload process: import lmgspec, run whole rounds, report.

Reads a JSON spec on stdin:
    {"workload", "cells", "seconds", "setup_only", "trace_path"}
and prints one JSON object on stdout.  With setup_only it times only
`import lmgspec` plus the workload's first call.  Otherwise it then runs
rounds of the cells until `seconds` have passed, and reports per-operation
seconds, the first round's outputs (an exception becomes the output
["error", message]), the cells whose output changed between rounds, and
the process's peak RSS.  The checks against the references are
made by run.py, in another process.

Nothing heavy is imported before the set-up clock starts, so that set-up
includes numpy and scipy as a user's first import does.
"""

import contextlib
import io
import json
import resource
import sys
import time
import tracemalloc

from spans import SPAN_FIELDS, Tracer
from workloads import GAP_SCAN_J


def scan_argv(gammas: list, threads: int) -> list:
    return ["gap-scan", "--j-list", ",".join(map(str, GAP_SCAN_J)),
            "--gamma", ",".join(map(repr, gammas)), "--threads", str(threads)]


def j_text(two_j: int) -> str:
    return str(two_j // 2) if two_j % 2 == 0 else str(two_j / 2)


class Ops:
    """Each workload's operation.  Calls go through lmgspec's module
    attributes, so the traced run's wrappers see every call."""

    def __init__(self, lmgspec):
        self.lmg = lmgspec
        self.spectra = []     # spectra computed inside `lmg susy-check`

    def cli(self, argv: list) -> tuple:
        """lmg in process: (exit code, stdout text)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lmg.cli.main(argv)
        return code, buf.getvalue()

    def gap_large(self, cell):
        j, g = cell
        return self.lmg.spectral_gap(self.lmg.SpinJ(2 * j), g).gap

    def gap_scan(self, cell):
        return self.cli(scan_argv(cell, 1))

    def ground_state(self, j, g):
        s = self.lmg.ground_state(self.lmg.SpinJ(2 * j), g)
        return (s.amplitudes, s.norm_direct, s.norm_legendre, s.energy_residual)

    def susy_check(self, two_j, g):
        code, text = self.cli(["susy-check", "--j", j_text(two_j), "--gamma", repr(g)])
        return (code, text, self.spectra.pop())

    def dense(self, cell):
        kind, *args = cell
        return getattr(self, kind)(*args)

    def first_call(self, workload: str) -> None:
        """The smallest call of each of the workload's entry points."""
        if workload == "gap_large":
            self.gap_large([10, 0.5])
        elif workload == "gap_scan":
            self.cli(["gap-scan", "--j-list", "5", "--gamma", "0.5", "--threads", "1"])
        else:
            self.ground_state(4, 0.5)
            self.cli(["susy-check", "--j", "2", "--gamma", "0.5"])

    def capture_spectra(self) -> None:
        """Keep the spectrum `lmg susy-check` computes, so that run.py can
        check it; the wrapper only appends the returned array to a list."""
        inner = self.lmg.cli.eig_dense_symmetric

        def capturing(m):
            eigs = inner(m)
            self.spectra.append(eigs)
            return eigs

        self.lmg.cli.eig_dense_symmetric = capturing

    def scan_threads_check(self, gammas: list) -> dict:
        """One scan at --threads 1 and one at --threads 2, outside the timed
        phase; their outputs must be byte-identical."""
        times, outs = {}, {}
        for threads in (1, 2):
            start = time.perf_counter()
            outs[threads] = self.cli(scan_argv(gammas, threads))
            times[threads] = time.perf_counter() - start
        return {"identical": outs[1] == outs[2], "threads1_s": times[1], "threads2_s": times[2]}


def same(a, b) -> bool:
    """Bit-for-bit equality of two outputs (NaN equal to NaN)."""
    import numpy as np

    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, tuple):
        return all(same(x, y) for x, y in zip(a, b))
    return a == b or (a != a and b != b)


def to_json(out):
    if isinstance(out, tuple):
        return [to_json(x) for x in out]
    return out.tolist() if hasattr(out, "tolist") else out


def main() -> None:
    spec = json.load(sys.stdin)
    workload = spec["workload"]
    start = time.perf_counter()
    import lmgspec
    import lmgspec.cli  # noqa: F401  (the CLI workloads call it)

    ops = Ops(lmgspec)
    ops.first_call(workload)
    result = {"setup_s": time.perf_counter() - start}
    if spec["setup_only"]:
        print(json.dumps(result))
        return

    cells = spec["cells"]
    if workload == "gap_scan":
        result["threads_check"] = ops.scan_threads_check(cells[0])
    op = getattr(ops, workload)
    tracer = Tracer() if spec["trace_path"] else None
    if tracer:
        tracer.install()
    if workload == "dense":
        ops.capture_spectra()

    seconds, first, changed = [], [], set()
    begin = time.perf_counter()
    while True:
        for i, cell in enumerate(cells):
            if tracer:
                tracer.op = len(seconds)
            t0 = time.perf_counter()
            try:
                out = op(cell)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = ("error", f"{type(exc).__name__}: {exc}")
            seconds.append(time.perf_counter() - t0)
            if len(first) < len(cells):
                first.append(out)
            elif not same(out, first[i]):
                changed.add(i)
        if time.perf_counter() - begin >= spec["seconds"]:
            break
    elapsed = time.perf_counter() - begin
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer:
        tracer.op = -1        # one untimed round for the peaks
        tracemalloc.start()
        for cell in cells:
            try:
                op(cell)
            except Exception:  # already counted in the timed rounds
                pass
        tracemalloc.stop()
        result["layers"] = tracer.layer_metrics(len(seconds))
        with open(spec["trace_path"], "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, fh)
    result.update(elapsed_s=elapsed, op_seconds=seconds, changed_cells=sorted(changed),
                  outputs=[to_json(o) for o in first])
    print(json.dumps(result))


if __name__ == "__main__":
    main()

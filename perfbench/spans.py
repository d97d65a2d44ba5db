"""Spans around calls into lmgspec's public functions, for the traced run.

Tracer.install() replaces each traced function, in every lmgspec module
that binds it, with a wrapper that records a span: (label, start, end,
parent span, operation index, peak bytes).  Calls made inside lmgspec go
through the wrappers too, because a module looks its globals up at call
time.  Spans stay in memory until the run ends.

Peak memory comes from tracemalloc, which traces numpy allocations, and
is taken only while tracemalloc is on.  The worker turns it on for one
extra round after the timed rounds: tracemalloc slows every Python
allocation (the long-double polish of a gap-scan runs about 20x slower
under it), so timings and peaks come from different rounds.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# (module, function, measure peak memory, report self time).  A layer
# metric is named <module>.<function>.<s|peak_mb|self_s>, without the
# cmd_ prefix of the CLI subcommands.
TARGETS = (
    ("models", "gap_sector_tridiag", True, False),
    ("eigensolve", "eig_symtridiag", True, False),
    ("eigensolve", "spectral_gap", False, False),
    ("cli", "cmd_gap_scan", False, True),
    ("spin", "build_spin_operators", False, False),
    ("spin", "mat_exp_scaled", False, False),
    ("models", "build_factorized", False, False),
    ("models", "build_susy_rotated", False, False),
    ("groundstate", "ground_state", True, False),
    ("groundstate", "legendre_p", False, False),
    ("susy", "build_supercharges", False, False),
    ("susy", "susy_sorted_hamiltonian", False, False),
    ("susy", "verify_superalgebra", False, False),
    ("susy", "classify_spectrum", False, False),
    ("eigensolve", "eig_dense_symmetric", False, False),
    ("eigensolve", "charpoly_tridiag", False, False),
    ("cli", "cmd_susy_check", False, True),
)


def layer_name(module: str, function: str) -> str:
    return f"{module}.{function.removeprefix('cmd_')}"


SPAN_FIELDS = ("label", "start", "end", "parent", "op", "peak_bytes")


def metric_names() -> list:
    """Per-layer metric names, in TARGETS order."""
    return list(Tracer().layer_metrics(0))


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1          # index of the operation being run
        self._stack = []      # open span indices
        self._mem = []        # [bytes at entry, highest bytes seen] per open peak span

    def wrap(self, label, fn, peak):
        spans, stack, mem = self.spans, self._stack, self._mem

        def traced(*args, **kwargs):
            measure = peak and tracemalloc.is_tracing()
            if measure:
                current, highest = tracemalloc.get_traced_memory()
                if mem:
                    mem[-1][1] = max(mem[-1][1], highest)
                tracemalloc.reset_peak()
                mem.append([current, current])
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                peak_bytes = None
                if measure:
                    base, highest = mem.pop()
                    highest = max(highest, tracemalloc.get_traced_memory()[1])
                    if mem:
                        mem[-1][1] = max(mem[-1][1], highest)
                    peak_bytes = highest - base
                spans[index] = (label, start, end, stack[-1] if stack else -1, self.op, peak_bytes)

        return traced

    def install(self):
        """Wrap every target wherever lmgspec binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "lmgspec" or name.startswith("lmgspec.")]
        for module, name, peak, _ in TARGETS:
            original = getattr(sys.modules["lmgspec." + module], name)
            traced = self.wrap(layer_name(module, name), original, peak)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, traced)

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics: for each label, the seconds spent in it per
        timed operation (0 where no operation calls it), the same for self
        time (duration minus direct children), and the highest peak of one
        call in MB (0 if never measured)."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_total, peaks = {}, {}, {}
        for i, (label, start, end, parent, op, peak_bytes) in enumerate(self.spans):
            if peak_bytes is not None:
                peaks[label] = max(peaks.get(label, 0), peak_bytes)
            if op >= 0:
                total[label] = total.get(label, 0.0) + end - start
                self_total[label] = self_total.get(label, 0.0) + end - start - child[i]
        per_op = max(n_ops, 1)
        metrics = {}
        for module, name, peak, self_time in TARGETS:
            key = layer_name(module, name)
            metrics[key + ".s"] = (total.get(key, 0.0) / per_op, "s")
            if peak:
                metrics[key + ".peak_mb"] = (peaks.get(key, 0) / 1e6, "MB")
            if self_time:
                metrics[key + ".self_s"] = (self_total.get(key, 0.0) / per_op, "s")
        return metrics

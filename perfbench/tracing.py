"""Span tracing around framekit's public functions and numpy.linalg kernels.

`install` wraps every public function of every loaded framekit module and
puts the wrapper into each framekit namespace that holds the original, so
that calls bound by `from .frames import is_frame` are traced as well.
numpy.linalg is patched at module level; framekit looks its kernels up as
`np.linalg.<name>` at call time, so the patch sees every call it makes.

A span is (layer, function, start, end, parent index, matrices, bytes).
Spans stay in memory; `aggregate` turns one pass worth of them into the
per-layer metrics listed in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter

KERNELS = ("svd", "eigh", "eigvalsh", "solve", "inv", "norm")
MODULES = ("cli", "io", "frames", "duals", "parseval", "identity",
           "generators", "linalg")
BUSY = ("frames.excess", "duals.canonical_dual", "duals.dual_from_free_operator",
        "duals.verify_excess_equality", "parseval.construct_parseval_dual",
        "parseval.best_parseval_dual_residual", "identity.identity_sides",
        "identity.nu_minus_global")
CALLS = BUSY + ("frames.is_parseval",)

# Metrics computed from spans, per pass of a workload's task list.
SPAN_METRICS = (
    [(f"{m}.self_s", "s") for m in MODULES]
    + [("numpy.linalg.self_s", "s")]
    + [(f"{f}.busy_s", "s") for f in BUSY]
    + [(f"{f}.calls", "count") for f in CALLS]
    + [(f"numpy.linalg.{k}.{what}", unit) for k in KERNELS
       for what, unit in (("calls", "count"), ("matrices", "count"),
                          ("bytes_in", "B_computed"))]
    + [("trace.spans", "count")]
)
# Every per-layer metric a traced run reports, in output order.
PER_LAYER = (
    [("import.python_s", "s"), ("import.numpy_s", "s"), ("import.framekit_s", "s")]
    + SPAN_METRICS
    + [("trace.overhead_s", "s")]
)


class Recorder:
    """In-memory span store; `enabled` is off while outputs are checked."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.enabled = True

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, layer: str, name: str, fn, sizer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                matrices, nbytes = sizer(args) if sizer else (0, 0)
                self.spans[idx] = (layer, name, start, end, parent, matrices, nbytes)
        return traced


def _array_sizes(args) -> tuple:
    """(stacked matrices, bytes) of the array arguments of a kernel call,
    computed from shapes: leading dimensions of a >2-d array count as a
    batch, anything else is one matrix."""
    matrices, nbytes = 1, 0
    first = True
    for a in args:
        shape = getattr(a, "shape", None)
        if shape is None:
            continue
        nbytes += a.nbytes
        if first and len(shape) > 2:
            matrices = math.prod(shape[:-2])
        first = False
    return matrices, nbytes


def install(rec: Recorder) -> None:
    """Wrap framekit's public functions and numpy.linalg's kernels."""
    import numpy

    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "framekit" or name.startswith("framekit."))]
    wrappers = {}
    for mod in mods:
        layer = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, rec.wrap(layer, name, obj))
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    for k in KERNELS:
        setattr(numpy.linalg, k,
                rec.wrap("numpy.linalg", k, getattr(numpy.linalg, k), _array_sizes))


def aggregate(spans: list) -> dict:
    """Per-layer metrics of one pass from its spans (see SPAN_METRICS).

    Self time is a span's duration minus that of its direct children.
    Busy time of a function sums its outermost spans only, so a function
    that reaches itself again is not counted twice.
    """
    out = {name: 0.0 for name, _ in SPAN_METRICS}
    child_time = [0.0] * len(spans)
    for layer, name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (layer, name, start, end, parent, matrices, nbytes) in enumerate(spans):
        key = f"{layer}.{name}"
        self_key = f"{layer}.self_s"
        if self_key in out:
            out[self_key] += (end - start) - child_time[i]
        if key + ".calls" in out:
            out[key + ".calls"] += 1
        if layer == "numpy.linalg":
            out[key + ".matrices"] += matrices
            out[key + ".bytes_in"] += nbytes
        if key + ".busy_s" in out:
            p = parent
            while p >= 0 and (spans[p][0], spans[p][1]) != (layer, name):
                p = spans[p][4]
            if p < 0:
                out[key + ".busy_s"] += end - start
    out["trace.spans"] = len(spans)
    return out

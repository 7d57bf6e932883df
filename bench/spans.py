"""Per-layer spans recorded from outside the program.

`WRAPPED` is the one list of functions the traced run times. Each entry is
a coarse public function; `Tracer.install` replaces it under every name a
caller in the `magh` package looks it up by (the defining module and each
module that imported it), so calls made through any of them open a span.
The layer of a span is the module that defines the function.

Per-chain functions (`boundary`, `is_strictly_smooth`, `frame`) stay
unwrapped: a span per chain would cost more than the work it times, so
their cost lands in the self time of whichever wrapped caller ran them.

A span's self time is its duration minus the time its child spans cover.
Spans nest through a stack, which is enough because the program runs on a
single thread.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

WRAPPED = (
    "magh.cli.main",
    "magh.metric.validate_metric",
    "magh.metric.metric_closure",
    "magh.chains.enumerate_proper_chains",
    "magh.chains.length_spectrum",
    "magh.algebra.snf",
    "magh.algebra.magnitude_complex",
    "magh.algebra.magnitude_homology",
    "magh.algebra.tensor_many",
    "magh.frames.m_x",
    "magh.frames.frame_subcomplex",
    "magh.frames.simp_decomposition",
    "magh.posets.interval_poset",
    "magh.posets.order_complex",
    "magh.posets.reduced_complex",
    "magh.posets.frame_homology_via_posets",
    "magh.posets.mh2_certificate",
    "magh.verify.run_checks",
)

LAYERS = ("algebra", "chains", "frames", "posets", "verify", "cli", "metric")


def _snf_counts(tracer, args, result):
    matrix = args[0]
    if hasattr(matrix, "nnz"):
        rows, cols, nnz = matrix.rows, matrix.cols, matrix.nnz
    else:
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        nnz = sum(1 for row in matrix for v in row if v)
    c = tracer.counts
    c["snf_cells_total"] += rows * cols
    c["snf_cells_max"] = max(c["snf_cells_max"], rows * cols)
    c["snf_nnz_total"] += nnz
    c["snf_factors"] += len(result)
    c["snf_unit_factors"] += sum(1 for d in result if d == 1)


def _enumerate_counts(tracer, args, result):
    space, n = args[0], args[1]
    key = (space, n)
    if key in tracer.enumerated:
        tracer.counts["enumerate_repeats"] += 1
    tracer.enumerated.add(key)
    tracer.counts["chains_out"] += sum(len(bucket) for bucket in result.values())


def _count(name, size=lambda result: 1):
    def hook(tracer, args, result):
        tracer.counts[name] += size(result)

    return hook


# What each wrapped function adds to the counters, by its qualified name.
COUNTERS = {
    "magh.algebra.snf": _snf_counts,
    "magh.chains.enumerate_proper_chains": _enumerate_counts,
    "magh.posets.interval_poset": _count("interval_elements", lambda p: len(p.elements)),
    "magh.posets.order_complex": _count(
        "order_simplices", lambda cx: sum(len(s) for s in cx.simplices.values())
    ),
    "magh.frames.frame_subcomplex": _count("subcomplexes"),
    "magh.frames.simp_decomposition": _count("subcomplexes", len),
}


class Tracer:
    """Span stack and per-layer totals for one traced worker process."""

    def __init__(self):
        self._stack = []  # one [child seconds] cell per open span
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.total_s = defaultdict(float)  # qualified name -> inclusive seconds
        self.calls = Counter()  # qualified name -> calls
        self.counts = Counter()
        self.enumerated = set()
        self.top_level_s = 0.0

    def install(self):
        """Wrap every function in WRAPPED under each name it is bound to.

        A function the program no longer has is skipped, so a refactor
        that removes one leaves its metrics at zero instead of breaking
        the traced run.
        """
        for qualname in WRAPPED:
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(qualname, module_name.split(".")[1], original)
            for name, module in list(sys.modules.items()):
                if name != "magh" and not name.startswith("magh."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, qualname, layer, fn):
        hook = COUNTERS.get(qualname)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append([0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()[0]
                self.self_s[layer] += duration - children
                self.total_s[qualname] += duration
                self.calls[qualname] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_s += duration
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_metrics(self, wall_s, top_level_before):
        """Per-layer metrics for a timed region of `wall_s` seconds.

        `top_level_before` is `top_level_s` read when the region started,
        so spans opened while the inputs were generated are not subtracted
        from the region's unattributed time.
        """
        c = self.counts
        calls = self.calls
        enum_calls = calls["magh.chains.enumerate_proper_chains"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update(
            {
                "algebra.snf_s": self.total_s["magh.algebra.snf"],
                "algebra.snf_calls": calls["magh.algebra.snf"],
                "algebra.snf_cells_max": c["snf_cells_max"],
                "algebra.snf_cells_total": c["snf_cells_total"],
                "algebra.snf_nnz_total": c["snf_nnz_total"],
                "algebra.unit_factor_frac": (
                    c["snf_unit_factors"] / c["snf_factors"] if c["snf_factors"] else 0.0
                ),
                "algebra.torsion_factors": c["snf_factors"] - c["snf_unit_factors"],
                "algebra.complex_s": self.total_s["magh.algebra.magnitude_complex"],
                "chains.enumerate_s": self.total_s["magh.chains.enumerate_proper_chains"],
                "chains.enumerate_calls": enum_calls,
                "chains.chains_out": c["chains_out"],
                "chains.enumerate_repeat_frac": (
                    c["enumerate_repeats"] / enum_calls if enum_calls else 0.0
                ),
                "frames.m_x_s": self.total_s["magh.frames.m_x"],
                "frames.subcomplexes": c["subcomplexes"],
                "posets.interval_elements": c["interval_elements"],
                "posets.order_simplices": c["order_simplices"],
                "trace.unattributed_s": wall_s - (self.top_level_s - top_level_before),
            }
        )
        return out

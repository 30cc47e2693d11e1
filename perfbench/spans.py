"""Spans around the program's layers, recorded from outside the program.

The traced run replaces chosen public functions of the tquot modules by
wrappers.  A wrapper records a span (name, start, end, parent) and, for
a few functions, sizes read off the arguments and the result.  Spans of
one op are folded into per-name totals when the op ends, so memory
stays bounded by the largest op.

A layer is a module.  A span's self time is its duration minus the
durations of its direct child spans; a layer's self time is the sum of
its spans' self times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from math import comb

# layer (module) -> public functions wrapped in the traced run
SPANS = {
    "cli": ("main", "load_spec"),
    "gallery": ("build", "coadjoint_orbit", "sphere_product", "projective_space"),
    "classify": ("classify",),
    "hamspace": ("validate", "stratify"),
    "polytope": ("convex_hull", "face_lattice", "in_cone"),
    "exactq": ("rank", "sparse_rank_and_factors", "smith_normal_form"),
    "simplicial": ("verify_report", "collapse_fibers", "barycentric_pair", "homology", "join"),
}


def _hull_sizes(args, result):
    distinct = len(dict.fromkeys(tuple(p) for p in args[0]))
    return {"hull_candidates": comb(distinct, result.dim)}


def _lattice_sizes(args, result):
    return {"faces": len(result.faces)}


def _boundary_sizes(args, result):
    return {"boundary_nnz": len(args[0]), "boundary_rank": result[0]}


def _residual_sizes(args, result):
    rows = len(args[0])
    cols = len(args[0][0]) if rows else 0
    diag = result[1]
    return {
        "snf_residual_cells": rows * cols,
        "snf_residual_rank": sum(1 for i in range(min(rows, cols)) if diag[i][i]),
    }


def _model_sizes(args, result):
    return {"model_simplices": result.simplex_count}


SIZES = {
    "polytope.convex_hull": _hull_sizes,
    "polytope.face_lattice": _lattice_sizes,
    "exactq.sparse_rank_and_factors": _boundary_sizes,
    "exactq.smith_normal_form": _residual_sizes,
    "simplicial.collapse_fibers": _model_sizes,
}


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.sizes: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._stack.pop()
            if sizes is not None:
                self.sizes.update(sizes(args, result))
            return result

        span.__wrapped_by_perfbench__ = fn
        return span

    def take(self) -> "OpTrace":
        """Fold the spans recorded since the last take into totals."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - inner
        trace = OpTrace(calls, total, own, self.sizes)
        self.spans = []
        self.sizes = Counter()
        return trace


class OpTrace:
    """Per-name call counts, total and self seconds, and sizes."""

    def __init__(self, calls=None, total=None, own=None, sizes=None):
        self.calls = calls or Counter()
        self.total = total or Counter()
        self.own = own or Counter()
        self.sizes = sizes or Counter()

    def counts(self):
        """Everything that must repeat exactly when the op repeats."""
        return tuple(sorted(self.calls.items())), tuple(sorted(self.sizes.items()))

    def add(self, other: "OpTrace"):
        self.calls.update(other.calls)
        self.total.update(other.total)
        self.own.update(other.own)
        self.sizes.update(other.sizes)


def _tquot_namespaces():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "tquot" or name.startswith("tquot.")
    ]


def install(tracer: Tracer) -> list:
    """Wrap every function in SPANS in every tquot namespace that holds
    it, including names imported by value (cli.validate,
    simplicial.sparse_rank_and_factors, ...).  Returns what uninstall()
    needs to put the originals back."""
    replaced = []
    namespaces = _tquot_namespaces()
    for layer, names in SPANS.items():
        # the package rebinds tquot.classify to the function, so the
        # module comes from sys.modules
        module = sys.modules[f"tquot.{layer}"]
        for fname in names:
            original = getattr(module, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        replaced.append((ns, attr, original))
    return replaced


def uninstall(replaced: list) -> None:
    for ns, attr, original in replaced:
        setattr(ns, attr, original)


def unwrapped_references() -> list[str]:
    """Namespaces still holding an original that SPANS names; empty
    right after install()."""
    originals = {}
    for layer, names in SPANS.items():
        module = sys.modules[f"tquot.{layer}"]
        for fname in names:
            fn = getattr(module, fname)
            originals[id(getattr(fn, "__wrapped_by_perfbench__", fn))] = f"{layer}.{fname}"
    leaks = []
    for ns in _tquot_namespaces():
        for attr, value in vars(ns).items():
            if id(value) in originals and not hasattr(value, "__wrapped_by_perfbench__"):
                leaks.append(f"{ns.__name__}.{attr} -> {originals[id(value)]}")
    return leaks


def per_layer_metrics(trace: OpTrace, ops: int) -> dict:
    """Per-layer metrics over `ops` traced ops: times in ms per op, and
    counts per op, which repeat exactly for a given seed."""
    c, tot, own, sz = trace.calls, trace.total, trace.own, trace.sizes

    def per_op(x):
        return x / ops

    def ms(x):
        return 1000.0 * x / ops

    def share(num, den):
        return num / den if den else 0.0

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    rank = sz["boundary_rank"]
    return {
        "polytope.convex_hull_ms": (ms(tot["polytope.convex_hull"]), "ms"),
        "polytope.convex_hull_calls_per_op": (per_op(c["polytope.convex_hull"]), "count"),
        "polytope.hull_candidates": (per_op(sz["hull_candidates"]), "count"),
        "polytope.face_lattice_ms": (ms(tot["polytope.face_lattice"]), "ms"),
        "polytope.faces": (per_op(sz["faces"]), "count"),
        "polytope.in_cone_calls_per_op": (per_op(c["polytope.in_cone"]), "count"),
        "hamspace.validate_self_ms": (ms(own["hamspace.validate"]), "ms"),
        "hamspace.validate_calls_per_op": (per_op(c["hamspace.validate"]), "count"),
        "hamspace.stratify_self_ms": (ms(own["hamspace.stratify"]), "ms"),
        "exactq.sparse_rank_and_factors_ms": (ms(own["exactq.sparse_rank_and_factors"]), "ms"),
        "exactq.boundary_nnz": (per_op(sz["boundary_nnz"]), "count"),
        "exactq.boundary_rank": (per_op(rank), "count"),
        "exactq.unit_pivot_share": (share(rank - sz["snf_residual_rank"], rank), "ratio"),
        "exactq.smith_normal_form_ms": (ms(tot["exactq.smith_normal_form"]), "ms"),
        "exactq.snf_residual_cells": (per_op(sz["snf_residual_cells"]), "count"),
        "exactq.rank_calls_per_op": (per_op(c["exactq.rank"]), "count"),
        "simplicial.collapse_fibers_ms": (ms(own["simplicial.collapse_fibers"]), "ms"),
        "simplicial.collapse_fibers_calls_per_op": (
            per_op(c["simplicial.collapse_fibers"]),
            "count",
        ),
        "simplicial.barycentric_share": (
            share(c["simplicial.barycentric_pair"], c["simplicial.collapse_fibers"]),
            "ratio",
        ),
        "simplicial.model_simplices": (per_op(sz["model_simplices"]), "count"),
        "simplicial.homology_self_ms": (ms(own["simplicial.homology"]), "ms"),
        "simplicial.join_ms": (ms(tot["simplicial.join"]), "ms"),
        "cli.load_spec_ms": (ms(tot["cli.load_spec"]), "ms"),
        "cli.self_ms": (ms(layer_self("cli")), "ms"),
        "classify.classify_self_ms": (ms(own["classify.classify"]), "ms"),
    }


def gallery_ms(trace: OpTrace) -> float:
    """Milliseconds inside the gallery generators (they call no other
    wrapped function, so their self times add up to their wall time)."""
    return 1000.0 * sum(v for k, v in trace.own.items() if k.startswith("gallery."))

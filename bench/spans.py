"""Layer spans recorded from outside the package.

``install`` wraps the public functions listed in ``LAYERS`` and rebinds every
name that refers to one of them in the loaded ``polyomino_ideals`` module
namespaces, so calls made inside the package (``saturate`` calling
``buchberger`` calling ``normal_form``) nest as spans without any change to
the package's source.  ``uninstall`` puts the original functions back.

Functions in ``HOT`` run thousands of times per unit; they are not stored one
span per call but aggregated on the innermost open span as [calls, seconds,
self seconds, empty results].  A span a hot call opens (``classify_leaf`` can
trigger ``maximal_edge_intervals`` through a cached property) is attached to
that same parent and taken out of the hot call's self time, so self times
still add up.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

PACKAGE = "polyomino_ideals"

LAYERS = {
    "grid": ("inner_intervals", "maximal_edge_intervals", "leaves"),
    "classify": ("is_simple", "is_tree_like", "leaf_census", "classify_leaf"),
    "intlinalg": ("kernel_basis", "hermite_normal_form", "invariant_factors"),
    "groebner": (
        "buchberger",
        "saturate",
        "normal_form",
        "s_polynomial",
        "reduce_groebner_basis",
        "ideal_equal",
        "quotient_dimension",
    ),
    "ideals": (
        "is_balanced",
        "is_prime",
        "dimension",
        "lattice_ideal",
        "admissible_lattice",
        "inner_minors",
        "universal_gb_check",
    ),
    "cycles": ("enumerate_cycles", "cycle_binomial"),
    "certificates": ("balanced_certificate_treelike", "expand_certificate"),
}

HOT = frozenset(
    {"groebner.normal_form", "groebner.s_polynomial", "grid.leaves", "classify.classify_leaf"}
)

# Result sizes kept on the span, for the exact counters.
SIZED = {
    "groebner.buchberger": len,
    "groebner.saturate": lambda ideal: len(ideal.generators),
    "cycles.enumerate_cycles": len,
    "certificates.balanced_certificate_treelike": len,
}


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


COUNTERS = (
    "groebner.reductions",
    "groebner.zero_reduction_share",
    "groebner.gb_size_max",
    "groebner.saturate.gens_out",
    "ideals.ugb_sweep_reductions",
    "cycles.candidates",
    "certificates.steps",
)

# Counts that do not depend on the machine; they must repeat bit for bit.
EXACT_COUNTERS = COUNTERS + tuple(f"{name}.calls" for name in function_names())


class Span:
    """One call of a wrapped function: [start, end], children and hot calls."""

    __slots__ = ("name", "parent", "start", "end", "size", "children", "hot")

    def __init__(self, name: str, parent: "Span | None", start=0.0, end=0.0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.size = None
        self.children: list[Span] = []
        self.hot: dict[str, list] = {}


class Tracer:
    """Spans kept in memory.  Hot calls are charged to the innermost open span,
    so traced code must run inside one; the benchmark opens one per unit."""

    def __init__(self):
        self.roots: list[Span] = []
        self.stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent)
        (parent.children if parent else self.roots).append(span)
        self.stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        if name in HOT:
            return self._wrap_hot(name, fn)
        sizer = SIZED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if sizer is not None:
                span.size = sizer(result)
            return result

        return traced

    def _wrap_hot(self, name: str, fn):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            nested = len(parent.children)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            agg = parent.hot.setdefault(name, [0, 0.0, 0.0, 0])
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt
            if len(parent.children) != nested:
                agg[2] -= sum(c.end - c.start for c in parent.children[nested:])
            if not result:
                agg[3] += 1
            return result

        return traced

    def spans(self):
        """Every span, parents before children."""
        todo = list(reversed(self.roots))
        while todo:
            span = todo.pop()
            yield span
            todo.extend(reversed(span.children))


def install(tracer: Tracer) -> list:
    """Rebind every wrapped function in the package's module namespaces.

    Returns the list of (module, attribute, original) rebinds for uninstall.
    """
    wrappers = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for fname in names:
            fn = getattr(module, fname)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{fname}", fn))
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s = max(s, reach)
        e = min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_time(span: Span) -> float:
    """Duration minus the time child spans and aggregated hot calls cover."""
    child_time = covered(span.start, span.end, [(c.start, c.end) for c in span.children])
    hot_time = sum(agg[2] for agg in span.hot.values())
    return span.end - span.start - child_time - hot_time


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per function calls, inclusive and self seconds, plus the exact counters."""
    stats = {name: [0, 0.0, 0.0] for name in function_names()}
    sizes: dict[str, list[int]] = {name: [] for name in SIZED}
    reductions = zero_reductions = sweep = 0
    for span in tracer.spans():
        if span.name in stats:
            entry = stats[span.name]
            entry[0] += 1
            entry[1] += span.end - span.start
            entry[2] += self_time(span)
        if span.name in sizes:
            sizes[span.name].append(span.size)
        for name, (calls, seconds, self_seconds, _) in span.hot.items():
            entry = stats[name]
            entry[0] += calls
            entry[1] += seconds
            entry[2] += self_seconds
        nf = span.hot.get("groebner.normal_form", (0, 0.0, 0.0, 0))
        if span.name == "groebner.buchberger":
            reductions += nf[0]
            zero_reductions += nf[3]
        elif span.name == "ideals.universal_gb_check":
            sweep += nf[0]
    out: dict[str, tuple[float, str]] = {}
    for name, (calls, seconds, self_seconds) in stats.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (seconds, "s")
        out[f"{name}.self_s"] = (self_seconds, "s")
    out["groebner.reductions"] = (reductions, "count")
    out["groebner.zero_reduction_share"] = (
        zero_reductions / reductions if reductions else 0.0,
        "ratio",
    )
    out["groebner.gb_size_max"] = (max(sizes["groebner.buchberger"], default=0), "count")
    out["groebner.saturate.gens_out"] = (sum(sizes["groebner.saturate"]), "count")
    out["ideals.ugb_sweep_reductions"] = (sweep, "count")
    out["cycles.candidates"] = (sum(sizes["cycles.enumerate_cycles"]), "count")
    out["certificates.steps"] = (
        sum(sizes["certificates.balanced_certificate_treelike"]),
        "count",
    )
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One JSON line per span; spans of one unit share its root's id."""
    ids = {}
    with open(path, "w") as out:
        for span in tracer.spans():
            ids[id(span)] = len(ids)
            parent = span.parent
            root = span
            while root.parent is not None:
                root = root.parent
            record = {
                "id": ids[id(span)],
                "parent": ids[id(parent)] if parent is not None else None,
                "unit": ids[id(root)],
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "self_s": self_time(span),
                "size": span.size,
                "hot": span.hot,
            }
            out.write(json.dumps(record) + "\n")

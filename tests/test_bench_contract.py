"""The names the benchmark under bench/ traces and calls stay in the package.

bench/spans.py wraps the functions in its LAYERS table by module and name,
sizes the results of those in its SIZED table, and bench/workloads.py calls
the package through ``pkg.<name>``.  All three are read here without
importing the benchmark, so dropping or renaming one of those names, or
changing the kind of result SIZED reads, fails this suite rather than only
a benchmark run.  The nesting the spans record is pinned too: a universal
GB check's Buchberger runs, and the interreduction inside each.
"""

import ast
import importlib
from pathlib import Path

import polyomino_ideals
from polyomino_ideals import (
    IdealGens,
    Polynomial,
    Polyomino,
    buchberger,
    inner_minors,
    order_sample,
    saturate,
    universal_gb_check,
)
from polyomino_ideals import groebner, ideals

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _layers() -> dict:
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no LAYERS table")


def _sized_names() -> list[str]:
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SIZED" for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("bench/spans.py defines no SIZED table")


def _workload_names() -> list[str]:
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return sorted(
        {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "pkg"
        }
    )


def test_traced_layer_functions_exist():
    missing = [
        f"{layer}.{fn}"
        for layer, fns in _layers().items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"polyomino_ideals.{layer}"), fn, None))
    ]
    assert missing == []


def test_workload_calls_resolve():
    names = _workload_names()
    assert "balanced_certificate_treelike" in names  # the parse found the calls
    missing = [n for n in names if not callable(getattr(polyomino_ideals, n, None))]
    assert missing == []


def test_sized_results_keep_their_shape():
    # spans.py's SIZED reads a size off the result of each function it
    # names: those names are traced, and saturate hands back generators
    # whether or not a run divides
    traced = {f"{layer}.{fn}" for layer, fns in _layers().items() for fn in fns}
    sized = _sized_names()
    assert "groebner.saturate" in sized
    assert [name for name in sized if name not in traced] == []
    square = inner_minors(Polyomino({(0, 0)}))  # prime: no run divides
    x2_xy = IdealGens((Polynomial({(2, 0): 1, (1, 1): -1}),), 2)  # x*(x - y)
    for F, divides in ((square, False), (x2_xy, True)):
        out = saturate(F, range(F.nvars))
        assert isinstance(out, IdealGens) and (out is not F) == divides
        assert len(out.generators) == 1


def test_universal_gb_runs_nest_by_name(monkeypatch):
    # spans.py rebinds ideals.buchberger and groebner.reduce_groebner_basis
    # by name, so a universal_gb_check span must hold one buchberger span per
    # basis it computes, each holding one reduce_groebner_basis span.  A run
    # is needed for each sampled order whose reduced basis is new, and only
    # for those; the other orders are served by a basis at hand.
    cells = {(i, j) for i in range(3) for j in range(2)}
    P = Polyomino(cells)
    orders = order_sample(P.num_vertices, seed=1)
    bases = []
    for order in orders:
        gb = set(buchberger(inner_minors(P), order))
        if gb not in bases:
            bases.append(gb)
    assert 1 < len(bases) <= len(orders)  # some orders run, some are served
    calls = {"buchberger": 0, "reduce_groebner_basis": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(ideals, "buchberger")
    counted(groebner, "reduce_groebner_basis")
    assert universal_gb_check(Polyomino(cells), orders).passed  # fresh: nothing cached
    assert calls == {"buchberger": len(bases), "reduce_groebner_basis": len(bases)}

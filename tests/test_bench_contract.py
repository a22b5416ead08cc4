"""The names the benchmark under bench/ traces and calls stay in the package.

bench/spans.py wraps the functions in its LAYERS table by module and name,
sizes the results of those in its SIZED table, and bench/workloads.py calls
the package through ``pkg.<name>``.  All three are read here without
importing the benchmark, so dropping or renaming one of those names, or
changing the kind of result SIZED reads, fails this suite rather than only
a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import polyomino_ideals
from polyomino_ideals import IdealGens, Polynomial, Polyomino, inner_minors, saturate

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

"""The names the benchmark under bench/ traces and calls stay in the package.

bench/spans.py wraps the functions in its LAYERS table by module and name,
and bench/workloads.py calls the package through ``pkg.<name>``.  Both are
read here without importing the benchmark, so dropping or renaming one of
those names fails this suite rather than only a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import polyomino_ideals

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _layers() -> dict:
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no LAYERS table")


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

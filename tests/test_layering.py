"""The package's modules form layers: every import sits at module level, and
the imports between the package's own modules form no cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyomino_ideals"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _imported(node) -> set:
    """The package modules an import statement names, by file stem: ``from .
    import name`` names the module name if there is one, else ``__init__``,
    as ``import polyomino_ideals`` does."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return {node.module} if node.module else {a.name if a.name in TREES else "__init__" for a in node.names}
    dotted = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
    return {(d.split(".") + ["__init__"])[1] for d in dotted if d.split(".")[0] == "polyomino_ideals"}


def test_every_import_is_at_module_level():
    nested = [f"{stem}.py:{node.lineno}" for stem, tree in TREES.items()
              for top in tree.body for node in ast.walk(top)
              if node is not top and isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_package_imports_form_no_cycle():
    graph = {stem: set().union(*(_imported(node) for node in ast.walk(tree)
                                 if isinstance(node, (ast.Import, ast.ImportFrom))))
             for stem, tree in TREES.items()}
    assert graph["ideals"] >= {"cycles", "grid", "groebner"}  # the edges are read
    assert "ideals" not in graph["cycles"]
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as error:
        pytest.fail(f"import cycle {' -> '.join(error.args[1])}")

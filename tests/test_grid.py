"""Geometry layer: construction, edge intervals, inner intervals, leaves."""

import ast
import random
from pathlib import Path

import pytest

from polyomino_ideals import (
    HORIZONTAL,
    VERTICAL,
    CellNotInPolyominoError,
    EdgeInterval,
    EmptyInputError,
    InvalidCountError,
    NotConnectedError,
    Polyomino,
    cell_edges,
    free_polyominoes,
    inner_intervals,
    leaves,
    maximal_cell_interval,
    maximal_edge_intervals,
)
from conftest import (
    cell_degree,
    dihedral_images,
    edge_runs,
    frame,
    free_cellsets,
    grow_polyomino,
    interval_graph_from_runs,
    interval_table,
    point_leq,
    vertex_count_inclusion_exclusion,
)


def test_point_partial_order():
    assert point_leq((0, 0), (1, 1))
    assert point_leq((1, 1), (1, 1))
    assert not point_leq((1, 0), (0, 1))
    assert not point_leq((0, 1), (1, 0))


def test_construction_singleton(P1):
    assert P1.cells == frozenset({(0, 0)})
    assert P1.vertices == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_construction_domino(P2):
    assert P2.cells == frozenset({(0, 0), (1, 0)})
    assert P2.num_vertices == 6


def test_construction_normalizes():
    assert Polyomino({(3, 4), (4, 4)}) == Polyomino({(0, 0), (1, 0)})


def test_construction_disconnected():
    with pytest.raises(NotConnectedError) as info:
        Polyomino({(0, 0), (2, 0)})
    assert info.value.components == [[(0, 0)], [(2, 0)]]


def test_construction_empty():
    with pytest.raises(EmptyInputError):
        Polyomino(set())


@pytest.mark.parametrize(
    "cells, bad", [([(0.7, 0), (1.2, 0)], r"\(0\.7, 0\)"), ([(True, 0), (0, 0)], r"\(True, 0\)")]
)
def test_construction_rejects_non_integer_cells(cells, bad):
    # int() would turn both into the domino
    with pytest.raises(ValueError, match=bad):
        Polyomino(cells)


def test_maximal_edge_intervals_domino(P2):
    assert maximal_edge_intervals(P2, HORIZONTAL) == [
        EdgeInterval((0, 0), (2, 0), HORIZONTAL),
        EdgeInterval((0, 1), (2, 1), HORIZONTAL),
    ]
    assert maximal_edge_intervals(P2, VERTICAL) == [
        EdgeInterval((0, 0), (0, 1), VERTICAL),
        EdgeInterval((1, 0), (1, 1), VERTICAL),
        EdgeInterval((2, 0), (2, 1), VERTICAL),
    ]


def test_maximal_edge_intervals_frame_rows_unbroken(P5):
    # the hole does not break any row: the segment over the hole is still the
    # top edge of the cell below it
    horizontal = maximal_edge_intervals(P5, HORIZONTAL)
    assert horizontal == [
        EdgeInterval((0, j), (3, j), HORIZONTAL) for j in range(4)
    ]


def _unit_edges_of_cells(P, direction):
    edges = set()
    for i, j in P.cells:
        if direction == HORIZONTAL:
            edges.add(((i, j), (i + 1, j)))
            edges.add(((i, j + 1), (i + 1, j + 1)))
        else:
            edges.add(((i, j), (i, j + 1)))
            edges.add(((i + 1, j), (i + 1, j + 1)))
    return edges


def _unit_edges_of_interval(iv):
    vs = iv.vertices()
    return list(zip(vs, vs[1:]))


@pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
def test_edge_interval_partition(fixtures, direction):
    # every direction-d cell edge is covered exactly once
    rng = random.Random(11)
    samples = list(fixtures.values()) + [grow_polyomino(rng.randint(2, 9), rng) for _ in range(20)]
    for P in samples:
        covered = []
        for iv in maximal_edge_intervals(P, direction):
            covered.extend(_unit_edges_of_interval(iv))
        assert len(covered) == len(set(covered))
        assert set(covered) == _unit_edges_of_cells(P, direction)


def test_inner_intervals_singleton(P1):
    assert inner_intervals(P1) == [((0, 0), (1, 1))]


def test_inner_intervals_domino(P2):
    assert inner_intervals(P2) == [
        ((0, 0), (1, 1)),
        ((0, 0), (2, 1)),
        ((1, 0), (2, 1)),
    ]


def test_inner_intervals_frame(P5):
    ivs = inner_intervals(P5)
    assert len(ivs) == 20
    unit = [iv for iv in ivs if iv[1] == (iv[0][0] + 1, iv[0][1] + 1)]
    wide = [iv for iv in ivs if iv[1][0] - iv[0][0] > 1 and iv[1][1] - iv[0][1] == 1]
    tall = [iv for iv in ivs if iv[1][1] - iv[0][1] > 1 and iv[1][0] - iv[0][0] == 1]
    assert (len(unit), len(wide), len(tall)) == (8, 6, 6)


def test_inner_intervals_closed_under_definition(fixtures):
    rng = random.Random(5)
    samples = list(fixtures.values()) + [grow_polyomino(rng.randint(2, 8), rng) for _ in range(15)]
    for P in samples:
        for (i, j), (k, l) in inner_intervals(P):
            assert i < k and j < l
            for r in range(i, k):
                for s in range(j, l):
                    assert (r, s) in P.cells


def test_cell_degree(P1, P3):
    assert cell_degree(P3, (0, 0)) == 2
    assert cell_degree(P3, (1, 0)) == 1
    assert cell_degree(P1, (0, 0)) == 0
    with pytest.raises(CellNotInPolyominoError):
        cell_degree(P3, (1, 1))


def test_leaves_block_has_none(P4):
    assert leaves(P4) == []


def test_leaves_tromino(P3):
    found = {leaf.cell: leaf for leaf in leaves(P3)}
    assert set(found) == {(1, 0), (0, 1)}
    assert found[(1, 0)].free_edge == ((2, 0), (2, 1))
    assert found[(0, 1)].free_edge == ((0, 2), (1, 2))


def test_leaves_singleton_reports_bottom_edge(P1):
    (leaf,) = leaves(P1)
    assert leaf.cell == (0, 0)
    assert leaf.free_edge == cell_edges((0, 0))[0]


def test_leaves_have_degree_one(small_polyominoes):
    for P in small_polyominoes:
        if len(P) == 1:
            continue
        for leaf in leaves(P):
            assert cell_degree(P, leaf.cell) == 1


def test_maximal_cell_interval(P3, P4):
    iv = maximal_cell_interval(P3, (1, 0), HORIZONTAL)
    assert (iv.start, iv.end) == ((0, 0), (1, 0))
    assert maximal_cell_interval(P3, (1, 0), VERTICAL)[:2] == ((1, 0), (1, 0))
    assert maximal_cell_interval(P4, (0, 0), HORIZONTAL)[:2] == ((0, 0), (1, 0))
    with pytest.raises(CellNotInPolyominoError):
        maximal_cell_interval(P3, (5, 5), HORIZONTAL)


def test_interval_helpers_reject_unknown_direction(P3):
    with pytest.raises(ValueError, match="unknown direction 'diagonal'"):
        maximal_edge_intervals(P3, "diagonal")
    with pytest.raises(ValueError, match="unknown direction 'diagonal'"):
        maximal_cell_interval(P3, (0, 0), "diagonal")


def test_vertex_count_matches_inclusion_exclusion(fixtures):
    small = [P for P in fixtures.values() if len(P) <= 4]
    rng = random.Random(3)
    small += [grow_polyomino(rng.randint(1, 5), rng) for _ in range(10)]
    for P in small:
        assert P.num_vertices == vertex_count_inclusion_exclusion(P)


def test_free_polyominoes_match_fixed_enumeration():
    # the oracle enumerates fixed polyominoes, then takes each one's least image
    levels = free_polyominoes(7)
    assert all(len(P) == n for n, level in levels.items() for P in level)
    shapes = [tuple(sorted(P.cells)) for level in levels.values() for P in level]
    assert len(shapes) == len(set(shapes))
    assert set(shapes) == free_cellsets(7)


def test_free_polyomino_counts():
    levels = free_polyominoes(9)
    # OEIS A000105
    assert [len(levels[n]) for n in range(1, 10)] == [1, 1, 2, 5, 12, 35, 108, 369, 1285]


def test_free_polyominoes_rejects_no_cells():
    with pytest.raises(InvalidCountError):
        free_polyominoes(0)


def test_polyomino_is_hashable_and_immutable(P2):
    assert hash(P2) == hash(Polyomino({(0, 0), (1, 0)}))
    assert isinstance(P2.cells, frozenset)


def test_derived_builds_once_and_keeps_nothing_on_error(P2):
    P = Polyomino(P2.cells)
    builds = []

    def failing():
        builds.append("fail")
        raise ValueError("no value")

    with pytest.raises(ValueError):
        P.derived("x", failing)
    assert P.derived("x", lambda: builds.append("ok") or 7) == 7
    assert P.derived("x", lambda: builds.append("again") or 8) == 7
    assert builds == ["fail", "ok"]
    assert Polyomino(P2.cells).derived("x", lambda: 9) == 9  # kept per polyomino


def test_derived_data_has_one_home():
    # Data kept on a polyomino goes through Polyomino.derived: no module but
    # grid reads or writes attributes by name, or assigns an attribute of
    # anything but self.  Frozen dataclasses set their fields through
    # object.__setattr__.
    package = Path(__file__).resolve().parent.parent / "src" / "polyomino_ideals"
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name in ("getattr", "hasattr", "setattr", "delattr") or (
                    name.endswith("__setattr__") and name != "object.__setattr__"
                ):
                    found.append(f"{where} {name}")
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            for t in targets:
                if isinstance(t, ast.Attribute) and ast.unparse(t.value) != "self":
                    found.append(f"{where} assigns {ast.unparse(t)}")
    assert found == []


def test_symmetries_are_the_stabilizer():
    # orbit-stabilizer on the free <= 7-ominoes and the 3x3 frame: a shape
    # with k distinct dihedral images keeps 8 / k symmetries, the identity
    # left out; each is a permutation of the vertex indices sending every
    # cell's corners to some cell's corners, and the result is kept on P
    from polyomino_ideals.grid import _symmetries

    for cells in [*free_cellsets(7), frame(3, 3).cells]:
        P = Polyomino(cells)
        symmetries = _symmetries(P)
        assert len(symmetries) + 1 == 8 // len(set(dihedral_images(cells)))
        idx = P.vertex_index
        corners = {frozenset(idx[(i + a, j + b)] for a in (0, 1) for b in (0, 1)) for i, j in cells}
        for sigma in symmetries:
            assert sorted(sigma) == list(range(P.num_vertices)) and sigma != tuple(sorted(sigma))
            assert {frozenset(sigma[k] for k in c) for c in corners} == corners
        assert _symmetries(P) is symmetries
    assert len(_symmetries(frame(3, 3))) == 7


def test_leaf_peel_builds_no_polyomino():
    # classify peels on a plain set of cells and certificates reads its
    # chain: neither builds a Polyomino, so per-step construction cannot
    # come back unnoticed
    package = Path(__file__).resolve().parent.parent / "src" / "polyomino_ideals"
    found = [
        f"{name}:{node.lineno}"
        for name in ("classify.py", "certificates.py")
        for node in ast.walk(ast.parse((package / name).read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Polyomino"
    ]
    assert found == []


def test_interval_graph_joins_each_vertex_its_two_intervals():
    from polyomino_ideals.grid import interval_graph

    for cells in sorted(free_cellsets(6)):
        P = Polyomino(cells)
        graph = interval_graph(P)
        number = {iv: k for k, iv in enumerate(graph.nodes)}
        table = interval_table(P)
        edges = set()
        for k, v in enumerate(P.vertices):
            a = number[table[(v, HORIZONTAL)]]
            b = number[table[(v, VERTICAL)]]
            assert graph.ends[k] == (a, b)
            edges.add((a, b))
        assert graph.rows == tuple(
            tuple(P.vertex_index[v] for v in iv.vertices()) for iv in graph.nodes
        )
        assert all(list(row) == sorted(row) for row in graph.rows)
        assert {
            (a, b) for a, mask in enumerate(graph.adjacency)
            for b in range(len(graph.nodes)) if mask >> b & 1 and a < b
        } == edges
        assert interval_graph(P) is graph  # built once


def test_interval_graph_sweep_matches_edge_runs():
    # the one-sweep build equals G_P assembled from the unit-edge runs, and
    # its nodes are maximal_edge_intervals, on every orientation of the
    # free <= 8-ominoes and of three frames
    from polyomino_ideals.grid import interval_graph

    frames = [frame(w, h).cells for w, h in ((3, 3), (4, 3), (4, 4))]
    shapes = {image for cells in [*sorted(free_cellsets(8)), *frames]
              for image in dihedral_images(cells)}
    # the 3x3 frame is a free 8-omino; the 4x3 and 4x4 frames add 2 + 1 images
    assert len(shapes) == 3792 + 3
    for cells in shapes:
        P = Polyomino(cells)
        assert interval_graph(P) == interval_graph_from_runs(P)
        for d in (HORIZONTAL, VERTICAL):
            assert maximal_edge_intervals(P, d) == edge_runs(cells, d)

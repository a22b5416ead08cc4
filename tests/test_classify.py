"""Classification layer: convexity, simplicity, tree-likeness, leaf census."""

import random

import pytest

from polyomino_ideals import (
    BAD,
    GOOD,
    NotALeafError,
    Polyomino,
    classify_leaf,
    free_polyominoes,
    is_column_convex,
    is_row_convex,
    is_simple,
    is_tree_like,
    leaf_census,
    leaves,
)
from polyomino_ideals.classify import _peel_chain
from conftest import (
    cell_graph,
    dihedral_images,
    euler_simple,
    flood_fill_simple,
    free_cellsets,
    good_leaf_runs,
    leaf_cells,
    random_column_convex,
    random_peel,
    random_row_convex,
    random_tree_like,
    tree_like_oracle,
)


def test_row_column_convex(P1, P4, P5):
    assert is_row_convex(P4) and is_column_convex(P4)
    assert not is_row_convex(P5) and not is_column_convex(P5)
    assert is_row_convex(P1) and is_column_convex(P1)


def test_column_convex_only():
    # two columns joined only at the bottom row: column convex, not row convex
    P = Polyomino({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)})
    assert is_column_convex(P)
    assert not is_row_convex(P)


def test_is_simple(P2, P5, P6):
    assert is_simple(P5) == (False, (1, 1))
    assert is_simple(P2) == (True, None)
    assert is_simple(P6) == (True, None)


def test_is_tree_like_peel(P3, P4, P6):
    assert is_tree_like(P3).tree_like
    report = is_tree_like(P4)
    assert not report.tree_like
    assert report.stuck == P4.cells
    assert is_tree_like(P6).tree_like


def test_is_tree_like_exhaustive(P3, P4, P5):
    assert tree_like_oracle(P3) is None
    assert tree_like_oracle(P4) == P4.cells
    # the frame is its own leafless subpolyomino
    assert tree_like_oracle(P5) == P5.cells
    for P in (P3, P4, P5):
        assert is_tree_like(P).stuck == tree_like_oracle(P)


def test_tree_like_modes_agree_small(small_polyominoes):
    for P in small_polyominoes:
        if len(P) > 5:
            continue
        stuck = tree_like_oracle(P)
        assert is_tree_like(P) == (stuck is None, stuck)


def test_peel_order_does_not_matter(small_polyominoes):
    # every peeling order stops at the same leafless sub-polyomino: all the
    # shapes that are not tree-like, and a sample of the others
    rng = random.Random(17)
    sample = [P for P in small_polyominoes if len(P) in (5, 6, 7)]
    stuck = [P for P in sample if not is_tree_like(P).tree_like]
    for P in stuck + rng.sample(sample, 40):
        expected = is_tree_like(P).stuck
        for _ in range(3):
            assert random_peel(P, rng) == expected


def test_classify_leaf(P3, P6):
    assert classify_leaf(P3, (1, 0)) == GOOD
    assert classify_leaf(P6, (0, 1)) == BAD
    assert classify_leaf(P6, (2, 0)) == GOOD
    with pytest.raises(NotALeafError):
        classify_leaf(P3, (0, 0))


def test_leaf_census_tromino(P3):
    census = leaf_census(P3)
    assert (census.n1, census.n2, census.n3, census.n4) == (2, 1, 0, 0)
    assert census.good_leaves == ((1, 0), (0, 1))
    assert census.bad_leaves == ()
    assert census.n1 == census.n3 + 2 * census.n4 + 2


def test_leaf_census_staple(P6):
    census = leaf_census(P6)
    assert (census.n1, census.n2, census.n3, census.n4) == (3, 2, 1, 0)
    assert set(census.good_leaves) == {(2, 0), (2, 2)}
    assert census.bad_leaves == ((0, 1),)
    assert census.blocking_cells == {(0, 1): (1, 1)}
    assert len(census.good_leaves) == census.n3 + 2 * census.n4 + 2 - len(census.bad_leaves)


def test_leaf_census_singleton(P1):
    census = leaf_census(P1)
    assert (census.n0, census.n1, census.n2, census.n3, census.n4) == (1, 0, 0, 0, 0)
    assert census.good_leaves == ((0, 0),)
    assert census.bad_leaves == ()


def _is_tree(n, edges):
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def test_tree_like_connection_graph_is_tree(small_polyominoes):
    for P in small_polyominoes:
        if len(P) <= 6 and is_tree_like(P).tree_like:
            assert _is_tree(len(P), cell_graph(P))


def test_generated_classes_are_simple():
    rng = random.Random(23)
    for make in (random_row_convex, random_column_convex, random_tree_like):
        for _ in range(10):
            P = make(7, rng)
            assert is_simple(P).simple


def _row_major(cell):
    return (cell[1], cell[0])


def _frame(width, height):
    return Polyomino({(i, j) for i in range(width) for j in range(height)
                      if i in (0, width - 1) or j in (0, height - 1)})


def test_good_leaf_oracle_matches_classify_leaf_and_census():
    # every leaf of every free <= 8-omino, against the paper's definition
    # walked on unit-edge runs
    for P in (P for level in free_polyominoes(8).values() for P in level):
        found = leaf_cells(P.cells)
        assert sorted(lf.cell for lf in leaves(P)) == sorted(found)
        good = sorted((c for c in found if good_leaf_runs(P.cells, c)), key=_row_major)
        bad = sorted((c for c in found if c not in good), key=_row_major)
        for c in found:
            assert classify_leaf(P, c) == (GOOD if c in good else BAD)
        census = leaf_census(P)
        assert (census.good_leaves, census.bad_leaves) == (tuple(good), tuple(bad))


def test_peel_chain_steps_match_good_leaf_oracle():
    # at every step, on the cells still present: a good leaf is peeled while
    # there is one, the smallest, with a2 good and edge its unit-edge run;
    # else the smallest leaf; stuck is what is left when no leaf is
    rng = random.Random(31)
    shapes = [P for level in free_polyominoes(8).values() for P in level]
    shapes += [random_tree_like(14, rng) for _ in range(40)]
    for P in shapes:
        steps, stuck = _peel_chain(P)
        cells = set(P.cells)
        for step in steps:
            found = leaf_cells(cells)
            good = [c for c in found if good_leaf_runs(cells, c)]
            if step.a2 is None:
                assert good == [] and step.cell == min(found, key=_row_major)
            else:
                assert step.cell == min(good, key=_row_major)
                assert good_leaf_runs(cells, step.cell)[step.a2] == step.edge
            cells.remove(step.cell)
        assert leaf_cells(cells) == []
        assert (frozenset(cells) or None) == stuck


def test_is_simple_matches_euler_characteristic():
    shapes = [P for level in free_polyominoes(9).values() for P in level]
    shapes += [_frame(3, 3), _frame(4, 3), _frame(4, 4)]
    for P in shapes:
        report = is_simple(P)
        assert report.simple == euler_simple(P.cells)
        assert report.hole is None or report.hole not in P
    assert [is_simple(P).simple for P in shapes[-3:]] == [False] * 3


def test_is_simple_matches_flood_fill():
    # the rank count of is_simple against an independent flood fill of the
    # complement, witness included, on every orientation of the free
    # <= 8-ominoes, the free 9-ominoes and three frames
    shapes = {image for cells in sorted(free_cellsets(8)) for image in dihedral_images(cells)}
    shapes |= {cells for cells in free_cellsets(9) if len(cells) == 9}
    shapes |= {image for w, h in ((3, 3), (4, 3), (4, 4))
               for image in dihedral_images(_frame(w, h).cells)}
    holes = 0
    for cells in shapes:
        report = is_simple(Polyomino(cells))
        assert tuple(report) == flood_fill_simple(cells)
        holes += not report.simple
    # 45 images of the 7 non-simple free <= 8-ominoes (the 3x3 frame among
    # them), 37 free 9-ominoes (A001419) and the other frames' 2 + 1 images
    assert holes == 45 + 37 + 3


def test_is_simple_raises_when_the_flood_fill_finds_no_hole(monkeypatch):
    # the count says the frame has a hole; a flood fill that reports none
    # contradicts it
    from polyomino_ideals import classify

    monkeypatch.setattr(classify, "connected_components", lambda cells: [set(cells)])
    with pytest.raises(RuntimeError, match="counts a hole the flood fill misses"):
        is_simple(_frame(3, 3))

"""Structural predicates: convexity, simplicity, tree-likeness, leaf census.

A leaf is a cell with an edge whose two vertices belong to no other cell.  A
leaf is good when, for at least one of its free vertices, the maximal edge
interval through that vertex (taken in the direction of the leaf's maximal
cell interval) spans exactly as many unit edges as that cell interval has
cells.  The one cell polyomino is a good leaf, so that recursions over
leaves terminate.

Tree-likeness (every sub-polyomino has a leaf) is decided by one leaf-peeling
chain per polyomino, built once and kept on it; the tree-like certificates
of ``certificates`` peel along the same chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from .errors import NotALeafError
from .grid import (
    HORIZONTAL,
    VERTICAL,
    CellInterval,
    Point,
    Polyomino,
    cell_neighbors,
    edge_interval_through,
    free_edge,
    leaves,
    maximal_cell_interval,
    point_key,
)

GOOD = "good"
BAD = "bad"


class SimpleReport(NamedTuple):
    simple: bool
    hole: Point | None


class TreeLikeReport(NamedTuple):
    tree_like: bool
    stuck: frozenset | None


@dataclass(frozen=True)
class LeafCensus:
    """Degree histogram plus good/bad classification of the leaves.

    n0 is nonzero only for the one cell polyomino, which is counted as a good
    leaf by convention (so n1 = len(good) + len(bad) holds whenever the
    polyomino has at least two cells).  blocking_cells maps each bad leaf to
    the far end cell of its maximal cell interval.
    """

    n0: int
    n1: int
    n2: int
    n3: int
    n4: int
    good_leaves: tuple[Point, ...]
    bad_leaves: tuple[Point, ...]
    blocking_cells: dict[Point, Point] = field(default_factory=dict)


def is_row_convex(P: Polyomino) -> bool:
    """True iff the cells of every row form one contiguous run."""
    rows: dict[int, list[int]] = {}
    for i, j in P.cells:
        rows.setdefault(j, []).append(i)
    return all(max(v) - min(v) + 1 == len(v) for v in rows.values())


def is_column_convex(P: Polyomino) -> bool:
    """True iff the cells of every column form one contiguous run."""
    cols: dict[int, list[int]] = {}
    for i, j in P.cells:
        cols.setdefault(i, []).append(j)
    return all(max(v) - min(v) + 1 == len(v) for v in cols.values())


def is_simple(P: Polyomino) -> SimpleReport:
    """Flood fill over the complement inside a one cell padded bounding box.

    The polyomino is simple when every box cell outside P escapes to the
    padding ring through cells outside P.  When it is not, the canonically
    smallest trapped cell is returned as a witness.
    """
    maxi = max(i for i, _ in P.cells)
    maxj = max(j for _, j in P.cells)
    seen = set()
    frontier = []
    for i in range(-1, maxi + 2):
        for j in (-1, maxj + 1):
            frontier.append((i, j))
    for j in range(0, maxj + 1):
        for i in (-1, maxi + 1):
            frontier.append((i, j))
    seen.update(frontier)
    while frontier:
        c = frontier.pop()
        for nb in cell_neighbors(c):
            i, j = nb
            if -1 <= i <= maxi + 1 and -1 <= j <= maxj + 1:
                if nb not in seen and nb not in P.cells:
                    seen.add(nb)
                    frontier.append(nb)
    holes = [
        (i, j)
        for j in range(maxj + 1)
        for i in range(maxi + 1)
        if (i, j) not in P.cells and (i, j) not in seen
    ]
    if holes:
        return SimpleReport(False, min(holes, key=point_key))
    return SimpleReport(True, None)


def _leaf_site(P: Polyomino, cell: Point) -> tuple[tuple[Point, Point], CellInterval, Point | None]:
    """(free edge, cell interval, good vertex) of a leaf: its maximal cell
    interval toward its neighbor, and its first free vertex whose edge
    interval in that direction has as many unit edges as the cell interval
    has cells (None for a bad leaf).  The one cell polyomino has no neighbor
    and its free edge is the bottom one; its vertical interval makes it good.
    """
    e = free_edge(P, cell)
    if e is None:
        raise NotALeafError(f"{cell} is not a leaf")
    neighbor = next((nb for nb in cell_neighbors(cell) if nb in P.cells), None)
    direction = HORIZONTAL if neighbor is not None and neighbor[1] == cell[1] else VERTICAL
    interval = maximal_cell_interval(P, cell, direction)
    good = next(
        (v for v in e if edge_interval_through(P, v, direction).num_edges == interval.num_cells),
        None,
    )
    return e, interval, good


class _PeelStep(NamedTuple):
    """One peeled leaf: a2 is its good free vertex (None for a bad leaf), a1
    the other one, edge the vertices of a2's edge interval in direction."""

    cell: Point
    a1: Point
    a2: Point | None
    direction: str
    edge: tuple[Point, ...]


def _peel_chain(P: Polyomino) -> tuple[tuple[_PeelStep, ...], frozenset | None]:
    """(steps, stuck): peel P, each step removing the smallest good leaf or
    else the smallest leaf, until one cell (stuck None) or a leafless
    sub-polyomino (stuck) remains; computed once and kept on P.

    A leaf of P stays a leaf of every sub-polyomino holding it, so no peel
    removes a cell of a leafless sub-polyomino: every peeling order stops at
    the same stuck set, and at one cell exactly when P is tree-like.
    """
    return P.derived("peel_chain", lambda: _peel(P))


def _peel(P: Polyomino) -> tuple[tuple[_PeelStep, ...], frozenset | None]:
    steps = []
    sub = P
    while found := leaves(sub):
        sites = ((lf.cell, *_leaf_site(sub, lf.cell)) for lf in found)
        first = next(sites)
        cell, e, interval, a2 = next((s for s in chain((first,), sites) if s[3] is not None), first)
        edge = edge_interval_through(sub, a2, interval.direction).vertices() if a2 else ()
        steps.append(_PeelStep(cell, e[1] if a2 == e[0] else e[0], a2, interval.direction, edge))
        if len(sub) == 1:
            break
        sub = Polyomino(sub.cells - {cell}, normalize=False)
    return tuple(steps), None if found else sub.cells


def is_tree_like(P: Polyomino) -> TreeLikeReport:
    """Decide whether every subpolyomino has a leaf.

    Read from the leaf-peeling chain: P is tree-like iff peeling reaches one
    cell; otherwise stuck is the leafless sub-polyomino where peeling stops,
    the same for every peeling order.
    """
    stuck = _peel_chain(P)[1]
    return TreeLikeReport(stuck is None, stuck)


def classify_leaf(P: Polyomino, cell: Point) -> str:
    """Return "good" or "bad" for a leaf cell.

    Good means: for at least one free vertex, the maximal edge interval
    through it in the direction of the leaf's cell interval has as many unit
    edges as the cell interval has cells.
    """
    return GOOD if _leaf_site(P, cell)[2] is not None else BAD


def leaf_census(P: Polyomino) -> LeafCensus:
    """Degree histogram, good/bad leaf lists and bad-leaf blocking cells."""
    counts = [0, 0, 0, 0, 0]
    for c in P.cells:
        counts[sum(1 for nb in cell_neighbors(c) if nb in P.cells)] += 1
    good, bad = [], []
    blocking: dict[Point, Point] = {}
    for leaf in leaves(P):
        _, iv, vertex = _leaf_site(P, leaf.cell)
        if vertex is not None:
            good.append(leaf.cell)
        else:
            bad.append(leaf.cell)
            blocking[leaf.cell] = iv.end if iv.start == leaf.cell else iv.start
    return LeafCensus(
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        counts[4],
        tuple(sorted(good, key=point_key)),
        tuple(sorted(bad, key=point_key)),
        blocking,
    )

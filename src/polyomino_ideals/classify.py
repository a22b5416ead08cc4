"""Structural predicates: convexity, simplicity, tree-likeness, leaf census.

A leaf is a cell with an edge whose two vertices belong to no other cell.  A
leaf is good when, for at least one of its free vertices, the maximal edge
interval through that vertex (taken in the direction of the leaf's maximal
cell interval) spans exactly as many unit edges as that cell interval has
cells.  The one cell polyomino is a good leaf, so that recursions over
leaves terminate.

Tree-likeness (every sub-polyomino has a leaf) is decided by one leaf-peeling
chain per polyomino, built once and kept on it; the tree-like certificates
of ``certificates`` peel along the same chain.  A peel step re-tests one
cell's free edge and builds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Collection, NamedTuple

from .errors import NotALeafError
from .grid import (
    HORIZONTAL,
    VERTICAL,
    CellInterval,
    Point,
    Polyomino,
    _cycle_rank,
    cell_neighbors,
    connected_components,
    free_edge,
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
    """Whether the complement of P has no bounded component, read off the
    interval graph G_P (``grid.interval_graph``).

    P is simple iff |V(P)| - |nodes of G_P| + 1 = |P|, the left side being
    G_P's cycle rank (``grid._cycle_rank``).  Let X be the union
    of P's closed cells, a connected 2-complex in the plane with |V(P)|
    vertices, the unit edges of P as edges and |P| faces.  Each vertex lies
    on exactly one node (maximal edge interval) per direction, and a node
    with m vertices has m - 1 unit edges, so there are 2|V(P)| - |nodes|
    edges and the Euler characteristic is chi = |nodes| - |V(P)| + |P|.  X
    is connected and compact in the plane, so b_2(X) = 0 and
    chi = 1 - b_1(X), and by Alexander duality b_1(X) counts the bounded
    components of the plane minus X.  Two cells outside P sharing an edge meet in that open
    edge, which lies on no cell of P, so those components are the holes,
    the edge-connected classes of cells outside P that cannot reach
    infinity.  So P has 1 - chi holes, none exactly when the equation holds.
    The same count is ``ideals.is_balanced``'s rank test.

    Only a non-simple P is flood-filled, to find the witness: the box cells
    outside P, in a one-cell padded bounding box, that the padding corner
    (-1, -1) cannot reach are the holes, and the row-major smallest is
    returned.  A flood fill that finds none contradicts the count and
    raises RuntimeError.
    """
    if _cycle_rank(P) == len(P):
        return SimpleReport(True, None)
    maxi, maxj = max(i for i, _ in P.cells), max(j for _, j in P.cells)
    box = {(i, j) for i in range(-1, maxi + 2) for j in range(-1, maxj + 2)}
    outside = connected_components(box - P.cells)
    holes = [c for comp in outside if (-1, -1) not in comp for c in comp]
    if not holes:
        raise RuntimeError(f"the interval graph of {P!r} counts a hole the flood fill misses")
    return SimpleReport(False, min(holes, key=point_key))


def _leaf_site(
    P: Collection[Point], cell: Point, free: tuple[Point, Point]
) -> tuple[CellInterval, Point | None]:
    """(cell interval, good vertex) of the leaf cell of P, given its free
    edge as ``free_edge`` reports it.

    The cell interval is the leaf's maximal one toward its neighbor (vertical
    for the one cell polyomino, whose free edge is the bottom one).  The good
    vertex is the first vertex v of the free edge whose edge interval in that
    direction has as many unit edges as the cell interval has cells, k; None
    for a bad leaf.  Read off cells: the edge interval through v starts at v,
    because no cell lies behind a free vertex.  It runs along the cell
    interval.  The cell straight beyond the far end is absent, because the
    interval is maximal.  So it has exactly k edges iff the cell diagonally
    beyond the far end, on v's side, is absent.
    """
    neighbor = next((nb for nb in cell_neighbors(cell) if nb in P), None)
    direction = HORIZONTAL if neighbor is not None and neighbor[1] == cell[1] else VERTICAL
    interval = maximal_cell_interval(P, cell, direction)
    step = 1 if interval.start == cell else -1
    i, j = interval.end if step == 1 else interval.start  # the far end
    if direction == HORIZONTAL:
        diagonal = [(i + step, 2 * y - j - 1) for _, y in free]
    else:
        diagonal = [(2 * x - i - 1, j + step) for x, _ in free]
    return interval, next((v for v, c in zip(free, diagonal) if c not in P), None)


class _PeelStep(NamedTuple):
    """One peeled leaf: a2 is its good free vertex (None for a bad leaf), a1
    the other one, edge a2's edge interval in direction: the k + 1 vertices
    on a2's side of the leaf's k-cell interval, in row-major order."""

    cell: Point
    a1: Point
    a2: Point | None
    direction: str
    edge: tuple[Point, ...]


def _peel_chain(P: Polyomino) -> tuple[tuple[_PeelStep, ...], frozenset | None]:
    """(steps, stuck): peel P, each step removing the smallest good leaf or
    else the smallest leaf, until one cell (stuck None) or a leafless
    sub-polyomino (stuck) remains; computed once and kept on P.

    The peel shrinks a dict mapping P's remaining cells, in row-major
    order, to their free edges; no sub-polyomino is built.  Removing a leaf
    can change the free edge of its one neighbor only: no other cell
    touches the leaf's free vertices, and the neighbor touches the other
    two.  So a peel calls ``free_edge`` fewer than 2|P| times.

    A leaf of P stays a leaf of every sub-polyomino holding it, so no peel
    removes a cell of a leafless sub-polyomino: every peeling order stops at
    the same stuck set, and at one cell exactly when P is tree-like.
    """
    return P.derived("peel_chain", lambda: _peel(P))


def _free_edges(P: Polyomino) -> dict:
    """Each cell's free edge in P, None where it has none, in row-major
    order; the peel's first step, kept on P for ``leaf_census`` too."""
    return P.derived("free_edges", lambda: {c: free_edge(P, c) for c in P.cells_sorted})


def _peel(P: Polyomino) -> tuple[tuple[_PeelStep, ...], frozenset | None]:
    steps = []
    cells = dict(_free_edges(P))  # each remaining cell's free edge
    while found := [(c, e) for c, e in cells.items() if e is not None]:
        sites = ((c, e, *_leaf_site(cells, c, e)) for c, e in found)
        first = next(sites)
        cell, e, interval, a2 = next((s for s in chain((first,), sites) if s[3] is not None), first)
        if a2 is None:
            edge = ()
        elif interval.direction == HORIZONTAL:
            edge = tuple((x, a2[1]) for x in range(interval.start[0], interval.end[0] + 2))
        else:
            edge = tuple((a2[0], y) for y in range(interval.start[1], interval.end[1] + 2))
        steps.append(_PeelStep(cell, e[1] if a2 == e[0] else e[0], a2, interval.direction, edge))
        if len(cells) == 1:
            break
        del cells[cell]
        for nb in cell_neighbors(cell):
            if nb in cells:
                cells[nb] = free_edge(cells, nb)
    return tuple(steps), None if found else frozenset(cells)


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
    free = free_edge(P, cell)
    if free is None:
        raise NotALeafError(f"{cell} is not a leaf")
    return GOOD if _leaf_site(P, cell, free)[1] is not None else BAD


def leaf_census(P: Polyomino) -> LeafCensus:
    """Degree histogram, good/bad leaf lists and bad-leaf blocking cells;
    the leaves are read off the free edges the leaf peel starts from."""
    counts = [0, 0, 0, 0, 0]
    for c in P.cells:
        counts[sum(1 for nb in cell_neighbors(c) if nb in P.cells)] += 1
    good, bad = [], []
    blocking: dict[Point, Point] = {}
    for cell, free in _free_edges(P).items():
        if free is None:
            continue
        iv, vertex = _leaf_site(P, cell, free)
        if vertex is not None:
            good.append(cell)
        else:
            bad.append(cell)
            blocking[cell] = iv.end if iv.start == cell else iv.start
    return LeafCensus(*counts, tuple(good), tuple(bad), blocking)

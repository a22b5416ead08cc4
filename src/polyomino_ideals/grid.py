"""Polyomino geometry: cells, vertices, edge intervals and their graph,
inner intervals, leaves.

A cell is the unit square with lower left corner (i, j); i counts columns and
j counts rows.  A polyomino is a finite, edge-connected set of cells,
translation-normalized so that min i = min j = 0.  Everything here is
immutable and every function is pure, so values can be shared freely.
"""

from __future__ import annotations

from functools import cached_property
from typing import Collection, Iterable, NamedTuple

from .errors import CellNotInPolyominoError, EmptyInputError, InvalidCountError, NotConnectedError

Point = tuple[int, int]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
DIRECTIONS = (HORIZONTAL, VERTICAL)


def point_key(p: Point) -> tuple[int, int]:
    """Row-major ordering key: by row j, then column i."""
    return (p[1], p[0])


def cell_vertices(cell: Point) -> tuple[Point, Point, Point, Point]:
    i, j = cell
    return ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))


def cell_edges(cell: Point) -> tuple[tuple[Point, Point], ...]:
    """The four edges of a cell as vertex pairs, in canonical order
    (bottom, left, right, top)."""
    i, j = cell
    return (
        ((i, j), (i + 1, j)),
        ((i, j), (i, j + 1)),
        ((i + 1, j), (i + 1, j + 1)),
        ((i, j + 1), (i + 1, j + 1)),
    )


def cell_neighbors(cell: Point) -> tuple[Point, Point, Point, Point]:
    i, j = cell
    return ((i, j - 1), (i - 1, j), (i + 1, j), (i, j + 1))


def connected_components(cells: Iterable[Point]) -> list[set[Point]]:
    """Edge-connected components of a cell set (flood fill)."""
    remaining = set(cells)
    comps = []
    while remaining:
        seed = min(remaining, key=point_key)
        remaining.remove(seed)
        comp = {seed}
        frontier = [seed]
        while frontier:
            c = frontier.pop()
            for nb in cell_neighbors(c):
                if nb in remaining:
                    remaining.remove(nb)
                    comp.add(nb)
                    frontier.append(nb)
        comps.append(comp)
    return comps


class EdgeInterval(NamedTuple):
    """A maximal run of collinear unit edges; length counts unit edges."""

    start: Point
    end: Point
    direction: str

    @property
    def num_edges(self) -> int:
        return (self.end[0] - self.start[0]) + (self.end[1] - self.start[1])

    def vertices(self) -> tuple[Point, ...]:
        i, j = self.start
        if self.direction == HORIZONTAL:
            return tuple((x, j) for x in range(i, self.end[0] + 1))
        return tuple((i, y) for y in range(j, self.end[1] + 1))


class CellInterval(NamedTuple):
    """A run of consecutive cells, from start to end."""

    start: Point
    end: Point
    direction: str


class Leaf(NamedTuple):
    cell: Point
    free_edge: tuple[Point, Point]


class Polyomino:
    """Immutable edge-connected set of unit cells.

    Construction validates connectivity and translates the cells so
    min i = min j = 0.  Iteration yields the cells in row-major order, so a
    Polyomino and a plain set of cells serve the leaf helpers below alike.
    Data derived from the cells once per polyomino (the interval graph,
    which alone maps vertices to their edge intervals, the leaf-peeling
    chain, the inner minors and the verdicts, a non-prime verdict as the
    leads that ``dimension`` reads) is kept through ``derived``.
    """

    def __init__(self, cells: Iterable[Point]):
        cellset = set()
        for i, j in cells:
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"cell {(i, j)!r} is not a pair of integers")
            cellset.add((i, j))
        if not cellset:
            raise EmptyInputError("a polyomino needs at least one cell")
        mini = min(i for i, _ in cellset)
        minj = min(j for _, j in cellset)
        if mini or minj:
            cellset = {(i - mini, j - minj) for i, j in cellset}
        comps = connected_components(cellset)
        if len(comps) > 1:
            raise NotConnectedError(comps)
        self.cells: frozenset[Point] = frozenset(cellset)
        self._derived: dict = {}

    def derived(self, name: str, build):
        """The value kept under name, else build()'s result, kept from then
        on; a build that raises keeps nothing."""
        if name not in self._derived:
            self._derived[name] = build()
        return self._derived[name]

    def __contains__(self, cell) -> bool:
        return cell in self.cells

    def __iter__(self):
        return iter(self.cells_sorted)

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyomino) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Polyomino({sorted(self.cells, key=point_key)})"

    @cached_property
    def cells_sorted(self) -> tuple[Point, ...]:
        return tuple(sorted(self.cells, key=point_key))

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        vs = {v for c in self.cells for v in cell_vertices(c)}
        return tuple(sorted(vs, key=point_key))

    @cached_property
    def vertex_index(self) -> dict[Point, int]:
        """Canonical row-major variable numbering of V(P)."""
        return {v: k for k, v in enumerate(self.vertices)}

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


def _images(points) -> list[list[Point]]:
    """The eight images of a point list under the symmetries of the square,
    each translation-normalized and listed point by point, the identity
    first.  On a cell list (lower left corners) and on its vertex list the
    same symmetry differs only by a translation, so after normalizing, a
    cell's image and its vertices' images are again a cell and its vertices."""
    xs, ys = [i for i, _ in points], [j for _, j in points]
    shift_i, shift_j = {1: -min(xs), -1: max(xs)}, {1: -min(ys), -1: max(ys)}
    out = []
    for a in (1, -1):
        for b in (1, -1):
            ai, bj, aj, bi = shift_i[a], shift_j[b], shift_j[a], shift_i[b]
            out.append([(a * i + ai, b * j + bj) for i, j in points])
            out.append([(a * j + aj, b * i + bi) for i, j in points])
    return out


def _free_form(cells) -> tuple[Point, ...]:
    """The least sorted, translation-normalized image of a cell set under the
    eight symmetries of the square: one representative per dihedral class."""
    return min(tuple(sorted(image)) for image in _images(cells))


def _symmetries(P: Polyomino) -> tuple[tuple[int, ...], ...]:
    """The symmetries of the square other than the identity that map P onto
    itself, each as the permutation sigma of the vertex indices
    (``Polyomino.vertex_index``) with vertex k going to sigma[k]; kept on P."""

    def build():
        images = _images(P.cells_sorted)
        kept = [t for t in range(1, 8) if P.cells.issuperset(images[t])]
        if not kept:
            return ()
        idx, images = P.vertex_index, _images(P.vertices)
        return tuple(tuple(map(idx.__getitem__, images[t])) for t in kept)

    return P.derived("symmetries", build)


def free_polyominoes(max_cells: int) -> dict[int, list[Polyomino]]:
    """Every free polyomino with at most max_cells cells, keyed by cell count.

    Level n+1 grows every shape of level n by one boundary cell and keeps
    one shape per dihedral class, its ``_free_form``.  This reaches every
    class: removing a leaf of a spanning tree of the cell graph leaves an
    n-cell polyomino.  The level sizes are OEIS A000105.
    """
    if max_cells < 1:
        raise InvalidCountError(f"max_cells must be at least 1, got {max_cells}")
    levels = {1: {((0, 0),)}}
    for n in range(2, max_cells + 1):
        grown = set()
        for shape in levels[n - 1]:
            for nb in {nb for c in shape for nb in cell_neighbors(c)} - set(shape):
                grown.add(_free_form([*shape, nb]))
        levels[n] = grown
    return {n: [Polyomino(cells) for cells in sorted(shapes)] for n, shapes in levels.items()}


class IntervalGraph(NamedTuple):
    """The bipartite interval graph G_P of a polyomino; the one record of
    which intervals each vertex lies on.

    Its nodes are the maximal edge intervals, the horizontal ones first,
    each direction in row-major order of the intervals' first vertices
    (``maximal_edge_intervals`` lists one direction's); each vertex of P is
    an edge joining its horizontal interval to its vertical one, so two
    nodes share at most one edge.  adjacency[a] is the bitmask of node a's
    neighbours, rows[a] the ascending indices (``Polyomino.vertex_index``)
    of the vertices on node a, and ends[k] the pair (horizontal node,
    vertical node) that vertex k joins.
    """

    nodes: tuple[EdgeInterval, ...]
    adjacency: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    ends: tuple[tuple[int, int], ...]


def interval_graph(P: Polyomino) -> IntervalGraph:
    """G_P, built once per polyomino and kept on it, in one row-major sweep
    over ``P.vertices``.

    The unit edge from (x-1, y) to (x, y) lies in P iff cell (x-1, y) or
    (x-1, y-1) does; then (x-1, y) is the vertex just before (x, y) and
    (x, y) joins its horizontal node, else (x, y) starts a new one.  Likewise
    (x, y) joins the vertical node of (x, y-1), the last vertex seen in
    column x, iff cell (x, y-1) or (x-1, y-1) is in P.  Each direction's
    nodes are thus numbered in row-major order of their first vertices, and
    each node's vertex indices come in ascending order.
    """

    def build():
        cells, vertices = P.cells, P.vertices
        hrows, vrows = [], []
        hof, vof = [], []  # each vertex's horizontal and vertical node
        column = {}  # x -> the vertical node of the last vertex seen in column x
        for k, (x, y) in enumerate(vertices):
            if (x - 1, y) in cells or (x - 1, y - 1) in cells:
                h = hof[k - 1]
            else:
                h = len(hrows)
                hrows.append([])
            hrows[h].append(k)
            hof.append(h)
            if (x, y - 1) in cells or (x - 1, y - 1) in cells:
                a = column[x]
            else:
                a = column[x] = len(vrows)
                vrows.append([])
            vrows[a].append(k)
            vof.append(a)
        nodes = tuple(EdgeInterval(vertices[row[0]], vertices[row[-1]], d)
                      for d, rows in ((HORIZONTAL, hrows), (VERTICAL, vrows)) for row in rows)
        ends = tuple((h, len(hrows) + a) for h, a in zip(hof, vof))
        adjacency = [0] * len(nodes)
        for h, a in ends:
            adjacency[h] |= 1 << a
            adjacency[a] |= 1 << h
        return IntervalGraph(nodes, tuple(adjacency), tuple(map(tuple, hrows + vrows)), ends)

    return P.derived("interval_graph", build)


def _cycle_rank(P: Polyomino) -> int:
    """|V(P)| - |nodes of G_P| + 1, the cycle rank of the connected graph
    G_P: the rank of the admissible lattice (``ideals.is_balanced``), equal
    to |P| iff P is simple (``classify.is_simple``)."""
    return P.num_vertices - len(interval_graph(P).nodes) + 1


def maximal_edge_intervals(P: Polyomino, direction: str) -> list[EdgeInterval]:
    """Inclusion-maximal runs of unit edges of P in the given direction, in
    row-major order of their first vertices: the nodes of G_P
    (``interval_graph``) in that direction.  Every direction-d edge of
    every cell lies in exactly one of them."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    return [iv for iv in interval_graph(P).nodes if iv.direction == direction]


def inner_intervals(P: Polyomino) -> list[tuple[Point, Point]]:
    """All intervals [(i,j),(k,l)], i<k and j<l, whose cells all lie in P.

    Unit cells are included.  Sorted canonically by lower left then upper
    right corner.
    """
    cells = P.cells
    maxi = max(i for i, _ in cells) + 1
    maxj = max(j for _, j in cells) + 1
    out = []
    for j in range(maxj):
        for l in range(j + 1, maxj + 1):
            for i in range(maxi):
                for k in range(i + 1, maxi + 1):
                    if all(
                        (r, s) in cells
                        for s in range(j, l)
                        for r in range(i, k)
                    ):
                        out.append(((i, j), (k, l)))
    out.sort(key=lambda iv: (point_key(iv[0]), point_key(iv[1])))
    return out


def free_edge(P: Collection[Point], cell: Point) -> tuple[Point, Point] | None:
    """First edge of the cell (canonical order) whose two vertices belong to
    no other cell of P, or None."""
    for edge in cell_edges(cell):
        if not any(
            c != cell and c in P
            for x, y in edge
            for c in ((x - 1, y - 1), (x, y - 1), (x - 1, y), (x, y))
        ):
            return edge
    return None


def leaves(P: Collection[Point]) -> list[Leaf]:
    """Cells owning an edge whose two vertices touch no other cell, in
    row-major order.

    The witnessing edge is reported; for the one cell polyomino every edge
    qualifies and the canonically smallest one (the bottom edge) is reported.
    """
    return [Leaf(c, e) for c in sorted(P, key=point_key) if (e := free_edge(P, c)) is not None]


def maximal_cell_interval(P: Collection[Point], cell: Point, direction: str) -> CellInterval:
    """Longest run of consecutive cells of P through the cell, in direction."""
    if cell not in P:
        raise CellNotInPolyominoError(f"{cell} is not a cell of the polyomino")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    di, dj = (1, 0) if direction == HORIZONTAL else (0, 1)
    lo = cell
    while (lo[0] - di, lo[1] - dj) in P:
        lo = (lo[0] - di, lo[1] - dj)
    hi = cell
    while (hi[0] + di, hi[1] + dj) in P:
        hi = (hi[0] + di, hi[1] + dj)
    return CellInterval(lo, hi, direction)

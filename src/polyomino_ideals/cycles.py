"""Cycles in a polyomino and their squarefree binomials.

A cycle is a closed sequence of distinct vertices in which consecutive
vertices span alternating horizontal and vertical edge intervals of the
polyomino, the wrap-around included.  Cycles are kept in a canonical form:
start at the row-major least vertex and take its horizontal cycle edge
first, which pins down one representative per rotation/reflection class.

On the interval graph G_P (``grid.interval_graph``), where vertex k is the
edge joining its horizontal interval H(k) to its vertical one V(k), a cycle
v1 ... v2n is a closed trail: v1 leads from V(v1) to H(v1), v2 from there
to V(v2), and so on back to V(v1).  A primitive cycle, with at most two
vertices on each maximal edge interval, visits each node once: it is a
simple cycle of G_P.  Cycles stay tuples of vertex indices from search to
binomial; as ``Polyomino.vertex_index`` is row-major, the canonical form
starts at the least index.  One search (``_cycle_search``) finds closed
trails, simple cycles or chordless cycles, each once, in canonical form,
and ``extract_cycle`` canonicalizes the cycle it walks on G_P.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StepLimitExceededError, ZeroLabelingError
from .grid import Point, Polyomino, interval_graph
from .ideals import _admissible_labeling_vector
from .polynomials import Polynomial


@dataclass(frozen=True)
class Cycle:
    """Closed alternating vertex sequence; the first step is horizontal."""

    vertices: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.vertices)


def _cycle_search(P: Polyomino, limit: int | None = None, primitive: bool = False,
                  chordless: bool = False, step_limit: int | None = None,
                  ) -> list[tuple[int, ...]]:
    """Cycles of G_P as tuples of vertex indices, in canonical form.

    A cycle is found from its least edge k0: the walk leaves through H(k0),
    takes only edges above k0, and closes on arriving at V(k0), so its
    tuple starts at the least vertex with a horizontal step.  Three modes:
    - closed trails (the default): no edge twice; a closing records the
      cycle and the walk goes on, since a trail may pass V(k0) again;
    - primitive, the simple cycles: no node twice, and a closing stops;
    - chordless, with primitive: a node adjacent to an interior node (one
      of the path other than its end) would be a chord's end and is
      rejected; a node other than H(k0) adjacent to V(k0) may only close.
    limit bounds the vertices of a cycle; a simple cycle needs no bound, as
    it alternates between the h horizontal and v vertical nodes of G_P and
    so has at most 2 * min(h, v) vertices.  Each edge tried counts against
    step_limit, which ``is_balanced`` gives its chordless search; passing
    it raises StepLimitExceededError.  Found in order of k0, then depth
    first.
    """
    graph = interval_graph(P)
    rows, ends, adjacency = graph.rows, graph.ends, graph.adjacency
    limit = P.num_vertices if limit is None else limit
    budget = float("inf") if step_limit is None else step_limit
    found = []
    steps = 0

    def walk(node, side, path, used, avoid):
        # node is the walk's end; side is 1 there if node is horizontal,
        # so ends[k][side] is the far end of an edge k on it
        nonlocal steps
        if len(path) >= limit:
            return
        close_only = chordless and node != h0 and adjacency[v0] >> node & 1
        for k in rows[node]:
            if k <= k0 or used >> k & 1:
                continue
            steps += 1
            if steps > budget:
                raise StepLimitExceededError(
                    f"chordless-cycle search exceeded {step_limit} path extensions"
                )
            w = ends[k][side]
            if w == v0:
                found.append((*path, k))
                if primitive:
                    continue
            elif close_only or avoid >> w & 1:
                continue
            path.append(k)
            if primitive:
                blocked = adjacency[node] if chordless else 0
                walk(w, 1 - side, path, 0, avoid | 1 << w | blocked)
            else:
                walk(w, 1 - side, path, used | 1 << k, 0)
            path.pop()

    for k0, (h0, v0) in enumerate(ends):
        walk(h0, 1, [k0], 0, 1 << h0 if primitive else 0)
    return found


def enumerate_cycles(
    P: Polyomino,
    max_vertices: int | None = None,
    primitive_only: bool = False,
) -> list[Cycle]:
    """All cycles up to rotation/reflection, in canonical form, sorted by
    length, then row-major by vertices.

    They are the closed trails of G_P, or with primitive_only its simple
    cycles (``_cycle_search``); max_vertices, an even bound of at least 4,
    drops the longer ones.
    """
    if max_vertices is not None and (max_vertices < 4 or max_vertices % 2):
        raise ValueError("max_vertices must be an even bound, at least 4")
    found = _cycle_search(P, max_vertices, primitive_only)
    found.sort(key=lambda c: (len(c), c))  # row-major index order
    vertices = P.vertices
    return [Cycle(tuple(vertices[k] for k in c)) for c in found]


def _index_binomial(nvars: int, cycle) -> Polynomial:
    """The binomial of a cycle given as distinct vertex indices: the
    odd-position product minus the even-position product."""
    return Polynomial._binomial(nvars, cycle[::2], cycle[1::2])


def cycle_binomial(P: Polyomino, cycle: Cycle) -> Polynomial:
    """Odd-position product minus even-position product; both squarefree.
    A vertex outside V(P) or a repeated vertex raises ValueError."""
    idx = P.vertex_index
    for v in cycle.vertices:
        if v not in idx:
            raise ValueError(f"{v} is not a vertex of the polyomino")
    if len(set(cycle.vertices)) != len(cycle.vertices):
        raise ValueError("cycle vertices must be distinct")
    return _index_binomial(P.num_vertices, [idx[v] for v in cycle.vertices])


def extract_cycle(P: Polyomino, labeling: dict) -> Cycle:
    """Walk out a cycle from a nonzero admissible labeling.

    Starting at the least vertex with positive label, repeatedly move to the
    least opposite-signed vertex on the current node of G_P and leave
    through that vertex's other node, the horizontal node first; the first
    revisited vertex closes the cycle.  The closed tail is rotated to its
    least index and, if its first step is vertical (its first two vertices
    share no horizontal node), reversed after the first vertex.
    """
    vec = _admissible_labeling_vector(P, labeling)
    if not any(vec):
        raise ZeroLabelingError("cannot extract a cycle from the zero labeling")

    graph = interval_graph(P)
    rows, ends = graph.rows, graph.ends
    k = next(k for k, x in enumerate(vec) if x > 0)
    position = {k: 0}  # the walk, in order
    side = 0
    while True:
        sign = vec[k]
        k = next(j for j in rows[ends[k][side]] if vec[j] * sign < 0)
        if k in position:
            tail = list(position)[position[k]:]
            first = tail.index(min(tail))
            tail = tail[first:] + tail[:first]
            if ends[tail[0]][0] != ends[tail[1]][0]:
                tail[1:] = tail[:0:-1]
            return Cycle(tuple(P.vertices[j] for j in tail))
        position[k] = len(position)
        side ^= 1

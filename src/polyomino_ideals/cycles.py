"""Cycles in a polyomino and their squarefree binomials.

A cycle is a closed sequence of distinct vertices in which consecutive
vertices span alternating horizontal and vertical edge intervals of the
polyomino, the wrap-around included.  Cycles are kept in a canonical form:
start at the row-major least vertex and take its horizontal cycle edge
first, which pins down one representative per rotation/reflection class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAdmissibleError, ZeroLabelingError
from .grid import (
    HORIZONTAL,
    VERTICAL,
    Point,
    Polyomino,
    edge_interval_through,
    maximal_edge_intervals,
    point_key,
)
from .polynomials import Polynomial


@dataclass(frozen=True)
class Cycle:
    """Closed alternating vertex sequence; the first step is horizontal."""

    vertices: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.vertices)


def _step_direction(a: Point, b: Point) -> str:
    if a[1] == b[1] and a[0] != b[0]:
        return HORIZONTAL
    if a[0] == b[0] and a[1] != b[1]:
        return VERTICAL
    raise ValueError(f"{a} and {b} are not collinear")


def check_cycle(P: Polyomino, cycle: Cycle) -> None:
    """Raise ValueError unless the sequence satisfies all cycle conditions."""
    vs = cycle.vertices
    if len(vs) < 4 or len(vs) % 2:
        raise ValueError("a cycle has an even number of vertices, at least 4")
    if len(set(vs)) != len(vs):
        raise ValueError("cycle vertices must be distinct")
    for k, v in enumerate(vs):
        w = vs[(k + 1) % len(vs)]
        d = _step_direction(v, w)
        expected = HORIZONTAL if k % 2 == 0 else VERTICAL
        if d != expected:
            raise ValueError("cycle directions must alternate, starting horizontal")
        if w not in edge_interval_through(P, v, d).vertices():
            raise ValueError(f"[{v}, {w}] is not an edge interval of the polyomino")


def canonical_cycle(P: Polyomino, sequence) -> Cycle:
    """Canonicalize a closed alternating sequence (rotation/reflection)."""
    seq = list(sequence)
    start = min(range(len(seq)), key=lambda k: point_key(seq[k]))
    rotated = seq[start:] + seq[:start]
    if _step_direction(rotated[0], rotated[1]) != HORIZONTAL:
        rotated = [rotated[0]] + rotated[1:][::-1]
    cycle = Cycle(tuple(rotated))
    check_cycle(P, cycle)
    return cycle


def max_cycle_vertices(P: Polyomino) -> int:
    """Upper bound on primitive cycle length: two vertices per maximal
    interval means one step per interval in each direction."""
    h = len(maximal_edge_intervals(P, HORIZONTAL))
    v = len(maximal_edge_intervals(P, VERTICAL))
    return 2 * min(h, v)


def enumerate_cycles(
    P: Polyomino,
    max_vertices: int | None = None,
    primitive_only: bool = False,
) -> list[Cycle]:
    """All cycles up to rotation/reflection, in canonical form.

    The search starts each cycle at its least vertex with a horizontal first
    step, so every equivalence class is produced exactly once.  With
    primitive_only, any branch that would place a third vertex in one maximal
    edge interval is pruned.
    """
    if max_vertices is None:
        limit = len(P.vertices)
        if primitive_only:
            limit = min(limit, max_cycle_vertices(P))
    else:
        if max_vertices < 4 or max_vertices % 2:
            raise ValueError("max_vertices must be an even bound, at least 4")
        limit = max_vertices

    interval_of = P.interval_through
    out = []
    vertices = P.vertices  # already sorted row-major

    def extend(path, counts, direction):
        cur = path[-1]
        iv = interval_of[(cur, direction)]
        closing_ok = direction == VERTICAL and len(path) >= 4 and len(path) % 2 == 0
        for w in iv.vertices():
            if w == cur:
                continue
            if w == path[0]:
                if closing_ok:
                    out.append(Cycle(tuple(path)))
                continue
            if point_key(w) <= point_key(path[0]) or w in seen:
                continue
            if len(path) + 1 > limit:
                continue
            hkey = (interval_of[(w, HORIZONTAL)], HORIZONTAL)
            vkey = (interval_of[(w, VERTICAL)], VERTICAL)
            if primitive_only:
                if counts.get(hkey, 0) >= 2 or counts.get(vkey, 0) >= 2:
                    continue
            counts[hkey] = counts.get(hkey, 0) + 1
            counts[vkey] = counts.get(vkey, 0) + 1
            seen.add(w)
            path.append(w)
            extend(path, counts, VERTICAL if direction == HORIZONTAL else HORIZONTAL)
            path.pop()
            seen.remove(w)
            counts[hkey] -= 1
            counts[vkey] -= 1

    for v0 in vertices:
        seen = {v0}
        counts = {
            (interval_of[(v0, HORIZONTAL)], HORIZONTAL): 1,
            (interval_of[(v0, VERTICAL)], VERTICAL): 1,
        }
        extend([v0], counts, HORIZONTAL)

    out.sort(key=lambda c: (len(c), [point_key(v) for v in c.vertices]))
    return out


def cycle_binomial(P: Polyomino, cycle: Cycle) -> Polynomial:
    """Odd-position product minus even-position product; both squarefree."""
    idx = P.vertex_index
    n = P.num_vertices
    odd = [0] * n
    even = [0] * n
    for k, v in enumerate(cycle.vertices):
        (odd if k % 2 == 0 else even)[idx[v]] = 1
    return Polynomial({tuple(odd): 1, tuple(even): -1})


def extract_cycle(P: Polyomino, labeling: dict) -> Cycle:
    """Walk out a cycle from a nonzero admissible labeling.

    Starting at the least vertex with positive label, repeatedly move to the
    least opposite-signed vertex in the current maximal interval, alternating
    direction each step; the first revisited vertex closes the cycle and the
    closed tail is returned in canonical form.
    """
    from .ideals import is_admissible

    values = {pt: int(v) for pt, v in labeling.items() if v}
    if not values:
        raise ZeroLabelingError("cannot extract a cycle from the zero labeling")
    if not is_admissible(P, labeling):
        raise NotAdmissibleError("labeling does not sum to zero on all intervals")

    start = min((pt for pt, v in values.items() if v > 0), key=point_key)
    walk = [start]
    position = {start: 0}
    direction = HORIZONTAL
    while True:
        cur = walk[-1]
        want_negative = values[cur] > 0
        iv = edge_interval_through(P, cur, direction)
        candidates = [
            w
            for w in iv.vertices()
            if (values.get(w, 0) < 0) == want_negative and values.get(w, 0) != 0
        ]
        nxt = min(candidates, key=point_key)
        if nxt in position:
            tail = walk[position[nxt]:]
            return canonical_cycle(P, tail)
        position[nxt] = len(walk)
        walk.append(nxt)
        direction = VERTICAL if direction == HORIZONTAL else HORIZONTAL

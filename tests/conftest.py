"""Shared fixtures: the P1..P6 polyominoes, exhaustive small enumeration,
seeded class generators and independent brute-force oracles."""

from __future__ import annotations

import inspect
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, zip_longest
from math import comb, gcd
from operator import add, mul, neg

import pytest
from hypothesis import settings

from polyomino_ideals import (
    HORIZONTAL,
    VERTICAL,
    CellNotInPolyominoError,
    EdgeInterval,
    IdealGens,
    LatticeBasis,
    MonomialOrder,
    Polynomial,
    Polyomino,
    buchberger,
    canonical_order,
    cell_neighbors,
    cell_vertices,
    initial_ideal,
    inner_minors,
    is_tree_like,
    mono_mul,
    point_key,
    quotient_dimension,
)
from polyomino_ideals.grid import IntervalGraph, connected_components
from polyomino_ideals.groebner import s_polynomial
from polyomino_ideals.polynomials import mono_div

# Property tests replay the same examples on every run: tier-1 stays
# reproducible and writes no example database.
settings.register_profile(
    "polyideal", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("polyideal")

# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def P1():
    return Polyomino({(0, 0)})


@pytest.fixture(scope="session")
def P2():
    return Polyomino({(0, 0), (1, 0)})


@pytest.fixture(scope="session")
def P3():
    return Polyomino({(0, 0), (1, 0), (0, 1)})


@pytest.fixture(scope="session")
def P4():
    return Polyomino({(0, 0), (1, 0), (0, 1), (1, 1)})


@pytest.fixture(scope="session")
def P5():
    """3x3 frame with a hole at (1, 1)."""
    return Polyomino(
        {(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)}
    )


@pytest.fixture(scope="session")
def P6():
    """Staple: tree-like with one bad leaf at (0, 1)."""
    return Polyomino({(0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)})


@pytest.fixture(scope="session")
def fixtures(P1, P2, P3, P4, P5, P6):
    return {"P1": P1, "P2": P2, "P3": P3, "P4": P4, "P5": P5, "P6": P6}


def block(w: int, h: int) -> Polyomino:
    """The w x h block of cells, built fresh on each call."""
    return Polyomino((i, j) for i in range(w) for j in range(h))


def frame(w: int, h: int) -> Polyomino:
    """The boundary cells of the w x h block, built fresh on each call."""
    return Polyomino((i, j) for i in range(w) for j in range(h) if i in (0, w - 1) or j in (0, h - 1))


# ---------------------------------------------------------------------------
# watching the package from outside


def rebind(monkeypatch, fn, replacement) -> None:
    """Rebind fn to replacement in every ``polyomino_ideals`` module
    namespace that binds it, as ``install`` in bench/spans.py does, so calls
    made inside the package see it too; no namespace binding fn fails."""
    hits = [(module, attr) for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "polyomino_ideals"
            for attr, value in vars(module).items() if value is fn]
    assert hits, f"no polyomino_ideals namespace binds {fn.__module__}.{fn.__qualname__}"
    for module, attr in hits:
        monkeypatch.setattr(module, attr, replacement)


def record(monkeypatch, fn, note) -> list:
    """Rebind fn (``rebind``) to a pass-through that first appends
    note(call) for each call, call being its arguments by parameter name,
    defaults filled in; returns the list of notes."""
    signature = inspect.signature(fn)
    notes = []

    def recorded(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        notes.append(note(call.arguments))
        return fn(*args, **kwargs)

    rebind(monkeypatch, fn, recorded)
    return notes


# ---------------------------------------------------------------------------
# exhaustive enumeration up to translation

FIXED_POLYOMINO_COUNTS = {1: 1, 2: 2, 3: 6, 4: 19, 5: 63, 6: 216, 7: 760}


def enumerate_cellsets(max_cells: int) -> list[set[frozenset]]:
    """levels[n] = all n-cell polyominoes up to translation, as frozensets."""
    levels: list[set[frozenset]] = [set() for _ in range(max_cells + 1)]
    levels[1] = {frozenset({(0, 0)})}
    for n in range(1, max_cells):
        for p in levels[n]:
            boundary = {nb for cell in p for nb in cell_neighbors(cell)} - p
            for c in boundary:
                q = set(p)
                q.add(c)
                mini = min(i for i, _ in q)
                minj = min(j for _, j in q)
                levels[n + 1].add(frozenset((i - mini, j - minj) for i, j in q))
    return levels


def dihedral_images(cells) -> list[tuple]:
    """The eight images of a cell set under rotations and reflections, each
    translated to the origin and sorted; equal images repeat."""
    def normalized(cells):
        mi = min(i for i, _ in cells)
        mj = min(j for _, j in cells)
        return tuple(sorted((i - mi, j - mj) for i, j in cells))

    return [
        normalized(image)
        for a in (1, -1)
        for b in (1, -1)
        for image in ({(a * i, b * j) for i, j in cells}, {(a * j, b * i) for i, j in cells})
    ]


def free_cellsets(max_cells: int) -> set[tuple]:
    """One cell set per free polyomino: the least of its eight images."""
    return {
        min(dihedral_images(cells))
        for level in enumerate_cellsets(max_cells)
        for cells in level
    }


@pytest.fixture(scope="session")
def small_polyominoes():
    """All polyominoes with at most 7 cells, up to translation."""
    levels = enumerate_cellsets(7)
    for n, count in FIXED_POLYOMINO_COUNTS.items():
        assert len(levels[n]) == count, f"enumeration oracle broke at n={n}"
    return [Polyomino(p) for n in range(1, 8) for p in sorted(levels[n], key=sorted)]


# ---------------------------------------------------------------------------
# seeded random generators


def grow_polyomino(n: int, rng: random.Random) -> Polyomino:
    cells = {(0, 0)}
    while len(cells) < n:
        boundary = sorted(
            {nb for c in cells for nb in cell_neighbors(c)} - cells,
            key=lambda p: (p[1], p[0]),
        )
        cells.add(rng.choice(boundary))
    return Polyomino(cells)


def random_tree_like(max_cells: int, rng: random.Random) -> Polyomino:
    while True:
        P = grow_polyomino(rng.randint(1, max_cells), rng)
        if is_tree_like(P).tree_like:
            return P


def random_row_convex(max_cells: int, rng: random.Random) -> Polyomino:
    n = rng.randint(1, max_cells)
    widths = []
    remaining = n
    while remaining:
        take = rng.randint(1, remaining)
        widths.append(take)
        remaining -= take
    cells = set()
    prev = None
    for j, width in enumerate(widths):
        if prev is None:
            start = 0
        else:
            start = rng.randint(prev[0] - width + 1, prev[1])
        cells.update((start + k, j) for k in range(width))
        prev = (start, start + width - 1)
    return Polyomino(cells)


def random_column_convex(max_cells: int, rng: random.Random) -> Polyomino:
    P = random_row_convex(max_cells, rng)
    return Polyomino({(j, i) for i, j in P.cells})


# ---------------------------------------------------------------------------
# helpers only the tests and their oracles use


def cell_degree(P: Polyomino, cell) -> int:
    """Number of cells of P sharing a full edge with the given cell."""
    if cell not in P.cells:
        raise CellNotInPolyominoError(f"{cell} is not a cell of the polyomino")
    return sum(1 for nb in cell_neighbors(cell) if nb in P.cells)


def cell_vector(P: Polyomino, cell) -> tuple[int, ...]:
    """The vector e_ll + e_ur - e_lr - e_ul of a cell, in vertex coordinates."""
    i, j = cell
    idx = P.vertex_index
    v = [0] * P.num_vertices
    v[idx[(i, j)]] = 1
    v[idx[(i + 1, j + 1)]] = 1
    v[idx[(i + 1, j)]] = -1
    v[idx[(i, j + 1)]] = -1
    return tuple(v)


def cell_lattice_basis(P: Polyomino) -> LatticeBasis:
    """One cell vector per cell, in row-major cell order."""
    return LatticeBasis(tuple(cell_vector(P, c) for c in P.cells_sorted), P.num_vertices)


def admissible_matrix(P: Polyomino) -> list[list[int]]:
    """0/1 incidence of maximal edge intervals (rows) versus vertices, the
    horizontal intervals first, each direction in row-major order; the rows
    come from the walked runs (``interval_graph_from_runs``)."""
    rows = []
    for ks in interval_graph_from_runs(P).rows:
        row = [0] * P.num_vertices
        for k in ks:
            row[k] = 1
        rows.append(row)
    return rows


def vector_labeling(P: Polyomino, vec) -> dict:
    """Sparse labeling of a dense vector of length |V(P)|; every entry must
    be an int."""
    if len(vec) != P.num_vertices:
        raise ValueError(f"vector of length {len(vec)}, not |V(P)| = {P.num_vertices}")
    for pt, value in zip(P.vertices, vec):
        if type(value) is not int:
            raise ValueError(f"label of vertex {pt} is {value!r}, not an integer")
    return {P.vertices[k]: v for k, v in enumerate(vec) if v}


def is_pure_difference(p: Polynomial) -> bool:
    """True when p is a difference of two monomials with coefficients +1, -1."""
    if len(p.terms) != 2:
        return False
    return sorted(Fraction(c) for c in p.terms.values()) == [Fraction(-1), Fraction(1)]


def mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# independent oracles


def monomial(mono, coeff=1) -> Polynomial:
    """coeff * x^mono; the zero polynomial when coeff is 0."""
    return Polynomial({mono: coeff})


def point_leq(a, b) -> bool:
    """Componentwise partial order on grid points."""
    return a[0] <= b[0] and a[1] <= b[1]


def mat_mul(A, B) -> list[list[int]]:
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def int_det(mat) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    M = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if M[i][k]), None)
            if pivot is None:
                return 0
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def invariant_factors_by_minors(mat) -> tuple[int, ...]:
    """Nonzero invariant factors from the determinantal divisors: Delta_k,
    the gcd of all k x k minors, is d_1 * ... * d_k."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    factors, prev = [], 1
    for k in range(1, min(m, n) + 1):
        delta = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                delta = gcd(delta, int_det([[mat[i][j] for j in cols] for i in rows]))
        if delta == 0:
            break
        factors.append(delta // prev)
        prev = delta
    return tuple(factors)


def cell_graph(P: Polyomino) -> list[tuple[int, int]]:
    """Edges between cells sharing a full edge, on row-major cell indices."""
    index = {c: k for k, c in enumerate(sorted(P.cells, key=lambda c: (c[1], c[0])))}
    return sorted(
        (index[c], index[nb])
        for c in index
        for nb in cell_neighbors(c)
        if nb in index and index[c] < index[nb]
    )


def vertex_count_inclusion_exclusion(P: Polyomino) -> int:
    """|V(P)| by inclusion-exclusion over the cells' vertex sets."""
    cells = sorted(P.cells)
    total = 0
    for r in range(1, len(cells) + 1):
        for comb in combinations(cells, r):
            inter = set(cell_vertices(comb[0]))
            for c in comb[1:]:
                inter &= set(cell_vertices(c))
            total += (-1) ** (r + 1) * len(inter)
    return total


def rational_rank(matrix) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    M = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(M[0]) if M else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = 1 / M[rank][c]
        M[rank] = [x * inv for x in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def brute_quotient_dimension(monomials, nvars: int) -> int:
    """Max size of a variable subset containing no generator support,
    by brute force over all subsets."""
    supports = [frozenset(v for v, e in enumerate(m) if e) for m in monomials]
    best = 0
    for mask in range(1 << nvars):
        subset = {v for v in range(nvars) if mask >> v & 1}
        if all(not s <= subset for s in supports):
            best = max(best, len(subset))
    return best


def canonical_dimension(P: Polyomino) -> int:
    """Krull dimension of S/I_P from the leads of the inner minors' reduced
    basis under the canonical order: a route that shares no saturation run
    with ``dimension``."""
    order = canonical_order(P.num_vertices)
    leads = initial_ideal(buchberger(inner_minors(P), order), order)
    return quotient_dimension(leads, P.num_vertices)


def face_counts(nonfaces, nvars: int) -> list[int]:
    """Faces by size of the simplicial complex on nvars vertices whose
    minimal nonfaces are the given bitmasks: the variable sets holding no
    nonface.  Branches on the vertex in the most nonfaces, memoized on the
    nonfaces left and the vertices left."""

    @lru_cache(maxsize=None)
    def count(edges: frozenset, free: int) -> tuple:
        if not edges:
            k = free.bit_count()
            return tuple(comb(k, i) for i in range(k + 1))
        v = max(range(nvars), key=lambda w: (sum(e >> w & 1 for e in edges), -w))
        bit = 1 << v
        without = count(frozenset(e for e in edges if not e & bit), free & ~bit)
        if bit in edges:  # v alone is a nonface
            return without
        shrunk = {e & ~bit for e in edges}
        minimal = frozenset(e for e in shrunk if not any(f != e and f & e == f for f in shrunk))
        with_v = (0,) + count(minimal, free & ~bit)
        return tuple(map(sum, zip_longest(without, with_v, fillvalue=0)))

    return list(count(frozenset(nonfaces), (1 << nvars) - 1))


def h_polynomial(faces: list[int]) -> list[int]:
    """h-vector from faces by size: h(t) = sum_i f_i t^i (1 - t)^(d - i),
    d the largest face size."""
    d = len(faces) - 1
    h = [0] * (d + 1)
    for i, f in enumerate(faces):
        for j in range(d - i + 1):
            h[i + j] += f * comb(d - i, j) * (-1) ** j
    while len(h) > 1 and not h[-1]:
        h.pop()
    return h


def rook_polynomial(cells) -> list[int]:
    """r_k, the ways to put k rooks on cells with no two attacking, by brute
    force: two rooks attack when they share a row or a column and every
    cell between them is a cell too."""
    cells = sorted(cells)
    cellset = set(cells)

    def attack(a, b):
        for t in (0, 1):
            if a[1 - t] == b[1 - t]:
                lo, hi = sorted((a[t], b[t]))
                return all(((x, a[1]) if t == 0 else (a[0], x)) in cellset
                           for x in range(lo, hi + 1))
        return False

    counts = [0] * (len(cells) + 1)
    for mask in range(1 << len(cells)):
        chosen = [c for k, c in enumerate(cells) if mask >> k & 1]
        if not any(attack(a, b) for a, b in combinations(chosen, 2)):
            counts[len(chosen)] += 1
    while len(counts) > 1 and not counts[-1]:
        counts.pop()
    return counts


def leaf_cells(cells) -> list:
    """Cells owning an edge whose two vertices belong to no other cell."""
    owners: dict = {}
    for c in cells:
        for v in cell_vertices(c):
            owners[v] = owners.get(v, 0) + 1
    out = []
    for i, j in sorted(cells):
        ring = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
        if any(owners[ring[k]] == 1 == owners[ring[k - 1]] for k in range(4)):
            out.append((i, j))
    return out


def tree_like_oracle(P: Polyomino) -> frozenset | None:
    """The largest leafless connected subset of P's cells, or None when every
    connected subset has a leaf (P is tree-like); checks every subset, the
    largest first."""
    cells = sorted(P.cells)
    for r in range(len(cells), 1, -1):
        for subset in combinations(cells, r):
            if not leaf_cells(subset) and len(connected_components(subset)) == 1:
                return frozenset(subset)
    return None


def random_peel(P: Polyomino, rng: random.Random) -> frozenset | None:
    """Remove leaves chosen at random; the cells left when none is a leaf, or
    None once one cell remains."""
    cells = set(P.cells)
    while len(cells) > 1:
        found = leaf_cells(cells)
        if not found:
            return frozenset(cells)
        cells.remove(rng.choice(found))
    return None


def rescan_peel(P: Polyomino):
    """The leaf-peeling chain rebuilt from scratch at every step: ``leaves``
    of the whole remaining cell set, the smallest good leaf, else the
    smallest leaf.  Oracle for the incremental ``classify._peel``."""
    from polyomino_ideals.classify import _leaf_site, _PeelStep
    from polyomino_ideals.grid import HORIZONTAL, leaves

    steps = []
    cells = set(P.cells)
    while found := leaves(cells):
        sites = [(lf.cell, lf.free_edge, *_leaf_site(cells, *lf)) for lf in found]
        cell, e, interval, a2 = next((s for s in sites if s[3] is not None), sites[0])
        if a2 is None:
            edge = ()
        elif interval.direction == HORIZONTAL:
            edge = tuple((x, a2[1]) for x in range(interval.start[0], interval.end[0] + 2))
        else:
            edge = tuple((a2[0], y) for y in range(interval.start[1], interval.end[1] + 2))
        steps.append(_PeelStep(cell, e[1] if a2 == e[0] else e[0], a2, interval.direction, edge))
        if len(cells) == 1:
            break
        cells.remove(cell)
    return tuple(steps), None if found else frozenset(cells)


def rebuild_certify(plan, vec) -> list:
    """The tree-like certificate with every multiplier rebuilt from the
    labels and cofactors, and the option found by a scan.  Oracle for the
    running multiplier of ``certificates._certify``."""
    vals = list(vec)
    cert = []
    sign = 1
    cofactor = [0] * len(vals)
    for a1, a2, options in plan:
        while vals[a1]:
            if vals[a1] < 0:
                sign = -sign
                vals = [-v for v in vals]
            c, d, step_sign, minor = next(o for o in options if vals[o[0]] > 0)
            shift = [v + e if v > 0 else e for v, e in zip(vals, cofactor)]
            shift[a1] -= 1
            shift[c] -= 1
            cert.append((monomial(tuple(shift), sign * step_sign), minor))
            for v in (a2, d):
                if vals[v] < 0:
                    cofactor[v] += 1
                vals[v] += 1
            vals[a1] -= 1
            vals[c] -= 1
    assert not any(vals)
    return cert


def unit_edges(cells) -> set:
    """Every unit edge of the cells, as its (lower, upper) vertex pair."""
    out = set()
    for i, j in cells:
        out |= {((i, j), (i + 1, j)), ((i, j), (i, j + 1)),
                ((i + 1, j), (i + 1, j + 1)), ((i, j + 1), (i + 1, j + 1))}
    return out


def good_leaf_runs(cells, leaf) -> dict:
    """The paper's good-leaf test on a raw cell set, by walking runs.

    Take the leaf's maximal cell interval toward its one neighbor (vertical
    for a single cell) and, for each free vertex v of the leaf (a vertex of
    no other cell), the maximal run of unit edges through v in that
    direction.  Returns {v: the run's vertices, in increasing order} for the
    free vertices whose run has as many edges as the interval has cells;
    the leaf is good iff this is nonempty.
    """
    cells = set(cells)
    (nb,) = [c for c in cell_neighbors(leaf) if c in cells] or [(leaf[0], leaf[1] + 1)]
    step = (abs(nb[0] - leaf[0]), abs(nb[1] - leaf[1]))

    def shift(p, k):
        return (p[0] + k * step[0], p[1] + k * step[1])

    length = 1
    for sign in (1, -1):
        k = 1
        while shift(leaf, sign * k) in cells:
            length, k = length + 1, k + 1
    edges = unit_edges(cells)
    others = {v for c in cells - {leaf} for v in cell_vertices(c)}
    runs = {}
    for v in cell_vertices(leaf):
        if v in others:
            continue
        lo = v
        while (shift(lo, -1), lo) in edges:
            lo = shift(lo, -1)
        run = [lo]
        while (run[-1], shift(run[-1], 1)) in edges:
            run.append(shift(run[-1], 1))
        if len(run) - 1 == length:
            runs[v] = tuple(run)
    return runs


def chordless_cycles_brute(cells) -> set:
    """The chordless cycles of the interval graph of a cell set, each as the
    set of its edges, which are vertices of the cells.

    A node is a maximal run of unit edges in one direction, named by its
    lowest vertex; a vertex joins its horizontal run to its vertical one.
    Every set of nodes is tried: it spans a chordless cycle iff the vertices
    with both runs in it give each node two edges and connect it.
    """
    edges = unit_edges(cells)
    vertices = {v for c in cells for v in cell_vertices(c)}

    def run(v, di, dj):
        while ((v[0] - di, v[1] - dj), v) in edges:
            v = (v[0] - di, v[1] - dj)
        return (di, v)

    ends = {v: (run(v, 1, 0), run(v, 0, 1)) for v in vertices}
    nodes = sorted({node for pair in ends.values() for node in pair})
    out = set()
    for mask in range(1, 1 << len(nodes)):
        chosen = {node for k, node in enumerate(nodes) if mask >> k & 1}
        if len(chosen) < 3:
            continue
        cycle = [v for v, (h, w) in ends.items() if h in chosen and w in chosen]
        degree = {node: 0 for node in chosen}
        for v in cycle:
            for node in ends[v]:
                degree[node] += 1
        if len(cycle) != len(chosen) or set(degree.values()) != {2}:
            continue
        reached, frontier = set(), [next(iter(chosen))]
        while frontier:
            node = frontier.pop()
            if node not in reached:
                reached.add(node)
                frontier.extend(x for v in cycle if node in ends[v] for x in ends[v])
        if reached == chosen:
            out.add(frozenset(cycle))
    return out


def edge_runs(cells, direction) -> list:
    """The maximal runs of unit edges of the cells in one direction, as
    ``EdgeInterval``s in row-major order of their first vertices, found by
    walking each vertex's run along ``unit_edges`` as
    ``chordless_cycles_brute`` does."""
    edges = unit_edges(cells)
    di, dj = (1, 0) if direction == HORIZONTAL else (0, 1)
    runs = set()
    for v in {v for c in cells for v in cell_vertices(c)}:
        lo = hi = v
        while ((lo[0] - di, lo[1] - dj), lo) in edges:
            lo = (lo[0] - di, lo[1] - dj)
        while (hi, (hi[0] + di, hi[1] + dj)) in edges:
            hi = (hi[0] + di, hi[1] + dj)
        runs.add(EdgeInterval(lo, hi, direction))
    return sorted(runs, key=lambda iv: point_key(iv.start))


def interval_table(P: Polyomino) -> dict:
    """For each vertex and direction, the maximal edge interval through it,
    read off the walked runs (``edge_runs``) rather than the interval graph."""
    return {
        (v, direction): iv
        for direction in (HORIZONTAL, VERTICAL)
        for iv in edge_runs(P.cells, direction)
        for v in iv.vertices()
    }


def interval_graph_from_runs(P: Polyomino) -> IntervalGraph:
    """G_P assembled from the walked runs (``edge_runs``), the horizontal
    runs first, rather than from the engine's one-sweep build."""
    horizontal = edge_runs(P.cells, HORIZONTAL)
    nodes = (*horizontal, *edge_runs(P.cells, VERTICAL))
    idx = P.vertex_index
    rows = tuple(tuple(idx[v] for v in iv.vertices()) for iv in nodes)
    ends = [[0, 0] for _ in range(P.num_vertices)]
    for a, row in enumerate(rows):
        side = int(a >= len(horizontal))
        for k in row:
            ends[k][side] = a
    adjacency = [0] * len(nodes)
    for a, b in ends:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    return IntervalGraph(nodes, tuple(adjacency), rows, tuple(map(tuple, ends)))


def flood_fill_simple(cells) -> tuple[bool, tuple | None]:
    """(simple, hole) by flood-filling the complement inside a one-cell
    padded bounding box: every box cell outside P that the padding corner
    (-1, -1) cannot reach is a hole, and the row-major smallest is reported."""
    cells = set(cells)
    maxi, maxj = max(i for i, _ in cells), max(j for _, j in cells)
    box = {(i, j) for i in range(-1, maxi + 2) for j in range(-1, maxj + 2)} - cells
    reached, frontier = {(-1, -1)}, [(-1, -1)]
    while frontier:
        for nb in cell_neighbors(frontier.pop()):
            if nb in box and nb not in reached:
                reached.add(nb)
                frontier.append(nb)
    holes = box - reached
    return (False, min(holes, key=point_key)) if holes else (True, None)


def assert_cycle(P: Polyomino, vertices) -> None:
    """Assert the cycle conditions: an even number, at least 4, of distinct
    vertices of P, each consecutive pair (the wrap-around included) on one
    maximal edge interval, the steps alternating, the first horizontal."""
    table = interval_table(P)
    assert len(vertices) >= 4 and len(vertices) % 2 == 0, vertices
    assert len(set(vertices)) == len(vertices), vertices
    for k, v in enumerate(vertices):
        w = vertices[(k + 1) % len(vertices)]
        key = (v, HORIZONTAL if k % 2 == 0 else VERTICAL)
        assert key in table and w != v and w in table[key].vertices(), (vertices, k)


def walk_cycles(P: Polyomino, max_vertices=None, primitive_only=False) -> list:
    """``enumerate_cycles`` as vertex tuples, by walking points: from each
    vertex v0, alternate horizontal and vertical steps along P's maximal
    edge intervals through vertices after v0, close on v0's vertical
    interval, and with primitive_only count the vertices per interval and
    prune a third."""
    through = interval_table(P)
    limit = len(P.vertices) if max_vertices is None else max_vertices
    out = []

    def extend(path, seen, counts, direction):
        cur = path[-1]
        for w in through[(cur, direction)].vertices():
            if w == cur:
                continue
            if w == path[0]:
                if direction == VERTICAL and len(path) >= 4:
                    out.append(tuple(path))
                continue
            if point_key(w) <= point_key(path[0]) or w in seen or len(path) + 1 > limit:
                continue
            keys = [through[(w, HORIZONTAL)], through[(w, VERTICAL)]]
            if primitive_only and any(counts.get(key, 0) >= 2 for key in keys):
                continue
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
            path.append(w)
            extend(path, seen | {w}, counts, VERTICAL if direction == HORIZONTAL else HORIZONTAL)
            path.pop()
            for key in keys:
                counts[key] -= 1

    for v0 in P.vertices:
        extend([v0], {v0}, {through[(v0, HORIZONTAL)]: 1, through[(v0, VERTICAL)]: 1}, HORIZONTAL)
    out.sort(key=lambda c: (len(c), [point_key(v) for v in c]))
    return out


def walk_extract_cycle(P: Polyomino, labeling: dict) -> tuple:
    """``extract_cycle``'s vertices for an admissible nonzero labeling, by
    walking points: from the least positive vertex, step to the least
    opposite-signed vertex of the current maximal edge interval, the
    horizontal one first, until a vertex repeats; the repeated tail is
    rotated to its least vertex and turned to step horizontally first."""
    through = interval_table(P)
    values = {pt: v for pt, v in labeling.items() if v}
    walk = [min((pt for pt, v in values.items() if v > 0), key=point_key)]
    direction = HORIZONTAL
    while True:
        cur = walk[-1]
        nxt = min(
            (w for w in through[(cur, direction)].vertices()
             if values.get(w, 0) * values[cur] < 0),
            key=point_key,
        )
        if nxt in walk:
            tail = walk[walk.index(nxt):]
            start = min(range(len(tail)), key=lambda k: point_key(tail[k]))
            tail = tail[start:] + tail[:start]
            if tail[0][1] != tail[1][1]:  # first step vertical: reverse
                tail = [tail[0]] + tail[1:][::-1]
            return tuple(tail)
        walk.append(nxt)
        direction = VERTICAL if direction == HORIZONTAL else HORIZONTAL


def euler_simple(cells) -> bool:
    """Simple iff the Euler characteristic |V| - |unit edges| + |cells| of
    the connected cell complex is 1: every hole lowers it by one."""
    vertices = {v for c in cells for v in cell_vertices(c)}
    return len(vertices) - len(unit_edges(cells)) + len(cells) == 1


def random_admissible_labeling(P, basis, rng: random.Random, bound: int = 3) -> dict:
    """Nonzero integer combination of admissible kernel basis vectors, with
    coefficients in [-bound, bound]."""
    n = P.num_vertices
    while True:
        vec = [0] * n
        for row in basis.vectors:
            c = rng.randint(-bound, bound)
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        if any(vec):
            return {P.vertices[k]: v for k, v in enumerate(vec) if v}


def reference_order_key(order, m) -> tuple:
    """m's dot products with the rows of the order's weight matrix (Robbiano,
    EUROCAL 1985), which must compare as ``order.compare`` does.  lex takes
    the unit rows e_perm[0], e_perm[1], ...; deglex puts the all-ones row in
    front of them; degrevlex puts it in front of -e_perm[-1], -e_perm[-2],
    ...; a weight vector goes first."""
    n = order.nvars
    unit = [tuple(int(w == v) for w in range(n)) for v in range(n)]
    if order.scheme == "lex":
        rows = [unit[v] for v in order.perm]
    elif order.scheme == "deglex":
        rows = [(1,) * n, *(unit[v] for v in order.perm)]
    else:
        rows = [(1,) * n, *(tuple(map(neg, unit[v])) for v in reversed(order.perm))]
    if order.weights is not None:
        rows.insert(0, order.weights)
    return tuple(sum(map(mul, row, m)) for row in rows)


def saturate_by_elimination(F: IdealGens, variables) -> IdealGens:
    """F : (prod of x_v)^inf by one auxiliary variable w: a Groebner basis of
    F + (w * prod(x_v) - 1) under an order eliminating w, intersected with
    the original variables.  Needs no homogeneity."""
    n = F.nvars
    ext = [Polynomial({m + (0,): c for m, c in g.terms.items()}) for g in F]
    prod = [0] * (n + 1)
    for v in set(variables):
        prod[v] = 1
    prod[n] = 1
    ext.append(Polynomial({tuple(prod): 1, (0,) * (n + 1): -1}))
    # deglex after a weight on w alone: an elimination order for w
    gb = buchberger(ext, MonomialOrder("deglex", n + 1, weights=(0,) * n + (1,)))
    kept = [
        Polynomial({m[:n]: c for m, c in g.terms.items()})
        for g in gb
        if all(m[n] == 0 for m in g.terms)
    ]
    return IdealGens(tuple(kept), n)


def reference_normal_form(f: Polynomial, basis, order) -> Polynomial:
    """Remainder of f under full division by the listed polynomials, over the
    rationals and with no binomial shortcut.

    Deterministic: always reduces the currently largest term, by the first
    listed divisor whose leading monomial divides it.
    """
    if not basis:
        return f
    lts = [(g.leading(order), g) for g in basis]
    key = order.key
    work = dict(f.terms)
    out: dict = {}
    while work:
        t = max(work, key=key)
        c = work[t]
        for (lm, lc), g in lts:
            if mono_divides(lm, t):
                factor = Fraction(c) / lc
                for mg, cg in g.terms.items():
                    m2 = mono_mul(mono_div(t, lm), mg)
                    v = work.get(m2, 0) - factor * cg
                    if v:
                        work[m2] = v
                    else:
                        work.pop(m2, None)
                break
        else:
            out[t] = c
            del work[t]
    return Polynomial(out)


def first_divisor(basis, m, start: int = 0):
    """The index of the first lead of a ``groebner._BinomialBasis`` from
    start on that divides m, else None, by a linear scan: the lead's cached
    support mask must lie inside m's support, and its exponents above 1
    must not exceed m's."""
    outside = ~sum(1 << v for v, e in enumerate(m) if e)
    for k in range(start, len(basis.masks)):
        if not basis.masks[k] & outside and all(m[v] >= e for v, e in basis.powers[k]):
            return k
    return None


def reference_standard(basis, m) -> tuple:
    """The standard monomial of m modulo a ``groebner._BinomialBasis`` by
    ``first_divisor``, rewriting m by the first listed lead dividing it
    until none does, and the indices of the leads it rewrote by, in turn."""
    steps = []
    while (k := first_divisor(basis, m)) is not None:
        steps.append(k)
        m = tuple(map(add, m, basis.shifts[k]))
    return m, steps


def reference_reduce_groebner_basis(basis, order) -> list[Polynomial]:
    """Minimalize and tail-reduce a Groebner basis by ``reference_normal_form``;
    monic, sorted ascending by leading monomial."""
    key = order.key
    monic = sorted((g.monic(order) for g in basis if g), key=lambda g: key(g.leading(order)[0]))
    kept: list[Polynomial] = []
    for g in monic:
        lm = g.leading(order)[0]
        if not any(mono_divides(h.leading(order)[0], lm) for h in kept):
            kept.append(g)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = kept[:idx] + kept[idx + 1 :]
            r = reference_normal_form(kept[idx], others, order).monic(order)
            if r != kept[idx]:
                kept[idx] = r
                changed = True
    kept.sort(key=lambda g: key(g.leading(order)[0]))
    return kept


def spair_sweep(candidates, order) -> bool:
    """Buchberger's criterion, pair by pair: every S-polynomial of the
    candidates reduces to zero against them under the order."""
    return all(
        not reference_normal_form(s_polynomial(f, g, order), candidates, order)
        for f, g in combinations(candidates, 2)
    )

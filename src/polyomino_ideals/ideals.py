"""Polyomino ideals: inner minors, labelings, lattices, balanced and prime.

The ideal I_P of a polyomino is generated by one pure-difference binomial
per inner interval.  Integer labelings of the vertices that sum to zero on
every maximal edge interval (``grid``'s "admissible" labelings) are exactly the
integer kernel of the interval incidence matrix; the ideal J_P generated by
all their binomials is the lattice ideal of that kernel.  That matrix is
the incidence matrix of the bipartite interval graph G_P
(``grid.interval_graph``).  Negating its vertical rows gives a directed
incidence matrix with the same kernel, so the admissible labelings are the
integer circulations on G_P, and the fundamental cycles of a spanning tree
are an integral basis of them: ``admissible_lattice`` needs no kernel
computation.  A polyomino is balanced when the two ideals agree.  J_P is
the toric ideal of G_P, so its chordless cycles generate it, and a
chordless 4-cycle on an inner interval gives that interval's minor: P is
balanced once the kernel has rank |P| and every chordless cycle is such a
4-cycle (the chain of theorems is in ``is_balanced``).  At that rank
primality is balancedness and the dimension is |V(P)| - |P|.  Only shapes
of another rank saturate the minors, and ``is_prime`` stops at the first
saturation run that divides a basis element: that run already shows I_P
is not prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt

from .cycles import _cycle_search, _index_binomial, enumerate_cycles
from .errors import NotBalancedError, ZeroLabelingError
from .grid import (
    Labeling,
    Point,
    Polyomino,
    _cycle_rank,
    _symmetries,
    inner_intervals,
    interval_graph,
    labeling_vector,
)
from .groebner import (
    _BinomialBasis,
    _binomial_form,
    _resolve_step_limit,
    _saturation_runs,
    buchberger,
    is_squarefree,
    quotient_dimension,
    saturate,
)
from .intlinalg import LatticeBasis
from .orders import _keyed_once
from .polynomials import IdealGens, Polynomial

def inner_minor(P: Polyomino, interval: tuple[Point, Point]) -> Polynomial:
    """The 2-minor of an inner interval: diagonal minus antidiagonal.

    An interval ((i, j), (k, l)) that is not inner raises ValueError: one
    with i >= k or j >= l, a corner outside V(P), or a cell of
    [i, k) x [j, l) outside P.
    """
    (i, j), (k, l) = interval
    if i >= k or j >= l:
        raise ValueError(f"{interval} is not an interval: it needs i < k and j < l")
    idx = P.vertex_index
    for corner in ((i, j), (k, l), (i, l), (k, j)):
        if corner not in idx:
            raise ValueError(f"{interval} is not inner: corner {corner} is not a vertex of P")
    for cell in ((r, t) for r in range(i, k) for t in range(j, l)):
        if cell not in P.cells:
            raise ValueError(f"{interval} is not inner: cell {cell} is not in P")
    return _minor(P, interval)


def _minor(P: Polyomino, interval: tuple[Point, Point]) -> Polynomial:
    """``inner_minor`` of an interval already known to be inner."""
    (i, j), (k, l) = interval
    idx = P.vertex_index
    return Polynomial._binomial(P.num_vertices, (idx[(i, j)], idx[(k, l)]),
                                (idx[(i, l)], idx[(k, j)]))


def inner_minors(P: Polyomino) -> IdealGens:
    """Generators of the polyomino ideal, one per inner interval."""
    return IdealGens(
        tuple(_minor(P, iv) for iv in inner_intervals(P)),
        P.num_vertices,
    )


def vector_binomial(vec) -> Polynomial:
    """x^(positive part) - x^(negative part) of a vector of ints, else ValueError."""
    if any(type(x) is not int for x in vec):  # a bool, though an int subclass, too
        raise ValueError(f"vector {vec!r} has an entry that is not an integer")
    if not any(vec):
        raise ZeroLabelingError("the zero labeling has no binomial")
    pos = tuple(x if x > 0 else 0 for x in vec)
    neg = tuple(-x if x < 0 else 0 for x in vec)
    return Polynomial({pos: 1, neg: -1})


def labeling_binomial(P: Polyomino, labeling: Labeling) -> Polynomial:
    """The pure-difference binomial of a nonzero labeling."""
    return vector_binomial(labeling_vector(P, labeling))


def admissible_lattice(P: Polyomino) -> LatticeBasis:
    """Saturated integer kernel of the admissible constraint matrix, as the
    rows of its Hermite normal form, read off a spanning tree of G_P.

    Negating the vertical rows of the incidence matrix of G_P keeps its
    kernel and makes each vertex an arc from its horizontal node to its
    vertical one: the kernel is the lattice of integer circulations on
    G_P, and the fundamental cycles of a spanning tree are an integral
    basis of it.  The cycle of an arc k off the tree
    is +1 at k plus the tree path from k's vertical node back to its
    horizontal one, +1 on an arc crossed forward and -1 backward.

    The tree is Kruskal's, adding arcs from the highest index down, and
    its fundamental cycles, in ascending order of k, are already the
    Hermite form:
    - a column set J is a basis of the lattice's column matroid iff its
      complement is a spanning tree: a circulation that vanishes on J lives
      on the complement, which must then be acyclic;
    - the Hermite form's pivot columns are the greedy, leftmost such J, so
      by matroid duality its complement is the tree Kruskal builds from the
      highest index down;
    - for each k in J, the fundamental cycle of k is +1 at k and 0 on the
      rest of J, and so is the reduced-row-echelon row with pivot k; their
      difference vanishes on J, so it lives on the tree, so it is 0;
    - so the rows are integral, have pivots 1 and are zero above each
      pivot; the lattice is saturated, so these rows are its unique
      Hermite form.
    """
    G = interval_graph(P)
    ends = G.ends
    root = list(range(len(G.nodes)))  # union-find over the nodes

    def find(a):
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    tree = set()
    for k in range(P.num_vertices - 1, -1, -1):
        a, b = find(ends[k][0]), find(ends[k][1])
        if a != b:
            root[a] = b
            tree.add(k)
    parent_arc = {0: None}
    depth = [0] * len(G.nodes)
    queue = [0]
    for a in queue:
        for k in G.rows[a]:
            b = ends[k][0] + ends[k][1] - a
            if k in tree and b not in parent_arc:
                parent_arc[b] = k
                depth[b] = depth[a] + 1
                queue.append(b)
    rows = []
    for k in range(P.num_vertices):
        if k in tree:
            continue
        row = [0] * P.num_vertices
        row[k] = 1
        x, y = ends[k][1], ends[k][0]  # the path runs from x up and down to y
        while x != y:
            if depth[x] >= depth[y]:
                t = parent_arc[x]
                row[t] = 1 if ends[t][0] == x else -1
                x = ends[t][0] + ends[t][1] - x
            else:
                t = parent_arc[y]
                row[t] = -1 if ends[t][0] == y else 1
                y = ends[t][0] + ends[t][1] - y
        rows.append(tuple(row))
    return LatticeBasis(tuple(rows), P.num_vertices)


def lattice_ideal(P: Polyomino, basis: LatticeBasis,
                  step_limit: int | None = None) -> IdealGens:
    """Generators of the full lattice ideal of the given basis.

    Computed as the saturation of the basis binomials by all variables, which
    yields the whole lattice ideal for any lattice basis.  The saturation
    runs one variable at a time on the binomial Groebner engine and skips
    every variable already proven regular: on a block's cell lattice, a cell
    binomial x_a*x_d - x_b*x_c with x_a and x_d regular makes x_b and x_c
    regular too, so the 3x3 block needs 3 runs, not 16.  It needs
    homogeneous binomials, so every basis vector must sum to zero; cell
    vectors and admissible labelings do, since every vertex lies on exactly
    one maximal horizontal edge interval.  Other bases raise ValueError.
    """
    if basis.ambient != P.num_vertices:
        raise ValueError("basis ambient dimension does not match V(P)")
    gens = IdealGens(
        tuple(vector_binomial(v) for v in basis.vectors),
        P.num_vertices,
    )
    return saturate(gens, range(P.num_vertices), step_limit)


@dataclass(frozen=True)
class BalancedReport:
    """Verdict of the ideal equality test, with a witness either way.

    When the admissible kernel rank differs from the cell count the heights
    of the two ideals already differ, and (adm_rank, ncells) is the witness.
    Otherwise the chordless cycles of the interval graph are checked:
    cycles_checked counts them, and offending is the binomial of one outside
    the minor ideal when the polyomino is not balanced.
    """

    balanced: bool
    adm_rank: int
    ncells: int
    offending: Polynomial | None = None
    cycles_checked: int = 0


def _minors(P: Polyomino) -> IdealGens:
    """``inner_minors(P)``, built once and kept on P."""
    return P.derived("inner_minors", lambda: inner_minors(P))


def _is_inner_four_cycle(P: Polyomino, cycle: tuple[int, ...]) -> bool:
    """Whether the cycle, vertex indices in canonical form, is the 4-cycle
    of an inner interval: its first and third vertices are corners (i, j)
    and (k, l) with i < k and j < l, and every cell of [i, k) x [j, l) is
    in P."""
    if len(cycle) != 4:
        return False
    (i, j), (k, l) = P.vertices[cycle[0]], P.vertices[cycle[2]]
    return all((r, t) in P.cells for r in range(i, k) for t in range(j, l))


def _cycle_verdict(P: Polyomino, step_limit: int) -> BalancedReport:
    """``is_balanced`` without the rank shortcut, kept on P: P is balanced
    iff every chordless cycle of G_P is an inner 4-cycle, whose binomial is
    an inner minor.  Otherwise the binomial of the first other cycle lies
    outside the minor ideal (``is_balanced``) and is the offending witness."""

    def build():
        cycles = _cycle_search(P, primitive=True, chordless=True, step_limit=step_limit)
        outside = next((c for c in cycles if not _is_inner_four_cycle(P, c)), None)
        offending = None if outside is None else _index_binomial(P.num_vertices, outside)
        return BalancedReport(offending is None, _cycle_rank(P), len(P), offending, len(cycles))

    return P.derived("cycle_verdict", build)


def is_balanced(P: Polyomino, step_limit: int | None = None) -> BalancedReport:
    """Decide whether every admissible labeling's binomial lies in the
    polyomino ideal I_P, that is, whether the labeling ideal J_P equals it.

    The cell vectors span a saturated lattice of rank |P| (the row-major
    largest cell (i, j) alone has vertex (i+1, j+1): unitriangular) inside
    the saturated admissible kernel, so the two are equal iff the kernel,
    of rank |V(P)| minus that of the interval constraint matrix, has rank
    |P|.

    That rank is counted, not computed.  The constraint matrix is the
    unsigned incidence matrix of the interval graph G_P
    (``grid.interval_graph``): its nodes are the maximal edge intervals,
    and each vertex of P is an edge joining its horizontal interval to its
    vertical one.  Over Q such a matrix has rank nodes minus components.
    The graph is connected because P is: a cell's corners join its four
    edge intervals, and neighboring cells share an edge.  So the rank is
    the number of maximal edge intervals minus one, and a rank other than
    |P| means P is not balanced.  That count is also the simplicity test
    (``classify.is_simple``, by the Euler characteristic): the rank is |P|
    exactly when P has no hole.  So the cycle search below runs on simple
    shapes only, and a census of simple <=> balanced tests one thing
    beyond the count: that every chordless cycle of a simple P is an inner
    4-cycle.

    Otherwise the chordless cycles of G_P decide, with no Groebner basis:
    - J_P is the lattice ideal of the admissible kernel, the toric ideal of
      the bipartite graph G_P, so the binomials of its even cycles generate
      it (Villarreal, Comm. Algebra 23, 1995);
    - a chord splits an even cycle C into two shorter even cycles C1, C2
      with f_C = u*f_C1 + v*f_C2 for monomials u, v, so the chordless
      cycles generate J_P (Ohsugi-Hibi, J. Algebra 218, 1999);
    - the binomial of a chordless 4-cycle whose four vertices span an inner
      interval is that interval's inner minor.
    So if every chordless cycle is such a 4-cycle, J_P lies in I_P and P is
    balanced.  Any other chordless cycle's binomial lies outside I_P: a
    monomial of an inner minor dividing the product of the cycle's
    alternate edges is two of those edges, and the minor's other monomial
    is the two edges closing them to a 4-cycle, chords unless the cycle is
    that inner 4-cycle; so no minor moves either monomial of the cycle's
    binomial, each monomial is alone in its class modulo I_P, and the
    binomial is its own nonzero normal form under every order.
    So the first such cycle is offending (``_cycle_verdict``), and a
    balanced P has only inner 4-cycles.  The verdict is kept on P, so
    ``is_prime`` and ``dimension`` reuse it.
    """
    step_limit = _resolve_step_limit(step_limit)
    adm_rank = _cycle_rank(P)
    if adm_rank != len(P):
        return BalancedReport(False, adm_rank, len(P))
    return _cycle_verdict(P, step_limit)


def is_prime(P: Polyomino, step_limit: int | None = None) -> bool:
    """Primality of the polyomino ideal.

    The exponent vectors of the inner minors span exactly the cell lattice,
    so saturating by all variables lands on its lattice ideal, which is
    prime because the lattice is saturated; conversely a prime binomial
    ideal free of variables equals its saturation.  When the admissible
    kernel has rank |P| it is the cell lattice, so that saturation is the
    labeling ideal and primality is balancedness, decided on the interval
    graph: a balanced P is prime with no Groebner basis.

    Otherwise saturating the minors by all variables decides, by whether
    any run divides, and the runs stop at the first that does; no
    canonical-order basis is needed.  Until a run divides, each run
    computes I_P's reduced basis under its own order, whatever generating
    set it starts from.  If a run divides an element g = x_v^e * g' of that
    basis, e > 0, then g' is not in I_P: its lead would lie in in(I_P) and
    properly divide lead(g), a minimal generator of in(I_P).  So x_v is a
    zero-divisor modulo I_P, which holds no monomial (it lies in the prime
    lattice ideal), and I_P is not prime.  If no run divides, I_P is its
    own saturation (the skipped variables are regular), the lattice ideal
    of the saturated cell lattice, which is prime.  Each run's regular
    variables are closed under the symmetries of the square that map P
    onto itself, which permute the minors (module docstring of
    ``groebner``), so fewer runs are needed.  The verdict is kept on P as
    the leads of the basis that the dividing run computed, None when no run
    divides, so ``dimension`` reads them with no run of its own.
    """
    if is_balanced(P, step_limit).balanced:
        return True
    minors = _minors(P)
    return P.derived("prime", lambda: next(
        (tuple(m for g in gb for m, c in g.terms.items() if c == 1)
         for gens, gb in _saturation_runs(minors, range(P.num_vertices), step_limit,
                                          _symmetries(P))
         if gens is not minors), None)) is None


def dimension(P: Polyomino, step_limit: int | None = None) -> int:
    """Krull dimension of the coordinate ring.

    A prime polyomino ideal is the lattice ideal of the cell lattice, of
    height its rank |P|, so the dimension is |V(P)| - |P|.  Otherwise it is
    the dimension of S/in(I_P), which has the Hilbert function of S/I_P
    under any order, read off the leads that ``is_prime`` kept on P: the
    first dividing saturation run computed I_P's reduced basis.
    """
    if is_prime(P, step_limit):
        return P.num_vertices - len(P)
    return quotient_dimension(P.derived("prime", None), P.num_vertices)


@dataclass(frozen=True)
class OrderOutcome:
    """Checks (b) and (c) of ``universal_gb_check`` under one order."""

    order: str
    gb_within_candidates: bool
    initial_squarefree: bool
    gb_size: int

    @property
    def passed(self) -> bool:
        return self.gb_within_candidates and self.initial_squarefree


@dataclass(frozen=True)
class UniversalGBReport:
    """candidates_in_ideal is check (a), which does not depend on the order;
    outcomes hold checks (b) and (c), one entry per order."""

    candidates: int
    candidates_in_ideal: bool
    outcomes: tuple[OrderOutcome, ...]

    @property
    def passed(self) -> bool:
        return self.candidates_in_ideal and all(o.passed for o in self.outcomes)


def _kept(gb, signed) -> tuple:
    """(basis, its +1 terms, its -1 terms, check (b), check (c)) of a basis at hand."""
    leads = [m for g in gb for m, c in g.terms.items() if c == 1]
    trails = [m for g in gb for m, c in g.terms.items() if c != 1]
    return gb, leads, trails, all(frozenset(g.terms) in signed for g in gb), is_squarefree(leads)


def _marked_alike(kept, order):
    """The first kept entry whose leads stay above their trails under order, else None."""
    key = order.key
    for entry in kept:
        if all(map(gt, map(key, entry[1]), map(key, entry[2]))):
            return entry
    return None


def universal_gb_check(P: Polyomino, orders,
                       step_limit: int | None = None) -> UniversalGBReport:
    """Check that the primitive cycle binomials form a universal Groebner
    basis of the polyomino ideal over the sampled orders.

    (a) Every candidate lies in the ideal: its two terms have one standard
    monomial modulo the first order's reduced basis of the inner minors,
    since x^a - x^b lies in I iff std(a) = std(b) modulo any Groebner basis
    of I.  Per order: (b) the reduced basis G of the minor ideal
    consists of candidates up to sign, (c) the initial ideal is squarefree,
    both read off raw terms (G is monic lead - trail; x^a - x^b is fixed up
    to sign by its monomials).  (a) and (b) make the candidates C a Groebner
    basis under that order, because then in(I) = <in G> <= <in C> <= in(I);
    no S-pair of C needs reducing.  Requires a balanced polyomino, and
    orders on its vertex count, else ValueError.  The orders may come from
    any iterable, read once; none at all raises ValueError.

    G is read off a basis already at hand when one serves, one computed for
    an earlier order; checks (b) and (c) depend on G alone, so they are
    read once per basis.  If the reduced basis G of I under <1 keeps every
    lead under <2, then in_<1(I) = <in G> lies in in_<2(I), so the standard
    monomials of <2 are among those of <1; both sets are vector-space bases
    of the quotient, so they are equal, and so are the initial ideals.  G
    is then a Groebner basis under <2, still monic and reduced, hence the
    unique reduced basis (<2 lies in the Groebner cone of G: Mora-Robbiano,
    J. Symb. Comput. 6, 1988).  Nothing is at hand for the first order, so
    it always runs, and check (a) reads that run's basis.

    Each order's checks read one key table, held by the order's private
    twin (``orders._keyed_once``): the test whether a kept basis stays
    marked alike and, if none does, that order's Buchberger run (and, for
    the first order, check (a)) key each monomial once; the caller's order
    is never changed.  Every run starts from the minors' one ``IdealGens``,
    validated by the first run on it and only oriented by each later one,
    and under the step limit read once at the start of the check.

    Every Buchberger run here is told that every variable is regular modulo
    I_P, so it never queues a pair whose S-terms share a variable (module
    docstring of ``groebner``).  That holds for a balanced P: I_P is then
    J_P, the lattice ideal of a saturated lattice, which is prime and holds
    no monomial, so no variable is a zero-divisor.
    """
    orders = tuple(orders)
    if not orders:
        raise ValueError("need at least one order")
    n = P.num_vertices
    for order in orders:
        if order.nvars != n:
            raise ValueError(f"the order has {order.nvars} variables, the polynomials {n}")
    step_limit = _resolve_step_limit(step_limit)
    if not is_balanced(P, step_limit).balanced:
        raise NotBalancedError("the polyomino is not balanced")
    idx = P.vertex_index  # the search's cycles need no validation
    candidates = [_index_binomial(n, [idx[v] for v in c.vertices])
                  for c in enumerate_cycles(P, primitive_only=True)]
    signed = {frozenset(f.terms) for f in candidates}
    every = (1 << n) - 1
    gens = _minors(P)
    kept = []
    outcomes = []
    for order in orders:
        keyed = _keyed_once(order)
        entry = _marked_alike(kept, keyed)
        if entry is None:
            entry = _kept(buchberger(gens, keyed, step_limit, regular=every), signed)
            if not kept:  # check (a), on the first order's basis and keys
                rewrite = _BinomialBasis(_binomial_form(entry[0], n), keyed.key)
                in_ideal = all(len({rewrite.standard(m) for m in f.terms}) == 1
                               for f in candidates)
            kept.append(entry)
        gb, _, _, ok_gb, ok_sq = entry
        outcomes.append(OrderOutcome(order.spec_string(), ok_gb, ok_sq, len(gb)))
    return UniversalGBReport(len(candidates), in_ideal, tuple(outcomes))

"""Polyomino ideals: minors, labelings, lattices, balanced, prime, dimension."""

from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyomino_ideals import (
    IdealGens,
    MonomialOrder,
    NotBalancedError,
    OrderOutcome,
    Polynomial,
    Polyomino,
    StepLimitExceededError,
    ZeroLabelingError,
    admissible_lattice,
    buchberger,
    canonical_order,
    cycle_binomial,
    dimension,
    enumerate_cycles,
    free_polyominoes,
    ideal_equal,
    initial_ideal,
    inner_minor,
    inner_minors,
    is_admissible,
    is_balanced,
    is_prime,
    is_simple,
    is_squarefree,
    kernel_basis,
    labeling_binomial,
    lattice_ideal,
    matrix_rank,
    normal_form,
    order_sample,
    parse_grid,
    saturate,
    universal_gb_check,
    vector_binomial,
)
from polyomino_ideals.grid import _cycle_rank
from polyomino_ideals.ideals import _kept, _marked_alike
from conftest import (
    FIXED_POLYOMINO_COUNTS,
    admissible_matrix,
    canonical_dimension,
    cell_lattice_basis,
    cell_vector,
    chordless_cycles_brute,
    dihedral_images,
    face_counts,
    flood_fill_simple,
    free_cellsets,
    h_polynomial,
    rook_polynomial,
    spair_sweep,
    vector_labeling,
)

ALPHA_UNIT = {(0, 0): 1, (1, 1): 1, (1, 0): -1, (0, 1): -1}


@pytest.fixture(scope="session")
def labeling_ideal_P5(P5):
    """The (rank 9) admissible-lattice ideal of the frame; computed once."""
    return lattice_ideal(P5, admissible_lattice(P5))


def test_inner_minors_counts(P1, P2, P3, P5):
    assert len(inner_minors(P1)) == 1
    assert len(inner_minors(P2)) == 3
    assert len(inner_minors(P3)) == 5
    assert len(inner_minors(P5)) == 20


def test_inner_minor_unit_square(P1):
    # row-major variables: 0=(0,0), 1=(1,0), 2=(0,1), 3=(1,1)
    (g,) = inner_minors(P1).generators
    assert g == Polynomial({(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})


def test_cell_lattice_basis(P1, P2):
    assert cell_lattice_basis(P1).vectors == ((1, -1, -1, 1),)
    assert cell_lattice_basis(P2).rank == 2


def test_admissible_matrix_shapes_and_ranks(P1, P2, P5):
    m1 = admissible_matrix(P1)
    assert (len(m1), len(m1[0])) == (4, 4) and matrix_rank(m1) == 3
    m2 = admissible_matrix(P2)
    assert (len(m2), len(m2[0])) == (5, 6) and matrix_rank(m2) == 4
    m5 = admissible_matrix(P5)
    assert (len(m5), len(m5[0])) == (8, 16) and matrix_rank(m5) == 7


def test_is_admissible(P1, P2):
    assert is_admissible(P1, ALPHA_UNIT)
    assert not is_admissible(P1, {(0, 0): 1})
    combined = [a + b for a, b in zip(cell_vector(P2, (0, 0)), cell_vector(P2, (1, 0)))]
    assert is_admissible(P2, vector_labeling(P2, combined))


def test_vector_labeling_needs_one_entry_per_vertex(P1):
    # a short vector is not a labeling of the first vertices
    assert vector_labeling(P1, [1, -1, -1, 1]) == ALPHA_UNIT
    for vec in ([1, -1], [1, -1, -1, 1, 0]):
        with pytest.raises(ValueError, match="length"):
            vector_labeling(P1, vec)


def test_labeling_binomial(P1, P2):
    assert labeling_binomial(P1, ALPHA_UNIT) == inner_minors(P1).generators[0]
    doubled = {pt: 2 * v for pt, v in ALPHA_UNIT.items()}
    assert labeling_binomial(P1, doubled) == Polynomial({(2, 0, 0, 2): 1, (0, 2, 2, 0): -1})
    combined = [a + b for a, b in zip(cell_vector(P2, (0, 0)), cell_vector(P2, (1, 0)))]
    f = vector_binomial(combined)
    idx = P2.vertex_index
    expected = [0] * 6
    expected[idx[(0, 0)]], expected[idx[(2, 1)]] = 1, 1
    pos = tuple(expected)
    expected = [0] * 6
    expected[idx[(0, 1)]], expected[idx[(2, 0)]] = 1, 1
    neg = tuple(expected)
    assert f == Polynomial({pos: 1, neg: -1})
    with pytest.raises(ZeroLabelingError):
        labeling_binomial(P1, {})


def test_admissible_lattice_ranks(P1, P2, P5):
    assert admissible_lattice(P1).vectors == ((1, -1, -1, 1),)
    assert admissible_lattice(P2).rank == 2
    assert admissible_lattice(P5).rank == 9


def test_admissible_lattice_makes_no_hermite_form(monkeypatch, P5):
    # no kernel computation and no Hermite form: the fundamental cycles of
    # the Kruskal tree are the Hermite rows as they stand
    from polyomino_ideals import ideals, intlinalg

    calls = []
    real = intlinalg.hermite_normal_form

    def counted(mat, transform=True):
        calls.append(transform)
        return real(mat, transform)

    monkeypatch.setattr(intlinalg, "hermite_normal_form", counted)
    assert not hasattr(ideals, "hermite_normal_form")
    assert admissible_lattice(Polyomino(P5.cells)).rank == 9
    assert calls == []


def test_inner_minor_rejects_an_empty_interval(P3):
    # a degenerate interval once gave -x0*x3 + 1, neither a minor nor
    # homogeneous
    for interval in (((0, 0), (0, 1)), ((0, 0), (1, 0)), ((1, 1), (0, 0))):
        with pytest.raises(ValueError, match=r"is not an interval: it needs i < k and j < l"):
            inner_minor(P3, interval)


def test_inner_minor_rejects_a_corner_outside_the_vertices(P3):
    # (2, 2) is no vertex of the L-tromino; it once raised a bare KeyError
    with pytest.raises(ValueError, match=r"corner \(2, 2\) is not a vertex of P"):
        inner_minor(P3, ((0, 0), (2, 2)))


def test_inner_minor_rejects_a_cell_outside_the_polyomino():
    # the U-pentomino: every corner of [0, 3) x [0, 2) is a vertex, but the
    # cell (1, 1) is missing
    U = Polyomino({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)})
    with pytest.raises(ValueError, match=r"cell \(1, 1\) is not in P"):
        inner_minor(U, ((0, 0), (3, 2)))
    assert inner_minor(U, ((0, 0), (3, 1))) in inner_minors(U).generators


def test_lattice_ideal_unit_square(P1):
    assert ideal_equal(lattice_ideal(P1, cell_lattice_basis(P1)), inner_minors(P1))


def test_lattice_ideal_domino_is_balanced_instance(P2):
    assert ideal_equal(lattice_ideal(P2, cell_lattice_basis(P2)), inner_minors(P2))


def test_is_balanced(P1, P4, P5):
    assert is_balanced(P1).balanced
    report4 = is_balanced(P4)
    # the 2x2 block's interval graph is K_{3,3}: nine 4-cycles, all inner
    assert report4.balanced and report4.cycles_checked == 9
    report5 = is_balanced(P5)
    assert not report5.balanced
    assert (report5.adm_rank, report5.ncells) == (9, 8)


def test_is_prime(P1, P2, P4):
    assert is_prime(P1)
    assert is_prime(P2)
    assert is_prime(P4)


def test_frame_is_prime_but_not_balanced(P5):
    # regression for a computed fact: the frame's minor ideal equals its own
    # saturation (hence is prime) even though the frame is not balanced
    assert is_prime(P5)
    assert not is_balanced(P5).balanced


def test_dimension(P1, P2, P4):
    assert dimension(P1) == 3
    assert dimension(P2) == 4
    assert dimension(P4) == 5


def test_no_canonical_order_run(monkeypatch):
    # is_balanced, is_prime and dimension settle a simple shape on its
    # interval graph, with no Buchberger run, saturation or simplicity test;
    # universal_gb_check runs only under the orders it is given.  No
    # function runs the canonical order: dimension of a non-prime shape
    # reads the leads that is_prime's first dividing run kept on it
    from polyomino_ideals import classify, groebner, ideals

    P = Polyomino({(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)})  # fresh, nothing cached
    runs = []  # the order of every Buchberger run
    real = groebner.buchberger

    def counting(gens, order, step_limit=None, *, regular=0):
        runs.append(order.spec_string())
        return real(gens, order, step_limit, regular=regular)

    saturations = []
    real_runs = groebner._saturation_runs

    def counting_runs(F, variables, step_limit, symmetries):
        saturations.append(F)
        return real_runs(F, variables, step_limit, symmetries)

    def no_simple(Q):
        raise AssertionError("is_simple fed the decision")

    built = []
    real_minors = ideals.inner_minors

    def counting_minors(Q):
        built.append(Q)
        return real_minors(Q)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(ideals, "buchberger", counting)
    monkeypatch.setattr(groebner, "_saturation_runs", counting_runs)
    monkeypatch.setattr(ideals, "_saturation_runs", counting_runs)
    monkeypatch.setattr(classify, "is_simple", no_simple)
    monkeypatch.setattr(ideals, "inner_minors", counting_minors)
    assert is_balanced(P).balanced
    assert is_prime(P)
    assert dimension(P) == P.num_vertices - len(P)
    assert (runs, saturations, built) == ([], [], [])
    n = P.num_vertices
    canonical = canonical_order(n).spec_string()
    others = [o for o in order_sample(n) if o.spec_string() != canonical]
    assert len(others) == 13
    assert universal_gb_check(P, others).passed
    assert universal_gb_check(P, [MonomialOrder("lex", n)]).passed
    assert runs and canonical not in runs and (saturations, built) == ([], [P])
    # dimension on a fresh non-prime shape, twice, runs what is_prime runs
    # on another fresh copy, and nothing more
    del runs[:]
    Q = parse_grid(NON_PRIME[0])  # fresh, nothing cached
    assert dimension(Q) == dimension(Q) == Q.num_vertices - len(Q) == 10
    by_dimension = runs[:]
    del runs[:]
    assert is_prime(parse_grid(NON_PRIME[0])) is False  # fresh again
    assert by_dimension == runs != []
    assert canonical_order(Q.num_vertices).spec_string() not in runs
    assert len(saturations) == 2 and built[1:] == [Q, Q]
    # a kept verdict does not skip the step-limit check
    for shape in (P, Q):
        with pytest.raises(ValueError, match="step_limit must be at least 1, got 0"):
            dimension(shape, step_limit=0)


@lru_cache(maxsize=None)
def _non_prime_cells() -> tuple:
    """The cells of the non-prime free <= 10-ominoes, all non-simple."""
    levels = free_polyominoes(10)
    return tuple(P.cells for n in sorted(levels) for P in levels[n]
                 if not is_simple(P).simple and not is_prime(P))


def test_dimension_reads_the_dividing_run(monkeypatch):
    # dimension of a non-prime shape makes no Buchberger run once is_prime
    # has run, and is_prime validates the minors' binomial form once and
    # no run's divided basis that no later run starts from
    from polyomino_ideals import groebner, ideals

    shapes = [Polyomino(cells) for cells in _non_prime_cells()]  # fresh
    assert len(shapes) == 2 + 12 and {len(P) for P in shapes} == {9, 10}
    for P in shapes:
        assert not is_prime(P)
    runs, forms = [], []
    real, real_form = groebner.buchberger, groebner._Binomials

    def counting(gens, order, step_limit=None, *, regular=0):
        runs.append(order)
        return real(gens, order, step_limit, regular=regular)

    class Counting(real_form):
        def __init__(self, polys, nvars):
            forms.append(nvars)
            super().__init__(polys, nvars)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(ideals, "buchberger", counting)
    monkeypatch.setattr(groebner, "_Binomials", Counting)
    assert [dimension(P) for P in shapes] == [P.num_vertices - len(P) for P in shapes]
    assert runs == []
    built = []
    for w, h in ((3, 3), (4, 3), (3, 4)):
        del forms[:]
        frame = Polyomino({(i, j) for i in range(w) for j in range(h)
                           if i in (0, w - 1) or j in (0, h - 1)})  # fresh
        assert is_prime(frame)
        built.append(len(forms))
    assert built == [1, 1, 1]


def test_dimension_matches_the_canonical_basis():
    # the saturation run's leads against the canonical order's, on every
    # non-prime free <= 10-omino and on the frames
    shapes = [*map(Polyomino, _non_prime_cells()), *map(Polyomino, FRAMES)]
    assert len(shapes) == 14 + 3
    for P in shapes:
        assert dimension(P) == canonical_dimension(P), P


def test_h_polynomial_is_the_rook_polynomial_on_thin_shapes():
    # for a simple thin polyomino (no 2x2 block of cells) the h-polynomial
    # of K[P] is its rook polynomial (Rinaldo-Romeo, J. Algebraic Combin.
    # 54, 2021); K[P] and S/in(I_P) share their Hilbert series, and the
    # canonical leads are squarefree, so h comes from the face counts of
    # their Stanley-Reisner complex.  The 2x2 block is the non-thin control
    def h_and_rooks(cells):
        P = Polyomino(cells)
        order = canonical_order(P.num_vertices)
        leads = initial_ideal(buchberger(inner_minors(P), order), order)
        assert is_squarefree(leads), P
        faces = face_counts([sum(1 << v for v, e in enumerate(m) if e) for m in leads],
                            P.num_vertices)
        assert len(faces) - 1 == P.num_vertices - len(P), P  # the dimension
        return h_polynomial(faces), rook_polynomial(cells)

    def thin(cells):
        return not any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells for i, j in cells)

    shapes = [cells for cells in sorted(free_cellsets(8))
              if thin(set(cells)) and flood_fill_simple(cells)[0]]
    assert len(shapes) == 378
    for cells in shapes:
        h, rooks = h_and_rooks(cells)
        assert h == rooks, cells
    assert h_and_rooks(((0, 0), (0, 1), (1, 0), (1, 1))) == ([1, 4, 1], [1, 4, 2])


def test_chordless_cycle_search_counts_against_the_step_limit():
    block = Polyomino({(i, j) for i in range(3) for j in range(3)})  # fresh
    with pytest.raises(StepLimitExceededError, match="^chordless-cycle search exceeded 1 "):
        is_balanced(block, step_limit=1)
    assert is_balanced(block).cycles_checked == 36  # K_{4,4}: C(4,2)^2 inner 4-cycles


def _balanced_by_definition(P):
    """The definition, independent of is_balanced: the admissible lattice
    has rank |P| and its lattice ideal has the minors' reduced basis."""
    adm = admissible_lattice(P)
    if adm.rank != len(P):
        return False
    order = canonical_order(P.num_vertices)
    return buchberger(lattice_ideal(P, adm), order) == buchberger(inner_minors(P), order)


def _prime_by_saturation(P):
    """Primality as the saturation fixed point: the minors' reduced basis
    is that of their saturation by all variables."""
    order = canonical_order(P.num_vertices)
    minors = inner_minors(P)
    saturated = saturate(minors, range(P.num_vertices))
    return buchberger(saturated, order) == buchberger(minors, order)


# the two non-prime 9-ominoes
NON_PRIME = [".#.\n##.\n#.#\n###\n.#.", ".##.\n#.##\n###.\n.#.."]

FRAMES = [
    {(i, j) for i in range(w) for j in range(h) if i in (0, w - 1) or j in (0, h - 1)}
    for w, h in ((3, 3), (4, 3), (4, 4))
]


def test_admissible_lattice_is_the_hermite_form_of_the_kernel():
    # the spanning-tree basis against the kernel oracle: the same Hermite
    # rows, as many as the rank counted on G_P; the tree depends on the
    # vertex numbering, so every orientation of the free <= 7-ominoes
    frame_5x5 = {(i, j) for i in range(5) for j in range(5) if i in (0, 4) or j in (0, 4)}
    blocks = [{(i, j) for i in range(n) for j in range(n)} for n in (4, 5)]
    turned = sorted({image for cells in free_cellsets(7) for image in dihedral_images(cells)})
    assert len(turned) == sum(FIXED_POLYOMINO_COUNTS.values())
    for cells in sorted(free_cellsets(8)) + turned + FRAMES + [frame_5x5, *blocks]:
        P = Polyomino(cells)
        basis = admissible_lattice(P)
        assert basis == kernel_basis(admissible_matrix(P), ncols=P.num_vertices), P
        assert basis.rank == _cycle_rank(P), P


def test_is_balanced_matches_definition():
    # the interval-graph route against saturation: balanced as the rank test
    # plus the saturation fixed point (the two agree at equal rank, and
    # with the definition itself up to 6 cells), primality as that fixed
    # point, and the dimension of the minors' initial ideal
    shapes = [*map(Polyomino, sorted(free_cellsets(8)) + FRAMES), *map(parse_grid, NON_PRIME)]
    assert len(shapes) == 533 + 3 + 2
    nonprime = 0
    for P in shapes:
        report = is_balanced(P)
        adm_rank = admissible_lattice(P).rank
        prime = _prime_by_saturation(P)
        balanced = adm_rank == len(P) and prime
        if len(P) <= 6:
            assert balanced == _balanced_by_definition(P), P
        dim = canonical_dimension(P)
        assert (report.balanced, report.adm_rank, report.ncells) == (balanced, adm_rank, len(P)), P
        assert report.offending is None
        assert (is_prime(P), dimension(P)) == (prime, dim), P
        nonprime += not prime
    assert nonprime == 2


def test_forced_cycle_fallback_finds_an_offending_cycle():
    # with the rank shortcut skipped, the frames reach the cycle test: the
    # witness is a chordless cycle's binomial, and its normal form modulo
    # the minors shows it outside the minor ideal
    from polyomino_ideals.ideals import _cycle_verdict

    for cells in FRAMES:
        P = Polyomino(cells)
        report = _cycle_verdict(P, 10**6)
        assert not report.balanced
        assert report.cycles_checked == len(chordless_cycles_brute(cells))
        pos, neg = report.offending.terms
        support = {v for v, a, b in zip(P.vertices, pos, neg) if a or b}
        assert support in chordless_cycles_brute(cells)
        assert is_admissible(P, vector_labeling(P, [a - b for a, b in zip(pos, neg)]))
        order = canonical_order(P.num_vertices)
        assert normal_form(report.offending, buchberger(inner_minors(P), order), order)


@pytest.mark.parametrize("cells", sorted(free_cellsets(6)) + FRAMES + [
    tuple((i, j) for i in range(3) for j in range(3)),
    tuple((i, j) for i in range(4) for j in range(4)),
])
def test_chordless_cycles_match_brute_force(cells):
    from polyomino_ideals.cycles import _cycle_search
    from polyomino_ideals.grid import interval_graph

    P = Polyomino(cells)
    ends = interval_graph(P).ends
    cycles = _cycle_search(P, primitive=True, chordless=True, step_limit=10**6)
    for c in cycles:  # least vertex first, then its horizontal interval
        assert c[0] == min(c) and ends[c[1]][0] == ends[c[0]][0]
        # consecutive vertices share an interval, alternately horizontal and vertical
        assert all(ends[a][t % 2] == ends[b][t % 2] for t, (a, b) in enumerate(zip(c, c[1:] + c[:1])))
    found = [frozenset(P.vertices[k] for k in c) for c in cycles]
    assert len(set(found)) == len(found)
    assert set(found) == chordless_cycles_brute(cells)


def test_unequal_rank_alone_saturates(monkeypatch):
    # is_balanced, is_prime and dimension saturate a shape's minors only when
    # its admissible rank is not its cell count, and then once; otherwise
    # they search the chordless cycles once
    from polyomino_ideals import cycles, groebner, ideals

    saturated, searched = [], []
    real, real_search = groebner._saturation_runs, cycles._cycle_search

    def recording(F, variables, step_limit, symmetries):
        saturated.append(F)
        return real(F, variables, step_limit, symmetries)

    monkeypatch.setattr(ideals, "_saturation_runs", recording)
    monkeypatch.setattr(cycles, "_cycle_search", lambda *a, **k: searched.append(a) or real_search(*a, **k))
    unequal = 0
    for P in [*chain.from_iterable(free_polyominoes(8).values()), *map(Polyomino, FRAMES)]:
        before, searches = len(saturated), len(searched)
        report = is_balanced(P)
        is_prime(P)
        dimension(P)
        unequal += report.adm_rank != report.ncells
        assert len(saturated) - before == (report.adm_rank != report.ncells)
        assert len(searched) - searches == (report.adm_rank == report.ncells)
    assert unequal == len(saturated) == 1 + 6 + 3  # non-simple 7- and 8-ominoes, frames


@pytest.mark.parametrize("grid", NON_PRIME, ids=["3x5", "4x4"])
def test_non_prime_nine_ominoes(grid):
    # the two non-prime 9-ominoes: each encloses one hole cell, and its
    # admissible lattice has a rank one above the cell count
    P = parse_grid(grid)
    assert len(P) == 9
    # saturating divides some basis element, so it hands back a new ideal
    minors = inner_minors(P)
    assert saturate(minors, range(P.num_vertices)) is not minors
    assert is_prime(P) is False
    report = is_balanced(P)
    assert not report.balanced
    assert (report.adm_rank, report.ncells) == (10, 9)
    assert not is_simple(P).simple


def test_prime_matches_two_basis_comparison():
    # is_prime at unequal rank stops at the first saturation run on the
    # minors that divides anything; the oracles are the canonical reduced
    # bases of the minors and of their full saturation, and whether that
    # full saturation hands back a new ideal; the shapes of unequal rank are
    # the non-simple free <= 9-ominoes and the frames
    shapes = [*chain.from_iterable(free_polyominoes(9).values()), *map(Polyomino, FRAMES)]
    unequal = nonprime = 0
    for P in shapes:
        report = is_balanced(P)
        if report.adm_rank == report.ncells:
            continue
        order = canonical_order(P.num_vertices)
        minors = inner_minors(P)
        saturation = saturate(minors, range(P.num_vertices))
        prime = buchberger(saturation, order) == buchberger(minors, order)
        assert is_prime(P) == prime == (saturation is minors), P
        unequal += 1
        nonprime += not prime
    assert (unequal, nonprime) == (1 + 6 + 37 + 3, 2)


@pytest.mark.parametrize("grid", NON_PRIME, ids=["3x5", "4x4"])
def test_non_prime_saturation_needs_no_canonical_run(grid, monkeypatch):
    # is_prime saturates the minors themselves, so no run uses the
    # canonical order, and it stops at the first run that divides a basis
    # element: that run is the last one made
    from polyomino_ideals import groebner, ideals

    specs, dividing = [], []
    real, real_divide = groebner.buchberger, groebner._divide_out

    def recording(F, order, *args, **kwargs):
        specs.append(order.spec_string())
        return real(F, order, *args, **kwargs)

    def divide_out(g, v):
        out = real_divide(g, v)
        if out is not g:
            dividing.append(len(specs) - 1)
        return out

    monkeypatch.setattr(groebner, "buchberger", recording)
    monkeypatch.setattr(ideals, "buchberger", recording)
    monkeypatch.setattr(groebner, "_divide_out", divide_out)
    P = parse_grid(grid)
    assert is_prime(P) is False
    assert canonical_order(P.num_vertices).spec_string() not in specs
    assert dividing and set(dividing) == {len(specs) - 1}


def test_saturation_runs_on_the_non_simple_shapes(monkeypatch):
    # the runs is_prime makes on the 44 non-simple free <= 9-ominoes and on
    # the 3x3 and 4x3 frames, where the variable whose run is predicted to
    # prove the most goes first (``groebner._predicted_proof``) and each
    # run's regular variables are closed under the shape's symmetries
    from polyomino_ideals import groebner

    runs = []
    real = groebner.buchberger

    def counting(gens, order, step_limit=None, *, regular=0):
        runs.append(order)
        return real(gens, order, step_limit, regular=regular)

    monkeypatch.setattr(groebner, "buchberger", counting)
    shapes = [cells for cells in sorted(free_cellsets(9)) if not flood_fill_simple(cells)[0]]
    assert len(shapes) == 1 + 6 + 37
    for cells in shapes:
        is_prime(Polyomino(cells))
    assert len(runs) == 92
    counts = []
    for frame in FRAMES[:2]:
        runs.clear()
        is_prime(Polyomino(frame))
        counts.append(len(runs))
    assert counts == [1, 2]


def test_thick_shape_runs_and_pairs(monkeypatch):
    # is_prime on the 6x6 block with a 2x2 hole: 2 runs and 3,675 S-pairs
    # popped, counted by the chain test's one divisor query per popped pair
    from polyomino_ideals import groebner

    runs, popped = [], []
    real, real_divisors = groebner.buchberger, groebner._BinomialBasis.divisors

    def counting(gens, order, step_limit=None, *, regular=0):
        runs.append(order)
        return real(gens, order, step_limit, regular=regular)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(groebner._BinomialBasis, "divisors",
                        lambda self, m: popped.append(m) or real_divisors(self, m))
    P = Polyomino({(i, j) for i in range(6) for j in range(6)} - {(2, 2), (2, 3), (3, 2), (3, 3)})
    assert is_prime(P)
    assert (len(runs), len(popped)) == (2, 3675)


def test_symmetries_keep_every_verdict():
    # is_prime and dimension, which close the regular variables under P's
    # symmetries, against the runs with no symmetry on fresh minors, on the
    # non-simple free <= 10-ominoes and the three frames
    from polyomino_ideals.groebner import _saturation_runs, quotient_dimension

    levels = free_polyominoes(10)
    shapes = [P for n in sorted(levels) for P in levels[n] if not is_simple(P).simple]
    shapes += map(Polyomino, FRAMES)
    nonprime = 0
    for P in shapes:
        n, minors = P.num_vertices, inner_minors(P)
        leads = next((tuple(m for g in gb for m, c in g.terms.items() if c == 1)
                      for gens, gb in _saturation_runs(minors, range(n), None, ())
                      if gens is not minors), None)
        assert is_prime(P) == (leads is None), P
        assert dimension(P) == (n - len(P) if leads is None else quotient_dimension(leads, n)), P
        nonprime += leads is not None
    assert (len(shapes), nonprime) == (1 + 6 + 37 + 195 + 3, 2 + 12)


def test_symmetries_must_map_the_generators_onto_themselves():
    # a reflection of the asymmetric non-prime 9-omino in its bounding box
    # permutes the vertex indices, vertex k going to the index of its image
    # in the mirror image's own numbering, but maps I_P onto the mirror
    # image's ideal; a tuple that is no permutation is refused too
    from polyomino_ideals.groebner import _saturation_runs

    P = parse_grid(NON_PRIME[0])  # 3 cells wide
    Q = Polyomino({(2 - i, j) for i, j in P.cells})
    assert Q != P
    sigma = tuple(Q.vertex_index[(3 - x, y)] for x, y in P.vertices)
    assert sorted(sigma) == list(range(P.num_vertices))
    with pytest.raises(ValueError, match="does not map the generators onto themselves up to sign"):
        next(_saturation_runs(inner_minors(P), range(P.num_vertices), None, [sigma]))
    with pytest.raises(ValueError, match="is not a permutation of the 19 variables"):
        next(_saturation_runs(inner_minors(P), range(P.num_vertices), None, [(0,) * 19]))


def test_is_prime_step_limit_reports_progress(monkeypatch):
    # a step limit hit while is_prime saturates names the variable and the
    # requested variables saturated and proven regular before it.  On the
    # 3x3 frame x6 and x9, the hole's lower right and upper left corners,
    # are predicted to prove 8 variables, the most, and the lower index goes
    # first.  On the 4x3 frame the run by x8 = (3, 1) proves x8, the
    # lead-free x0 and x19 and, by the two-term closure, x3, x4, x5, x9 and
    # x18; the frame's three symmetries map these 8 onto 16, all but the
    # middle column x2, x7, x12 and x17, before x2's run
    from polyomino_ideals import groebner

    frame = FRAMES[0]  # 3x3, 16 vertices
    with pytest.raises(
        StepLimitExceededError,
        match=r"^saturating by x6 \(0 saturated, 0 regular of 16\): Buchberger exceeded 1 ",
    ):
        is_prime(Polyomino(frame), step_limit=1)
    runs = []
    real = groebner.buchberger

    def second_run_limited(gens, order, step_limit=None, *, regular=0):
        runs.append(order)
        return real(gens, order, 1 if len(runs) == 2 else step_limit, regular=regular)

    monkeypatch.setattr(groebner, "buchberger", second_run_limited)
    with pytest.raises(
        StepLimitExceededError,
        match=r"^saturating by x2 \(1 saturated, 16 regular of 20\): Buchberger exceeded 1 ",
    ):
        is_prime(Polyomino(FRAMES[1]))  # 4x3, 20 vertices


@pytest.mark.parametrize("nvars", [3, 10])
def test_order_with_wrong_variable_count_is_rejected(P3, nvars):
    # the L-tromino's minors live in 8 variables
    order = MonomialOrder("lex", nvars)
    message = f"the order has {nvars} variables, the polynomials 8"
    minors = inner_minors(P3)
    with pytest.raises(ValueError, match=message):
        buchberger(minors, order)
    with pytest.raises(ValueError, match=message):
        normal_form(minors.generators[0], list(minors), order)
    with pytest.raises(ValueError, match=message):
        universal_gb_check(P3, [canonical_order(8), order])


def test_containment_chain(fixtures, labeling_ideal_P5):
    # inner minors lie in the cell-lattice ideal, which lies in the
    # admissible-labeling ideal
    for name, P in fixtures.items():
        order = canonical_order(P.num_vertices)
        cell_ideal = lattice_ideal(P, cell_lattice_basis(P))
        gb_cell = buchberger(cell_ideal, order)
        for g in inner_minors(P):
            assert not normal_form(g, gb_cell, order)
        if name == "P5":
            labeling_ideal = labeling_ideal_P5
        else:
            labeling_ideal = lattice_ideal(P, admissible_lattice(P))
        gb_lab = buchberger(labeling_ideal, order)
        for g in cell_ideal:
            assert not normal_form(g, gb_lab, order)


def test_frame_minor_ideal_differs_from_labeling_ideal(P5, labeling_ideal_P5):
    assert not ideal_equal(inner_minors(P5), labeling_ideal_P5)


def test_balanced_fixtures_satisfy_proposition_and_corollary(P1, P2, P3, P4, P6):
    for P in (P1, P2, P3, P4, P6):
        assert is_balanced(P).balanced
        assert ideal_equal(inner_minors(P), lattice_ideal(P, cell_lattice_basis(P)))
        assert is_prime(P)
        assert dimension(P) == P.num_vertices - len(P)


def test_universal_gb_check_unit_square(P1):
    orders = [canonical_order(4), __import__("polyomino_ideals").MonomialOrder("lex", 4)]
    report = universal_gb_check(P1, orders)
    assert report.passed and report.candidates == 1


def test_universal_gb_check_domino(P2):
    report = universal_gb_check(P2, order_sample(P2.num_vertices))
    assert report.passed
    assert report.candidates == 3
    assert all(o.gb_size == 3 for o in report.outcomes)


def test_universal_gb_check_block(P4):
    report = universal_gb_check(P4, [canonical_order(P4.num_vertices)])
    assert report.passed
    assert report.candidates == 15
    assert report.outcomes[0].gb_size == 9


def test_universal_gb_check_requires_balanced(P5):
    with pytest.raises(NotBalancedError):
        universal_gb_check(P5, [canonical_order(P5.num_vertices)])


def test_universal_gb_check_requires_orders(P1):
    with pytest.raises(ValueError):
        universal_gb_check(P1, [])
    with pytest.raises(ValueError, match="need at least one order"):
        universal_gb_check(P1, iter([]))


def test_universal_gb_check_reads_an_iterator_of_orders_once(P2):
    # the variable-count check must not use up the orders it then checks
    orders = order_sample(P2.num_vertices, seed=1)
    report = universal_gb_check(P2, iter(orders))
    assert report == universal_gb_check(P2, orders)
    assert len(report.outcomes) == len(orders) and report.passed


def test_universal_gb_check_keys_each_monomial_once_per_order(monkeypatch):
    # the reuse test and the Buchberger run of an order read one key table:
    # no monomial is keyed twice under one order, and every key is restored
    P = Polyomino({(i, j) for i in range(3) for j in range(2)})
    orders = order_sample(P.num_vertices, seed=1)
    keyed = [dict() for _ in orders]
    for order, counts in zip(orders, keyed):

        def counting(m, key=order.key, counts=counts):
            counts[m] = counts.get(m, 0) + 1
            return key(m)

        monkeypatch.setattr(order, "key", counting)
    counted = [order.key for order in orders]
    report = universal_gb_check(P, orders)
    assert report.passed
    assert all(counts for counts in keyed)
    assert max(n for counts in keyed for n in counts.values()) == 1
    assert [order.key for order in orders] == counted


def _primitive_cycle_binomials(P):
    cycles = enumerate_cycles(P, primitive_only=True)
    return [cycle_binomial(P, c) for c in cycles]


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "P6"])
def test_universal_gb_check_matches_spair_sweep(fixtures, name):
    P = fixtures[name]
    orders = order_sample(P.num_vertices)
    report = universal_gb_check(P, orders)
    candidates = _primitive_cycle_binomials(P)
    gens = inner_minors(P)
    in_ideal = ideal_equal(gens, IdealGens(gens.generators + tuple(candidates), P.num_vertices))
    signed = {f.key() for f in candidates} | {(-f).key() for f in candidates}
    per_order = []
    for order in orders:
        gb = buchberger(gens, order)
        per_order.append((
            spair_sweep(candidates, order),
            all(g.key() in signed for g in gb),
            is_squarefree(initial_ideal(gb, order)),
        ))
    assert report.candidates == len(candidates)
    assert report.candidates_in_ideal == in_ideal
    assert [(o.gb_within_candidates, o.initial_squarefree) for o in report.outcomes] == [
        (b, c) for _, b, c in per_order
    ]
    assert report.passed == (in_ideal and all(all(checks) for checks in per_order))
    assert report.passed


def test_universal_gb_check_rejects_candidate_outside_ideal(P4, monkeypatch):
    import polyomino_ideals.cycles as cycles_mod

    real = cycles_mod._index_binomial
    swapped = []

    def one_outside(nvars, cycle):
        # x_0 - x_1 has degree 1, and the minor ideal is generated in degree 2
        if len(cycle) == 6 and not swapped:
            swapped.append(cycle)
            return Polynomial({(1,) + (0,) * 8: 1, (0, 1) + (0,) * 7: -1})
        return real(nvars, cycle)

    monkeypatch.setattr(cycles_mod, "_index_binomial", one_outside)
    report = universal_gb_check(P4, order_sample(P4.num_vertices))
    assert swapped
    assert report.candidates == 15
    assert not report.candidates_in_ideal
    assert not report.passed
    # no reduced basis under these orders uses a 6-cycle binomial, so checks
    # (b) and (c) alone would accept the swapped set
    assert all(o.passed for o in report.outcomes)


def test_universal_gb_check_fails_without_a_needed_candidate(monkeypatch):
    # negative control for check (b): the 2x3 block's first primitive cycle
    # is a cell whose minor lies in every reduced basis, so without it no
    # sampled order finds its basis among the candidates
    import polyomino_ideals.cycles as cycles_mod

    real = cycles_mod.enumerate_cycles
    dropped = []

    def drop_first(P, **kwargs):
        cycles = real(P, **kwargs)
        dropped.append(cycles[0])
        return cycles[1:]

    monkeypatch.setattr(cycles_mod, "enumerate_cycles", drop_first)
    block = Polyomino({(i, j) for i in range(2) for j in range(3)})
    orders = order_sample(block.num_vertices)
    report = universal_gb_check(block, orders)
    assert len(dropped[0].vertices) == 4
    assert report.candidates == 41
    assert report.candidates_in_ideal
    assert len(report.outcomes) == len(orders) == 13
    assert not any(o.gb_within_candidates for o in report.outcomes)
    assert not report.passed


def test_universal_gb_check_squarefree_reads_the_leads(P2, monkeypatch):
    # check (c) reads the leading term of each monic basis element: a square
    # lead fails it, a square trail does not.  The fake basis comes in as
    # the sampled order's own Buchberger run
    from polyomino_ideals import ideals

    n = P2.num_vertices
    square, mixed = (2, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0)
    x0_first = MonomialOrder("lex", n)  # square > mixed
    x1_first = MonomialOrder("lex", n, perm=(1, 0, 2, 3, 4, 5))  # mixed > square
    for sampled, lead, trail, squarefree in (
        (x0_first, square, mixed, False),
        (x1_first, mixed, square, True),
    ):
        fake = [Polynomial({lead: 1, trail: -1})]
        monkeypatch.setattr(ideals, "buchberger", lambda *args, **kwargs: fake)
        (outcome,) = universal_gb_check(Polyomino(P2.cells), [sampled]).outcomes
        assert outcome.initial_squarefree is squarefree
        assert not outcome.gb_within_candidates


STAPLE = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2))
BLOCK_3X2 = tuple((i, j) for i in range(3) for j in range(2))
REUSE_SHAPES = [*sorted(free_cellsets(5)), STAPLE, BLOCK_3X2]


def _fresh_outcome(P, order, signed):
    """Checks (b) and (c) read off a fresh Buchberger run under order."""
    gb = buchberger(inner_minors(P), order)
    return OrderOutcome(
        order.spec_string(),
        all(frozenset(g.terms) in signed for g in gb),
        is_squarefree(initial_ideal(gb, order)),
        len(gb),
    )


def test_reused_bases_give_the_fresh_outcomes(monkeypatch):
    # every order served by a kept basis reports what its own run would;
    # every run is under a sampled order, since none other is needed
    from polyomino_ideals import ideals

    runs = []
    real = ideals.buchberger

    def counting(gens, order, step_limit=None, *, regular=0):
        runs.append(order)
        return real(gens, order, step_limit, regular=regular)

    monkeypatch.setattr(ideals, "buchberger", counting)
    sampled = computed = total = 0
    for cells in REUSE_SHAPES:
        P = Polyomino(cells)
        cycles = enumerate_cycles(P, primitive_only=True)
        signed = {frozenset(cycle_binomial(P, c).terms) for c in cycles}
        for seed in range(3):
            orders = order_sample(P.num_vertices, seed=seed)
            runs.clear()
            report = universal_gb_check(P, orders)
            assert report.outcomes == tuple(_fresh_outcome(P, o, signed) for o in orders)
            sampled += len(orders)
            computed += sum(any(r is o for r in runs) for o in orders)
            total += len(runs)
    assert (sampled, computed, total) == (897, 748, 748)


def test_universal_gb_check_runs_once_per_distinct_basis(monkeypatch):
    # one Buchberger run per distinct reduced basis among the given orders,
    # each under a given order, and one cycle enumeration per call (the
    # benchmark's cycles.candidates counts that call); check (a) reads the
    # first order's basis, so reversing the orders changes no answer
    import polyomino_ideals.cycles as cycles_mod
    from polyomino_ideals import ideals

    runs, searches = [], []
    real, real_cycles = ideals.buchberger, cycles_mod.enumerate_cycles

    def recording(gens, order, step_limit=None, *, regular=0):
        gb = real(gens, order, step_limit, regular=regular)
        runs.append((order, frozenset(gb)))
        return gb

    def counting_cycles(P, **kwargs):
        searches.append(P)
        return real_cycles(P, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", recording)
    monkeypatch.setattr(cycles_mod, "enumerate_cycles", counting_cycles)
    for cells in REUSE_SHAPES:
        P = Polyomino(cells)
        minors = inner_minors(P)
        for seed in range(3):
            orders = order_sample(P.num_vertices, seed=seed)
            distinct = {frozenset(buchberger(minors, o)) for o in orders}
            reports = []
            for given in (orders, orders[::-1]):
                runs.clear()
                searches.clear()
                reports.append(universal_gb_check(P, given))
                assert all(any(r is o for o in given) for r, _ in runs)
                assert len(runs) == len({gb for _, gb in runs}) == len(distinct)
                assert {gb for _, gb in runs} == distinct
                assert searches == [P]
            forward, backward = reports
            assert forward.candidates_in_ideal == backward.candidates_in_ideal
            assert forward.outcomes == backward.outcomes[::-1]


@lru_cache(maxsize=None)
def _kept_bases(cells):
    """The minors of a shape and reduced bases of the kind universal_gb_check
    keeps, those of order_sample(n, seed=0), and the canonical one."""
    P = Polyomino(cells)
    minors = inner_minors(P)
    orders = [canonical_order(P.num_vertices), *order_sample(P.num_vertices)]
    return minors, [buchberger(minors, order) for order in orders]


@given(st.data())
def test_reused_basis_is_the_reduced_basis(data):
    # a kept basis serves a random weight order exactly when it is that
    # order's reduced basis, as a set
    cells = data.draw(st.sampled_from(REUSE_SHAPES))
    minors, kept = _kept_bases(cells)
    n = minors.nvars
    weights = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = MonomialOrder("degrevlex", n, weights=weights)
    fresh = set(buchberger(minors, order))
    served = _marked_alike([_kept(gb, set()) for gb in kept], order)
    assert (served is not None) == any(set(gb) == fresh for gb in kept)
    if served is not None:
        assert set(served[0]) == fresh


def test_universal_gb_check_three_by_three_block():
    block = Polyomino({(i, j) for i in range(3) for j in range(3)})
    report = universal_gb_check(block, order_sample(block.num_vertices))
    assert report.candidates == 204
    assert report.passed

"""Division, Buchberger, saturation, initial ideals, quotient dimension."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyomino_ideals import (
    IdealGens,
    MonomialOrder,
    Polynomial,
    StepLimitExceededError,
    buchberger,
    canonical_order,
    ideal_equal,
    initial_ideal,
    inner_minors,
    is_prime,
    is_squarefree,
    normal_form,
    order_sample,
    quotient_dimension,
    saturate,
    vector_binomial,
)
from polyomino_ideals.groebner import s_polynomial
from conftest import (
    block,
    brute_quotient_dimension,
    cell_lattice_basis,
    euler_simple,
    first_divisor,
    free_cellsets,
    is_pure_difference,
    frame,
    monomial,
    rebind,
    record,
    reference_normal_form,
    reference_reduce_groebner_basis,
    reference_standard,
    saturate_by_elimination,
)

X_MINUS_Y = Polynomial({(1, 0): 1, (0, 1): -1})


def test_normal_form_single_step(P1):
    # the diagonal term of the unit square reduces to the antidiagonal
    order = canonical_order(4)
    minor = inner_minors(P1).generators[0]
    diagonal = monomial((1, 0, 0, 1))
    assert normal_form(diagonal, [minor], order) == monomial((0, 1, 1, 0))


def test_normal_form_empty_basis():
    order = canonical_order(2)
    f = Polynomial({(2, 1): 3, (0, 0): -1})
    assert normal_form(f, [], order) == f


def test_normal_form_rejects_wrong_variable_count():
    # f in three variables, the basis x0 - x1 in two: no mixed-size remainder
    f = Polynomial({(1, 0, 0): 1, (0, 0, 1): 2})
    with pytest.raises(ValueError, match="f has a term in 3 variables, the basis 2"):
        normal_form(f, [X_MINUS_Y], MonomialOrder("lex", 2))


def test_normal_form_checks_f_against_an_empty_basis():
    # an empty basis lives in the order's variables, as a nonempty one must
    f = Polynomial({(1, 0, 0): 1})
    with pytest.raises(ValueError, match="^f has a term in 3 variables, the basis 2$"):
        normal_form(f, [], MonomialOrder("lex", 2))
    with pytest.raises(ValueError, match="^f has a term in 3 variables, the basis 2$"):
        normal_form(f, IdealGens((), 2), MonomialOrder("lex", 2))
    assert normal_form(Polynomial.zero(), [], MonomialOrder("lex", 2)) == Polynomial.zero()


def test_exponents_that_are_not_ints_never_reach_the_engine(monkeypatch):
    # a half, a float or a bool exponent raises where the polynomial is
    # built, so no Groebner run starts
    from polyomino_ideals import groebner

    runs = []
    rebind(monkeypatch, groebner._BinomialBasis, lambda *a: runs.append(a))
    message = r"^monomial \(.*\) is not a tuple of non-negative integers$"
    with pytest.raises(ValueError, match=message):
        IdealGens((Polynomial({(Fraction(1, 2), 0, 0, 0): 1, (0, Fraction(1, 2), 0, 0): -1}),), 4)
    with pytest.raises(ValueError, match=message):
        buchberger([Polynomial({(1.5, 0): 1, (0, True): -1})], canonical_order(2))
    assert runs == []


def test_mixed_variable_counts_are_rejected():
    # the second generator x0*x1 - x2 lives in three variables, the order in two
    basis = [X_MINUS_Y, Polynomial({(1, 1, 0): 1, (0, 0, 1): -1})]
    message = "the order has 2 variables, the polynomials 3"
    with pytest.raises(ValueError, match=message):
        buchberger(basis, MonomialOrder("lex", 2))
    with pytest.raises(ValueError, match=message):
        normal_form(X_MINUS_Y, basis, MonomialOrder("lex", 2))


def test_normal_form_of_generator_is_zero(P2):
    order = canonical_order(P2.num_vertices)
    gens = inner_minors(P2)
    gb = buchberger(gens, order)
    for g in gens:
        assert not normal_form(g, gb, order)


def _random_pure_differences(rng, nvars, count):
    """c*(x^a - x^b) with exponents at most 2 and c in {1, -1, 2, -1/3}; no
    homogeneity, so the list is rarely a Groebner basis."""
    gens = []
    for _ in range(count):
        a = tuple(rng.randrange(3) for _ in range(nvars))
        b = tuple(rng.randrange(3) for _ in range(nvars))
        if a != b:
            c = rng.choice((1, -1, 2, Fraction(-1, 3)))
            gens.append(Polynomial({a: c, b: -c}))
    return gens


def _sweep_orders(nvars):
    """The sampled orders, whose plain degrevlex ranks x_{n-1} least, plus
    graded reverse-lex orders of the kind saturate uses: x_0 least, and
    x_{n-1} least with x_1 proven regular, so ranked greatest."""
    orders = order_sample(nvars, permutations=1, weight_orders=1, seed=3)
    last = nvars - 1
    proven_first = sorted(range(last), key=lambda w: (w != 1, w))
    return orders + [
        MonomialOrder("degrevlex", nvars, perm=(*range(1, nvars), 0)),
        MonomialOrder("degrevlex", nvars, perm=(*proven_first, last)),
    ]


def test_division_contract():
    # the standard-monomial rewrite equals full rational division, on bases
    # that need not be Groebner bases and f with arbitrary coefficients
    rng = random.Random(7)
    cases = [
        (3, [
            Polynomial({(1, 1, 0): 1, (0, 0, 1): -1}),
            Polynomial({(2, 0, 0): 1, (0, 1, 0): -1}),
        ])
    ]
    while len(cases) < 60:
        nvars = rng.randint(2, 4)
        basis = _random_pure_differences(rng, nvars, rng.randint(1, 4))
        if basis:
            cases.append((nvars, basis))
    for nvars, basis in cases:
        for order in [canonical_order(nvars), *_sweep_orders(nvars)]:
            lead = [g.leading(order)[0] for g in basis]
            for _ in range(5):
                f = Polynomial(
                    {
                        tuple(rng.randrange(4) for _ in range(nvars)):
                            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(4)
                    }
                )
                r = normal_form(f, basis, order)
                assert r == reference_normal_form(f, basis, order)
                for t in r.terms:
                    assert not any(all(a <= b for a, b in zip(lm, t)) for lm in lead)


def test_buchberger_principal(P1):
    gens = inner_minors(P1)
    for order in order_sample(4, permutations=2, weight_orders=2, seed=2):
        assert buchberger(gens, order) == [gens.generators[0].monic(order)]


def test_buchberger_domino_gives_the_minors(P2):
    order = canonical_order(P2.num_vertices)
    gb = buchberger(inner_minors(P2), order)
    assert {g.key() for g in gb} == {g.key() for g in inner_minors(P2)}


def test_buchberger_block_gives_the_nine_minors(P4):
    order = canonical_order(P4.num_vertices)
    gb = buchberger(inner_minors(P4), order)
    assert len(gb) == 9
    assert {g.key() for g in gb} == {g.key() for g in inner_minors(P4)}


def test_buchberger_certificate(P2, P3, P4, P6):
    # every S-polynomial of the returned basis reduces to zero
    for P in (P2, P3, P4, P6):
        order = canonical_order(P.num_vertices)
        gb = buchberger(inner_minors(P), order)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert not normal_form(s_polynomial(gb[i], gb[j], order), gb, order)


def test_ideal_equal_scalar_multiple():
    F = IdealGens((X_MINUS_Y,), 2)
    G = IdealGens((Polynomial({(1, 0): 2, (0, 1): -2}),), 2)
    assert ideal_equal(F, G)


def test_ideal_equal_with_own_gb(P2):
    gens = inner_minors(P2)
    gb = buchberger(gens, canonical_order(P2.num_vertices))
    assert ideal_equal(gens, IdealGens(tuple(gb), P2.num_vertices))


def test_saturate_strips_monomial_factor():
    F = IdealGens((Polynomial({(2, 0): 1, (1, 1): -1}),), 2)  # x^2 - x*y
    sat = saturate(F, [0, 1])
    assert ideal_equal(sat, IdealGens((X_MINUS_Y,), 2))


def test_saturate_fixed_point():
    F = IdealGens((X_MINUS_Y,), 2)
    assert ideal_equal(saturate(F, [0, 1]), F)


def test_saturate_unit_square_minor(P1):
    gens = inner_minors(P1)
    assert ideal_equal(saturate(gens, range(4)), gens)


def test_saturate_idempotent_and_extensive(P2):
    basis = cell_lattice_basis(P2)
    F = IdealGens(tuple(vector_binomial(v) for v in basis.vectors), P2.num_vertices)
    sat = saturate(F, range(P2.num_vertices))
    again = saturate(sat, range(P2.num_vertices))
    assert ideal_equal(sat, again)
    order = canonical_order(P2.num_vertices)
    gb = buchberger(sat, order)
    for g in F:
        assert not normal_form(g, gb, order)


def _random_homogeneous_binomials(rng, nvars):
    """Pure differences x^a - x^b with |a| = |b| and exponents at most 2."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        a = tuple(rng.randrange(3) for _ in range(nvars))
        b = tuple(rng.randrange(3) for _ in range(nvars))
        while sum(b) != sum(a):
            b = tuple(rng.randrange(3) for _ in range(nvars))
        if a != b:
            gens.append(Polynomial({a: 1, b: -1}))
    return gens


def _random_variables(rng, nvars):
    return rng.sample(range(nvars), rng.randint(1, nvars))


def test_saturate_matches_elimination_oracle(P2, P3, P4):
    rng = random.Random(31)
    cases = []
    while len(cases) < 12:
        nvars = rng.randint(2, 5)
        gens = _random_homogeneous_binomials(rng, nvars)
        if gens:
            cases.append((IdealGens(tuple(gens), nvars), _random_variables(rng, nvars)))
    for P in (P2, P3, P4):
        n = P.num_vertices
        F = IdealGens(tuple(vector_binomial(v) for v in cell_lattice_basis(P).vectors), n)
        cases.append((F, range(n)))
        cases.extend((F, _random_variables(rng, n)) for _ in range(3))
    for F, vs in cases:
        expected = saturate_by_elimination(F, vs)
        assert ideal_equal(saturate(F, vs), expected)
        # given as a Groebner basis under a sampled order
        order = rng.choice(order_sample(F.nvars, permutations=2, weight_orders=2, seed=7))
        G = IdealGens(tuple(buchberger(F, order)), F.nvars)
        assert ideal_equal(saturate(G, vs), expected)


def test_saturate_rejects_inhomogeneous():
    F = IdealGens((Polynomial({(2, 0): 1, (0, 1): -1}),), 2)  # x^2 - y
    with pytest.raises(ValueError, match="homogeneous"):
        saturate(F, [0])


def test_saturate_step_limit_names_the_variable(P4):
    # x4, the 2x2 block's centre, is the only variable whose run is predicted
    # to prove all 9 (``_predicted_proof``); no other is predicted above 4
    with pytest.raises(StepLimitExceededError, match="saturating by x4"):
        saturate(inner_minors(P4), range(P4.num_vertices), step_limit=1)


def _cell_lattice_binomials(P):
    vectors = cell_lattice_basis(P).vectors
    return IdealGens(tuple(vector_binomial(v) for v in vectors), P.num_vertices)


def test_regular_closure_is_sound(P2, P3, P4):
    # every variable the closure proves regular beyond S is regular modulo
    # K = F : (prod S)^inf, by the independent elimination oracle
    from polyomino_ideals.groebner import _binomial_form, _regular_closure

    rng = random.Random(37)
    cases = []
    while len(cases) < 12:
        nvars = rng.randint(2, 5)
        gens = _random_homogeneous_binomials(rng, nvars)
        if gens:
            cases.append(IdealGens(tuple(gens), nvars))
    cases += [_cell_lattice_binomials(P) for P in (P2, P3, P4) for _ in range(3)]
    proven = 0
    for F in cases:
        n = F.nvars
        S = rng.sample(range(n), rng.randint(1, n - 1))
        K = saturate_by_elimination(F, S)
        supports = [(up[1], up[4], up[1] | up[4]) for up, _ in _binomial_form(K, n).pairs]
        mask = _regular_closure(supports, sum(1 << v for v in S))
        for v in set(range(n)) - set(S):
            if mask >> v & 1:
                proven += 1
                assert ideal_equal(saturate_by_elimination(K, [v]), K)
    assert proven >= 10


def test_saturate_skips_regular_variables(monkeypatch):
    # the 3x3 block's cell-lattice binomials: far fewer Buchberger runs than
    # variables, and still the cell-lattice ideal
    from polyomino_ideals import groebner

    P = block(3, 3)
    F = _cell_lattice_binomials(P)
    expected = saturate_by_elimination(F, range(16))
    runs = record(monkeypatch, groebner.buchberger, lambda call: call["order"])
    sat = saturate(F, range(16))
    # x5 least, then x10: the schedule of the step-limit test below.  Only
    # x5 and x10, the inner vertices on the block's diagonal, are predicted
    # to prove all 16 variables at first, and the lower index wins; after
    # x5's run proves x5 and x15, x10's closure alone holds 9 variables and
    # is predicted to prove 9, every other candidate 5
    assert [order.perm[-1] for order in runs] == [5, 10]
    assert ideal_equal(sat, expected)


def test_divisor_index_matches_the_linear_scan(monkeypatch):
    # every rewrite and every divisor query of the runs behind lattice_ideal
    # on the 3x3 and 4x3 blocks' cell lattices, against the linear scan of
    # ``reference_standard``: each rewrite by the first listed dividing
    # lead, and the dividing leads in ascending order from a generator.
    # Those runs adopt leads with exponents above 1, so the ``powers`` test
    # is exercised too
    import inspect

    from polyomino_ideals import groebner, lattice_ideal

    basis = groebner._BinomialBasis
    real_standard, real_divisors, real_adopt = basis.standard, basis.divisors, basis.adopt
    counts = {"standard": 0, "divisors": 0, "powers": 0}
    steps = []

    class Reading(list):  # the shifts, noting which lead each rewrite takes
        def __getitem__(self, k):
            steps.append(k)
            return list.__getitem__(self, k)

    def standard(self, m):
        counts["standard"] += 1
        shifts = self.shifts
        self.shifts = Reading(shifts)
        steps.clear()
        try:
            out = real_standard(self, m)
        finally:
            self.shifts = shifts
        assert (out, steps) == reference_standard(self, m)
        return out

    def divisors(self, m):
        counts["divisors"] += 1
        found = real_divisors(self, m)
        assert inspect.isgenerator(found)
        start = 0
        for k in found:  # checked as lazily as the caller reads
            assert k == first_divisor(self, m, start)
            start = k + 1
            yield k
        assert first_divisor(self, m, start) is None

    def adopt(self, record, lkey):
        counts["powers"] += bool(record[2])
        real_adopt(self, record, lkey)

    monkeypatch.setattr(basis, "standard", standard)
    monkeypatch.setattr(basis, "divisors", divisors)
    monkeypatch.setattr(basis, "adopt", adopt)
    adopted = []
    for P in (block(3, 3), block(4, 3)):
        lattice_ideal(P, cell_lattice_basis(P))
        adopted.append(counts["powers"] - sum(adopted))
    assert adopted == [104, 880]
    assert counts["standard"] > 1000 and counts["divisors"] > 100


def test_saturate_runs_start_from_the_generators_until_one_divides(monkeypatch):
    # a run that divides nothing leaves F's ideal, so the next run starts
    # from F's generators again; after one divides, from its divided basis
    from polyomino_ideals import groebner

    runs = []
    real = groebner.buchberger

    def recording(*args, **kwargs):
        gens, order = args[:2]  # passed first and second
        out = real(*args, **kwargs)
        runs.append((list(gens), out, order.perm[-1]))
        return out

    rebind(monkeypatch, real, recording)
    minors = inner_minors(frame(3, 3))
    cells = _cell_lattice_binomials(block(3, 3))
    for F, divides in ((minors, False), (cells, True)):
        runs.clear()
        sat = saturate(F, range(F.nvars))
        assert len(runs) > 1 and (sat is not F) == divides
        gens = list(F.generators)
        for given, out, v in runs:
            assert given == gens
            quotients = [groebner._divide_out(g, v) for g in out]
            if quotients != out or gens != list(F.generators):
                gens = quotients
        assert (gens != list(F.generators)) == divides


def test_saturate_matches_elimination_on_small_minors():
    # every free polyomino with at most 5 cells is simple, hence prime: the
    # minors are their own saturation and saturate hands them back as they
    # came; on the 3x3 block's cell-lattice binomials division does happen
    from polyomino_ideals import Polyomino

    cases = [inner_minors(Polyomino(cells)) for cells in sorted(free_cellsets(5))]
    assert len(cases) == 21
    lattice = _cell_lattice_binomials(block(3, 3))
    for F in [*cases, lattice]:
        order = canonical_order(F.nvars)
        sat = saturate(F, range(F.nvars))
        assert (sat is F) == (F is not lattice)
        expected = buchberger(saturate_by_elimination(F, range(F.nvars)), order)
        assert buchberger(sat, order) == expected
        # given as its reduced Groebner basis
        G = IdealGens(tuple(buchberger(F, order)), F.nvars)
        sat = saturate(G, range(F.nvars))
        assert (sat is G) == (F is not lattice)
        assert buchberger(sat, order) == expected


def test_lead_free_variables_are_regular():
    # a variable dividing no leading monomial of a Groebner basis of F is
    # regular modulo F, whatever the order: by the elimination oracle,
    # saturating F by it gives F back
    from polyomino_ideals import Polyomino

    cases = [inner_minors(Polyomino(cells)) for cells in sorted(free_cellsets(5))]
    cases.append(_cell_lattice_binomials(block(3, 3)))
    checked = 0
    for F in cases:
        order = canonical_order(F.nvars)
        leads = initial_ideal(buchberger(F, order), order)
        for w in range(F.nvars):
            if all(m[w] == 0 for m in leads):
                assert ideal_equal(saturate_by_elimination(F, [w]), F)
                checked += 1
    assert checked == 52


def test_saturate_step_limit_reports_progress(monkeypatch):
    # the second and last run, by x10, hits a step limit of 1: x5 is
    # saturated, and no leading monomial of the first run's basis (x5 least,
    # then x15) has x5 or x15, so both are regular; no element of that basis
    # has a whole term among them, so the two-term closure adds nothing
    from polyomino_ideals import groebner

    F = _cell_lattice_binomials(block(3, 3))
    runs = []
    real = groebner.buchberger

    def second_run_limited(*args, **kwargs):
        runs.append(args)
        if len(runs) == 2:
            args = (*args[:2], 1)  # the step limit, passed third
        return real(*args, **kwargs)

    rebind(monkeypatch, real, second_run_limited)
    with pytest.raises(
        StepLimitExceededError,
        match=r"^saturating by x10 \(1 saturated, 2 regular of 16\): Buchberger exceeded 1 ",
    ):
        saturate(F, range(16))


def test_ideal_saturation_and_dimension_errors(P1, P2):
    with pytest.raises(ValueError, match="^ideals live in different variable counts$"):
        ideal_equal(inner_minors(P1), inner_minors(P2))
    F = inner_minors(P1)
    with pytest.raises(ValueError, match="^variable index out of range$"):
        saturate(F, [F.nvars])
    with pytest.raises(ValueError, match="^monomial ideal contains a unit$"):
        quotient_dimension([(0, 0)], 2)


def test_step_limit_rejects_values_below_one(monkeypatch, P2):
    gens = inner_minors(P2)
    order = canonical_order(P2.num_vertices)
    with pytest.raises(ValueError, match="step_limit must be at least 1, got 0"):
        buchberger(gens, order, step_limit=0)
    with pytest.raises(ValueError, match="step_limit must be at least 1, got 0"):
        is_prime(P2, step_limit=0)
    monkeypatch.setenv("POLYIDEAL_GB_STEP_LIMIT", "-5")
    with pytest.raises(ValueError, match="POLYIDEAL_GB_STEP_LIMIT must be at least 1, got -5"):
        buchberger(gens, order)
    with pytest.raises(ValueError, match="POLYIDEAL_GB_STEP_LIMIT"):
        is_prime(P2)
    monkeypatch.setenv("POLYIDEAL_GB_STEP_LIMIT", "abc")
    with pytest.raises(ValueError, match="POLYIDEAL_GB_STEP_LIMIT must be an integer, got 'abc'"):
        buchberger(gens, order)
    with pytest.raises(ValueError, match="POLYIDEAL_GB_STEP_LIMIT"):
        is_prime(P2)


def test_initial_ideal_squarefree(P1, P4):
    order1 = canonical_order(4)
    gb1 = buchberger(inner_minors(P1), order1)
    assert initial_ideal(gb1, order1) == [(1, 0, 0, 1)]
    assert is_squarefree(initial_ideal(gb1, order1))

    order4 = canonical_order(P4.num_vertices)
    gb4 = buchberger(inner_minors(P4), order4)
    init = initial_ideal(gb4, order4)
    assert len(init) == 9
    assert all(sum(m) == 2 for m in init)
    assert is_squarefree(init)


def test_initial_ideal_not_squarefree_control():
    # x^2 - y under lex(x > y)
    order = MonomialOrder("lex", 2)
    gb = buchberger([Polynomial({(2, 0): 1, (0, 1): -1})], order)
    init = initial_ideal(gb, order)
    assert init == [(2, 0)]
    assert not is_squarefree(init)


def test_quotient_dimension_examples(P1, P2):
    order = canonical_order(4)
    gb = buchberger(inner_minors(P1), order)
    assert quotient_dimension(initial_ideal(gb, order), 4) == 3

    order2 = canonical_order(P2.num_vertices)
    gb2 = buchberger(inner_minors(P2), order2)
    init2 = initial_ideal(gb2, order2)
    assert quotient_dimension(init2, 6) == 4
    assert quotient_dimension(init2, 6) == brute_quotient_dimension(init2, 6)

    assert quotient_dimension([], 7) == 7


def test_quotient_dimension_matches_brute_force():
    rng = random.Random(13)
    for _ in range(20):
        nvars = rng.randint(2, 7)
        monos = [
            tuple(rng.randrange(2) for _ in range(nvars)) for _ in range(rng.randint(1, 6))
        ]
        monos = [m for m in monos if any(m)]
        if not monos:
            continue
        assert quotient_dimension(monos, nvars) == brute_quotient_dimension(monos, nvars)


def test_pure_difference_closure(fixtures):
    for P in fixtures.values():
        order = canonical_order(P.num_vertices)
        for g in buchberger(inner_minors(P), order):
            assert is_pure_difference(g)


def test_membership_is_order_independent(P3):
    rng = random.Random(19)
    gens = inner_minors(P3)
    n = P3.num_vertices
    # random combination of generators lies in the ideal under every order
    f = Polynomial.zero()
    for g in gens:
        mono = tuple(rng.randrange(2) for _ in range(n))
        f = f + g.term_mul(mono, rng.randint(-2, 2))
    assert f
    for order in order_sample(n, seed=21):
        assert not normal_form(f, buchberger(gens, order), order)


def _naive_buchberger(gens, order):
    """Criteria-free reference: every pair processed, FIFO, then reduced, by
    the rational division of conftest."""
    basis = [g.monic(order) for g in gens if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        r = reference_normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if r:
            basis.append(r.monic(order))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return reference_reduce_groebner_basis(basis, order)


def _assert_lead_minus_trail(gb, order):
    """Each element has two terms, +1 on the order's greater monomial and -1
    on the other, and equals Polynomial(g.terms): building it without
    __init__'s zero filter dropped nothing."""
    for g in gb:
        assert len(g.terms) == 2 and g == Polynomial(g.terms)
        lead, trail = sorted(g.terms, key=order.key, reverse=True)
        assert (g.terms[lead], g.terms[trail]) == (1, -1)


def test_buchberger_agrees_with_naive_reference(P2, P3):
    from polyomino_ideals import admissible_lattice

    rng = random.Random(29)
    cases = [
        (list(inner_minors(P2)), P2.num_vertices),
        (list(inner_minors(P3)), P3.num_vertices),
        ([Polynomial({(1, 0): 2, (0, 1): -2})], 2),  # 2x - 2y
    ]
    # admissible-lattice binomials of P3 with exponents above 1
    adm = admissible_lattice(P3)
    lattice_gens = []
    while len(lattice_gens) < 3:
        vec = [0] * P3.num_vertices
        for row in adm.vectors:
            c = rng.randint(-2, 2)
            vec = [x + c * y for x, y in zip(vec, row)]
        if max(map(abs, vec)) > 1:
            lattice_gens.append(vector_binomial(vec))
    cases.append((lattice_gens, P3.num_vertices))
    # random pure binomial ideals
    for _ in range(6):
        nvars = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randrange(3) for _ in range(nvars))
            b = tuple(rng.randrange(3) for _ in range(nvars))
            if a != b:
                gens.append(Polynomial({a: 1, b: -1}))
        if gens:
            cases.append((gens, nvars))
    # random dense ideals with honest rational coefficients: not pure
    # differences, so the engine refuses them
    rational = []
    for _ in range(4):
        nvars = 2
        gens = []
        for _ in range(2):
            terms = {
                tuple(rng.randrange(3) for _ in range(nvars)): Fraction(
                    rng.randint(-3, 3), rng.randint(1, 3)
                )
                for _ in range(3)
            }
            g = Polynomial(terms)
            if g:
                gens.append(g)
        if gens:
            rational.append((gens, nvars))
    # every variable regular: the minors of two simple shapes, whose ideals
    # are prime and hold no monomial, and the lattice binomials together
    # with generators of their saturation by all variables (the binomials
    # alone are not saturated, so some variable is a zero-divisor there)
    lattice = IdealGens(tuple(lattice_gens), P3.num_vertices)
    saturated = [*lattice_gens, *saturate(lattice, range(lattice.nvars)).generators]
    regular_cases = [cases[0], cases[1], (saturated, P3.num_vertices)]
    assert not ideal_equal(saturate_by_elimination(lattice, range(lattice.nvars)), lattice)
    for gens, nvars in regular_cases:
        F = IdealGens(tuple(gens), nvars)
        assert ideal_equal(saturate_by_elimination(F, range(nvars)), F)
    for gens, nvars in cases:
        for order in _sweep_orders(nvars):
            gb = buchberger(gens, order)
            assert gb == _naive_buchberger(gens, order)
            _assert_lead_minus_trail(gb, order)
            # trail first: each binomial as -x^lead + x^trail
            trail_first = [-g.monic(order) for g in gens if len(g.terms) == 2]
            gb = buchberger(trail_first, order)
            assert gb == _naive_buchberger(trail_first, order)
            _assert_lead_minus_trail(gb, order)
    for gens, nvars in regular_cases:
        every = (1 << nvars) - 1
        for order in _sweep_orders(nvars):
            gb = buchberger(gens, order, regular=every)
            assert gb == _naive_buchberger(gens, order)
            _assert_lead_minus_trail(gb, order)
    for gens, nvars in rational:
        for order in _sweep_orders(nvars):
            with pytest.raises(ValueError, match="not a pure difference"):
                buchberger(gens, order)
            with pytest.raises(ValueError, match="not a pure difference"):
                normal_form(gens[0], gens, order)

    # random pure differences under random permuted and weighted orders
    @given(st.data())
    def random_case(data):
        nvars = data.draw(st.integers(2, 4))
        monomial = st.tuples(*[st.integers(0, 2)] * nvars)
        pairs = data.draw(st.lists(st.tuples(monomial, monomial), min_size=1, max_size=3))
        gens = [Polynomial({a: 1, b: -1}) for a, b in pairs if a != b]
        order = MonomialOrder(
            data.draw(st.sampled_from(("lex", "deglex", "degrevlex"))),
            nvars,
            perm=data.draw(st.permutations(range(nvars))),
            weights=data.draw(
                st.none() | st.lists(st.integers(0, 5), min_size=nvars, max_size=nvars)
            ),
        )
        gb = buchberger(gens, order)
        assert gb == _naive_buchberger(gens, order)
        _assert_lead_minus_trail(gb, order)

    random_case()


def _blocks():
    return [block(a, b) for a, b in ((3, 3), (4, 3), (4, 4))]


def test_regular_variables_keep_the_reduced_basis():
    # a simple polyomino's ideal is prime and holds no monomial, so every
    # variable is regular: skipping the pairs whose S-terms share one gives
    # the same reduced basis, on every simple free <= 7-omino and three
    # blocks, under every sampled order
    from polyomino_ideals import Polyomino

    shapes = [Polyomino(c) for c in sorted(free_cellsets(7)) if euler_simple(c)]
    assert len(shapes) == 163
    runs = 0
    for P in [*shapes, *_blocks()]:
        minors, n = inner_minors(P), P.num_vertices
        for order in order_sample(n, seed=1):
            assert buchberger(minors, order, regular=(1 << n) - 1) == buchberger(minors, order)
            runs += 1
    assert runs == 166 * 13


def test_regular_needs_a_regular_variable():
    # in <x0*x2 - x0^2, x0*x3 - x1*x3>, x0*(x2 - x0) lies in the ideal and
    # x2 - x0 does not, so x0 is a zero-divisor; claiming every variable
    # regular skips a pair that is needed and loses a basis element
    order = MonomialOrder("degrevlex", 4)
    gens = [
        Polynomial({(1, 0, 1, 0): 1, (2, 0, 0, 0): -1}),
        Polynomial({(1, 0, 0, 1): 1, (0, 1, 0, 1): -1}),
    ]
    true_gb = buchberger(gens, order)
    assert not normal_form(gens[0], true_gb, order)
    assert normal_form(Polynomial({(0, 0, 1, 0): 1, (1, 0, 0, 0): -1}), true_gb, order)
    claimed = buchberger(gens, order, regular=0b1111)
    assert (len(true_gb), len(claimed)) == (3, 2)
    assert claimed != true_gb
    # a nonzero mask needs homogeneous generators, as saturate does
    with pytest.raises(ValueError, match="homogeneous"):
        buchberger([Polynomial({(2, 0): 1, (0, 1): -1})], MonomialOrder("lex", 2), regular=1)
    assert buchberger([Polynomial({(2, 0): 1, (0, 1): -1})], MonomialOrder("lex", 2))


STAPLE_AND_BLOCK = (
    ((0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)),  # the staple
    tuple((i, j) for i in range(3) for j in range(2)),  # the 3x2 block
)


def test_one_generating_set_serves_every_order(monkeypatch):
    # an IdealGens keeps one validated form across runs; each run orients it
    # under its own order, so no orientation goes stale: every sampled order
    # gives the basis of a fresh list of the same generators
    from polyomino_ideals import Polyomino, groebner

    built = record(monkeypatch, groebner._Binomials, lambda call: call["polys"])
    for cells in STAPLE_AND_BLOCK:
        minors = inner_minors(Polyomino(cells))
        n = minors.nvars
        every = (1 << n) - 1
        built.clear()
        for order in order_sample(n, seed=1):
            assert buchberger(minors, order) == buchberger(list(minors.generators), order)
            assert buchberger(minors, order, regular=every) == buchberger(minors, order)
        # one validation for the set, one per call on a fresh list
        assert built.count(minors.generators) == 1
        assert len(built) == 1 + len(order_sample(n))


def test_kept_form_keeps_every_check():
    # a failed validation keeps nothing, so it raises again; a kept form
    # still answers the homogeneity and variable-count checks on each call
    from polyomino_ideals import Polyomino

    order = MonomialOrder("lex", 2)
    trinomial = IdealGens((Polynomial({(1, 0): 1, (0, 1): -1, (0, 0): 1}),), 2)
    scaled = IdealGens((Polynomial({(1, 0): 1, (0, 1): -2}),), 2)
    for F in (trinomial, scaled):
        for _ in range(2):
            with pytest.raises(ValueError, match="not a pure difference"):
                buchberger(F, order)
    inhomogeneous = IdealGens((Polynomial({(2, 0): 1, (0, 1): -1}),), 2)  # x^2 - y
    for _ in range(2):
        assert buchberger(inhomogeneous, order) == list(inhomogeneous)
        with pytest.raises(ValueError, match="homogeneous"):
            buchberger(inhomogeneous, order, regular=1)
        with pytest.raises(ValueError, match="homogeneous"):
            saturate(inhomogeneous, [0])
    minors = inner_minors(Polyomino(STAPLE_AND_BLOCK[0]))
    assert buchberger(minors, canonical_order(minors.nvars))
    for _ in range(2):
        with pytest.raises(ValueError, match=f"the order has 3 variables, the polynomials {minors.nvars}"):
            buchberger(minors, MonomialOrder("lex", 3))
        with pytest.raises(ValueError, match=f"the order has 3 variables, the polynomials {minors.nvars}"):
            normal_form(minors.generators[0], minors, MonomialOrder("lex", 3))


@pytest.mark.parametrize("block, popped", [(0, (176, 80)), (2, (900, 500))], ids=["3x3", "4x4"])
def test_regular_variables_prune_s_pairs(monkeypatch, block, popped):
    # S-pairs popped on a block's minors under the canonical order, without
    # and with every variable regular: the same basis from fewer pairs
    import heapq
    from types import SimpleNamespace

    from polyomino_ideals import groebner

    count = [0]

    def heappop(heap):
        count[0] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(groebner, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    P = _blocks()[block]
    minors, order = inner_minors(P), canonical_order(P.num_vertices)
    bases = []
    for regular in (0, (1 << P.num_vertices) - 1):
        count[0] = 0
        bases.append(buchberger(minors, order, regular=regular))
        assert count[0] == popped[regular > 0]
    assert bases[0] == bases[1]


def test_step_limit_enforced(P4):
    with pytest.raises(StepLimitExceededError):
        buchberger(inner_minors(P4), canonical_order(P4.num_vertices), step_limit=3)


def test_step_limit_counts_popped_pairs():
    # pairwise coprime leads under lex: no pair is queued, so a step limit of
    # 1 is never reached and the binomials come back as they are
    gens = []
    for v in (0, 4, 8):
        lead, trail = [0] * 12, [0] * 12
        lead[v] = lead[v + 1] = trail[v + 2] = trail[v + 3] = 1
        gens.append(Polynomial({tuple(lead): 1, tuple(trail): -1}))
    assert buchberger(gens, MonomialOrder("lex", 12), step_limit=1) == gens[::-1]


def test_step_limit_env(monkeypatch, P4):
    monkeypatch.setenv("POLYIDEAL_GB_STEP_LIMIT", "2")
    with pytest.raises(StepLimitExceededError):
        buchberger(inner_minors(P4), canonical_order(P4.num_vertices))
    monkeypatch.setenv("POLYIDEAL_GB_STEP_LIMIT", "100000")
    assert len(buchberger(inner_minors(P4), canonical_order(P4.num_vertices))) == 9

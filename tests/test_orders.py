"""Monomial orders and the polynomial layer."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyomino_ideals import (
    IdealGens,
    MonomialOrder,
    Polynomial,
    canonical_order,
    make_order,
    order_sample,
    parse_order_spec,
    polynomial_str,
)
from polyomino_ideals.orders import SCHEMES
from conftest import is_pure_difference, monomial, reference_order_key


def test_lex_ignores_degree():
    order = MonomialOrder("lex", 2)  # canonical: higher index never beats lower on lex? see below
    x, y2 = (1, 0), (0, 2)
    assert order.compare(x, y2) == 1


def test_degrevlex_degree_dominates():
    order = MonomialOrder("degrevlex", 2)
    assert order.compare((1, 0), (0, 2)) == -1


def test_any_order_reflexive():
    for order in order_sample(3, seed=9):
        assert order.compare((1, 2, 0), (1, 2, 0)) == 0


def test_degrevlex_is_graded_reverse_lex():
    # Cox-Little-O'Shea, section 2.2: x*y^5*z^2 against x^4*y*z^3, degree 8
    # each; graded reverse-lex looks at z last and prefers the smaller power,
    # graded lex looks at x first and prefers the larger one
    m1, m2 = (1, 5, 2), (4, 1, 3)
    assert MonomialOrder("degrevlex", 3).compare(m1, m2) == 1
    assert MonomialOrder("deglex", 3).compare(m1, m2) == -1


def test_canonical_order_leads_with_diagonal():
    # variables of the unit square, row-major: 0=(0,0), 1=(1,0), 2=(0,1), 3=(1,1)
    order = canonical_order(4)
    diagonal, antidiagonal = (1, 0, 0, 1), (0, 1, 1, 0)
    assert order.compare(diagonal, antidiagonal) == 1
    # graded reverse-lex on the same numbering sees x3 last: the antidiagonal
    # avoids it and leads
    assert MonomialOrder("degrevlex", 4).compare(diagonal, antidiagonal) == -1


def test_weight_order_dominates_then_tiebreaks():
    order = MonomialOrder("degrevlex", 2, weights=(1, 3))
    assert order.compare((2, 0), (0, 1)) == -1  # weights 2 vs 3
    unweighted = MonomialOrder("degrevlex", 2)
    tied = MonomialOrder("degrevlex", 2, weights=(1, 1))
    for a, b in [((1, 0), (0, 1)), ((2, 1), (1, 2))]:
        assert tied.compare(a, b) == unweighted.compare(a, b)


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder("degrevlex", 3, perm=(0, 1))
    with pytest.raises(ValueError):
        MonomialOrder("degrevlex", 2, weights=(-1, 0))
    with pytest.raises(ValueError):
        MonomialOrder("mystery", 2)
    with pytest.raises(ValueError, match="^weight vector has wrong length$"):
        MonomialOrder("lex", 2, weights=(1,))


def test_order_is_multiplicative_with_one_minimal():
    rng = random.Random(4)
    for order in order_sample(4, permutations=2, weight_orders=2, seed=1):
        one = (0,) * 4
        for _ in range(40):
            m1 = tuple(rng.randrange(4) for _ in range(4))
            m2 = tuple(rng.randrange(4) for _ in range(4))
            shift = tuple(rng.randrange(3) for _ in range(4))
            c = order.compare(m1, m2)
            shifted = order.compare(
                tuple(a + s for a, s in zip(m1, shift)),
                tuple(a + s for a, s in zip(m2, shift)),
            )
            assert c == shifted
            if m1 != one:
                assert order.compare(one, m1) == -1


@given(st.data())
def test_compiled_key_matches_reference(data):
    # the key compiled once per order compares monomials as the weight
    # matrix of the order's scheme, permutation and weights does
    nvars = data.draw(st.integers(1, 8))
    scheme = data.draw(st.sampled_from(SCHEMES))
    perm = data.draw(st.permutations(range(nvars)))
    weights = data.draw(st.none() | st.lists(st.integers(0, 10), min_size=nvars, max_size=nvars))
    order = MonomialOrder(scheme, nvars, perm=perm, weights=weights)
    monomial = st.tuples(*[st.integers(0, 4)] * nvars)
    m1 = data.draw(monomial)
    # a rearrangement of m1 ties on degree, so the scheme's tie-break decides
    m2 = data.draw(monomial | st.permutations(m1).map(tuple))
    k1, k2 = reference_order_key(order, m1), reference_order_key(order, m2)
    assert order.compare(m1, m2) == (k1 > k2) - (k1 < k2)
    assert pickle.loads(pickle.dumps(order)).key(m1) == order.key(m1)


@pytest.mark.parametrize("weights", [None, ()])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_zero_variable_order(scheme, weights):
    order = MonomialOrder(scheme, 0, weights=weights)
    assert order.compare((), ()) == 0


def test_order_sample_size_and_determinism():
    sample = order_sample(5, seed=0)
    assert len(sample) == 13
    again = order_sample(5, seed=0)
    assert [o.spec_string() for o in sample] == [o.spec_string() for o in again]
    assert [o.scheme for o in sample[:3]] == ["lex", "deglex", "degrevlex"]


def test_order_sample_rejects_negative_counts():
    with pytest.raises(ValueError, match="permutations=-1"):
        order_sample(4, permutations=-1)
    with pytest.raises(ValueError, match="weight_orders=-2"):
        order_sample(4, weight_orders=-2)
    assert len(order_sample(4, permutations=0, weight_orders=0)) == 3


def test_parse_order_spec_round_trip():
    spec = parse_order_spec("degrevlex:perm=2,0,1:weights=1,0,3")
    order = make_order(spec, 3)
    assert order.spec_string() == "degrevlex:perm=2,0,1:weights=1,0,3"
    assert make_order("lex", 4).spec_string() == "lex"
    with pytest.raises(ValueError):
        parse_order_spec("grlex")
    with pytest.raises(ValueError):
        parse_order_spec("lex:junk")
    with pytest.raises(ValueError):
        make_order("lex:perm=0,1", 3)


def test_polynomial_arithmetic():
    x = monomial((1, 0))
    y = monomial((0, 1))
    assert (x + y) - y == x
    assert x * y == monomial((1, 1))
    assert (x - x) == Polynomial.zero()
    assert not Polynomial.zero()
    assert 2 * x == Polynomial({(1, 0): 2})
    assert (x + y) * (x - y) == Polynomial({(2, 0): 1, (0, 2): -1})


def test_monomial_keeps_only_a_nonzero_coefficient():
    from fractions import Fraction

    assert monomial((1, 2), -1).terms == {(1, 2): -1}
    assert monomial((1, 2), Fraction(3, 2)) == Polynomial({(1, 2): Fraction(3, 2)})
    assert monomial((1, 2), 0).terms == {}


def test_product_over_different_variable_counts_is_rejected():
    # zipping the exponents would drop the fourth variable
    x = Polynomial({(1, 0, 0): 1})
    minor = Polynomial({(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    for left, right, counts in ((x, minor, "3 and 4"), (minor, x, "4 and 3")):
        with pytest.raises(ValueError, match=f"over {counts} variables"):
            left * right


def test_sum_over_different_variable_counts_is_rejected():
    # adding term by term would leave terms of both lengths in one sum
    x = Polynomial({(1, 0, 0): 1})
    minor = Polynomial({(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    for left, right, counts in ((x, minor, "3 and 4"), (minor, x, "4 and 3")):
        with pytest.raises(ValueError, match=f"sum of polynomials over {counts} variables"):
            left + right
    assert x + Polynomial.zero() == Polynomial.zero() + x == x


def test_difference_over_different_variable_counts_is_rejected():
    x = Polynomial({(1, 0, 0): 1})
    minor = Polynomial({(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    for left, right, counts in ((x, minor, "3 and 4"), (minor, x, "4 and 3")):
        with pytest.raises(ValueError, match=f"sum of polynomials over {counts} variables"):
            left - right
    assert x - Polynomial.zero() == x and Polynomial.zero() - x == -x


def test_term_mul_over_different_variable_counts_is_rejected():
    # zipping the exponents would drop the monomial's fourth variable
    x = Polynomial({(1, 0, 0): 1})
    with pytest.raises(ValueError, match="product of polynomials over 3 and 4 variables"):
        x.term_mul((1, 0, 0, 1))
    with pytest.raises(ValueError, match="product of polynomials over 3 and 2 variables"):
        x.term_mul((1, 0), 2)
    assert x.term_mul((0, 1, 0), 2) == Polynomial({(1, 1, 0): 2})
    assert Polynomial.zero().term_mul((1, 0, 0, 1)) == Polynomial.zero()


def test_polynomial_monic_and_leading():
    from fractions import Fraction

    order = canonical_order(2)
    f = Polynomial({(1, 0): -3, (0, 1): 6})
    lm, lc = f.leading(order)
    assert (lm, lc) == ((0, 1), 6)
    monic = f.monic(order)
    assert monic.terms == {(0, 1): 1, (1, 0): Fraction(-1, 2)}


def test_is_pure_difference():
    assert is_pure_difference(Polynomial({(1, 0): 1, (0, 1): -1}))
    assert not is_pure_difference(Polynomial({(1, 0): 2, (0, 1): -2}))
    assert not is_pure_difference(Polynomial({(1, 0): 1}))


def test_polynomial_str():
    f = Polynomial({(1, 1): 1, (2, 0): -1})
    s = polynomial_str(f, names=["a", "b"])
    assert "a*b" in s and "a^2" in s
    assert polynomial_str(Polynomial.zero()) == "0"


def test_ideal_gens_validation():
    with pytest.raises(ValueError):
        IdealGens((Polynomial.zero(),), 2)
    with pytest.raises(ValueError):
        IdealGens((monomial((1, 0, 0)),), 2)

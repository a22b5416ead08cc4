"""Constructive membership certificates on tree-like polyominoes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyomino_ideals import (
    NotAdmissibleError,
    NotTreeLikeError,
    Polynomial,
    Polyomino,
    admissible_lattice,
    balanced_certificate_treelike,
    cell_neighbors,
    expand_certificate,
    free_polyominoes,
    inner_minors,
    is_admissible,
    is_tree_like,
    labeling_binomial,
    labeling_vector,
)
from polyomino_ideals import classify
from polyomino_ideals.certificates import _certify, _peel_plan
from conftest import (
    cell_vector,
    is_pure_difference,
    monomial,
    random_admissible_labeling,
    random_tree_like,
    rebuild_certify,
    record,
    rescan_peel,
    tree_like_oracle,
    vector_labeling,
)

ALPHA_UNIT = {(0, 0): 1, (1, 1): 1, (1, 0): -1, (0, 1): -1}


def _assert_valid(P, alpha):
    cert = balanced_certificate_treelike(P, alpha)
    assert expand_certificate(cert) == labeling_binomial(P, alpha)
    allowed = {g.key() for g in inner_minors(P)}
    for multiplier, minor in cert:
        assert minor.key() in allowed
        assert len(multiplier.terms) == 1
    return cert


def test_base_case_is_single_minor(P3):
    alpha = vector_labeling(P3, cell_vector(P3, (0, 0)))
    cert = _assert_valid(P3, alpha)
    assert len(cert) == 1


def test_two_cell_labeling(P3):
    combined = [a + b for a, b in zip(cell_vector(P3, (0, 0)), cell_vector(P3, (1, 0)))]
    _assert_valid(P3, vector_labeling(P3, combined))


def test_single_cell_labelings_on_staple(P6):
    for cell in P6.cells_sorted:
        cert = _assert_valid(P6, vector_labeling(P6, cell_vector(P6, cell)))
        assert len(cert) == 1


def test_doubled_labeling_unit_square(P1):
    alpha = {pt: 2 * v for pt, v in ALPHA_UNIT.items()}
    cert = _assert_valid(P1, alpha)
    assert len(cert) == 2


def test_large_labels_domino(P2):
    # one step per unit of label mass: deeper than the interpreter's
    # default recursion limit
    alpha = {(0, 0): 2000, (2, 1): 2000, (0, 1): -2000, (2, 0): -2000}
    cert = _assert_valid(P2, alpha)
    assert len(cert) == 2000


def test_negative_labeling(P3):
    alpha = vector_labeling(P3, [-x for x in cell_vector(P3, (0, 0))])
    _assert_valid(P3, alpha)


def test_random_labelings_on_fixtures(P3, P6):
    rng = random.Random(31)
    for P in (P3, P6):
        basis = admissible_lattice(P)
        for _ in range(10):
            _assert_valid(P, random_admissible_labeling(P, basis, rng))


def test_random_labelings_on_random_tree_like():
    rng = random.Random(37)
    for _ in range(5):
        P = random_tree_like(7, rng)
        basis = admissible_lattice(P)
        for _ in range(3):
            _assert_valid(P, random_admissible_labeling(P, basis, rng))


def test_requires_tree_like(P4, P5):
    for P in (P4, P5):
        alpha = vector_labeling(P, cell_vector(P, (0, 0)))
        with pytest.raises(NotTreeLikeError):
            balanced_certificate_treelike(P, alpha)


def test_requires_admissible(P3):
    with pytest.raises(NotAdmissibleError):
        balanced_certificate_treelike(P3, {(0, 0): 1})


def test_zero_labeling_gives_empty_certificate(P3):
    assert balanced_certificate_treelike(P3, {}) == []


def test_certificates_are_pure_difference_targets(P6):
    rng = random.Random(41)
    basis = admissible_lattice(P6)
    alpha = random_admissible_labeling(P6, basis, rng)
    assert is_pure_difference(labeling_binomial(P6, alpha))


@pytest.mark.parametrize("value", [Fraction(1, 2), 1.5, 1.0, True])
def test_non_integer_labels_are_rejected(P1, value):
    # x00*x11 - x10*x01 scaled by a label that int() would truncate or coerce
    alpha = {pt: value if v > 0 else -value for pt, v in ALPHA_UNIT.items()}
    for call in (labeling_vector, is_admissible, balanced_certificate_treelike):
        with pytest.raises(ValueError, match=r"vertex \(0, 0\)"):
            call(P1, alpha)
    with pytest.raises(ValueError, match=r"vertex \(0, 0\)"):
        vector_labeling(P1, [alpha[v] for v in P1.vertices])


def test_certificate_raises_iff_not_tree_like(small_polyominoes):
    # tree-likeness is derived from the leaf-peeling chain; the oracle is
    # the exhaustive check of every connected subset
    for P in small_polyominoes:
        if tree_like_oracle(P) is None:
            assert balanced_certificate_treelike(P, {}) == []
        else:
            with pytest.raises(NotTreeLikeError):
                balanced_certificate_treelike(P, {})


def test_peel_chain_built_once(P6, monkeypatch):
    # is_tree_like and the certificates read one leaf-peeling chain kept on
    # P, and the peel re-tests only the neighbor of each removed leaf
    builds = record(monkeypatch, classify._peel, lambda call: call["P"])
    calls = record(monkeypatch, classify.free_edge, lambda call: call["cell"])
    P = Polyomino(P6.cells)
    assert is_tree_like(P).tree_like
    assert builds == [P]
    assert len(calls) == 2 * len(P) - 1  # one neighbor per removed leaf
    alpha = vector_labeling(P, cell_vector(P, (1, 1)))
    _assert_valid(P, alpha)
    assert is_tree_like(P).tree_like
    assert builds == [P]
    # and in the other order
    Q = Polyomino(P6.cells)
    _assert_valid(Q, alpha)
    assert is_tree_like(Q).tree_like
    assert len(builds) == 2 and builds[1] is Q


def test_peel_free_edge_calls_bounded(monkeypatch):
    # once per cell, then once per removed leaf, for its neighbor; a peel
    # rescanning the whole remaining set makes about n^2/2 on an n-cell strip
    calls = record(monkeypatch, classify.free_edge, lambda call: call["cell"])
    for P in [Polyomino((i, 0) for i in range(30)), *free_polyominoes(8)[8]]:
        calls.clear()
        classify._peel(P)
        assert len(P) <= len(calls) < 2 * len(P), P


@st.composite
def tree_like_shapes(draw):
    """Grown one cell at a time from 2 to 12 cells, each added cell keeping
    the shape tree-like (a cell below the lowest row always does)."""
    n = draw(st.integers(2, 12))
    cells = {(0, 0)}
    while len(cells) < n:
        boundary = sorted({nb for c in cells for nb in cell_neighbors(c)} - cells)
        options = [c for c in boundary if is_tree_like(Polyomino(cells | {c})).tree_like]
        cells.add(draw(st.sampled_from(options)))
    return Polyomino(cells)


def cell_labelings(P):
    """Integer combinations of cell vectors, admissible by construction."""
    def combine(coeffs):
        vec = [0] * P.num_vertices
        for c, cell in zip(coeffs, P.cells_sorted):
            vec = [x + c * y for x, y in zip(vec, cell_vector(P, cell))]
        return vector_labeling(P, vec)

    return st.lists(st.integers(-4, 4), min_size=len(P), max_size=len(P)).map(combine)


@given(st.data())
def test_certificates_property(data):
    P = data.draw(tree_like_shapes())
    first, second = data.draw(cell_labelings(P)), data.draw(cell_labelings(P))
    allowed = {g.key() for g in inner_minors(P)}
    cert = balanced_certificate_treelike(P, first)
    if first:
        assert expand_certificate(cert) == labeling_binomial(P, first)
    else:
        assert cert == []
    for multiplier, minor in cert:
        assert minor.key() in allowed
        ((_, coeff),) = multiplier.terms.items()
        assert coeff in (1, -1)
    # the same chain as a whole-set rescan, the same certificate as
    # rebuilding every multiplier
    assert classify._peel(P) == rescan_peel(P)
    assert cert == rebuild_certify(_peel_plan(P), labeling_vector(P, first))
    # the second labeling reuses the plan kept on P
    cached = balanced_certificate_treelike(P, second)
    assert cached == balanced_certificate_treelike(Polyomino(P.cells), second)


def test_incremental_peel_and_running_multiplier_match_rebuilds():
    # every free <= 8-omino: the same chain as peeling by whole-set rescans;
    # on the tree-like ones, the same certificates as rebuilding each
    # multiplier one step at a time, with labels large enough for long
    # batches (up to +-50, and +-2000 on the domino)
    rng = random.Random(43)
    shapes = [P for level in free_polyominoes(8).values() for P in level]
    for P in shapes:
        assert classify._peel(P) == rescan_peel(P), P
        if is_tree_like(P).tree_like:
            plan, basis = _peel_plan(P), admissible_lattice(P)
            bounds = (3, 3, 50, 2000) if len(P) == 2 else (3, 3, 50)
            for bound in bounds:
                vec = labeling_vector(P, random_admissible_labeling(P, basis, rng, bound))
                assert _certify(plan, vec) == rebuild_certify(plan, vec), P


def _naive_expansion(cert):
    """sum(multiplier * minor) in Polynomial arithmetic."""
    total = Polynomial.zero()
    for multiplier, minor in cert:
        total = total + multiplier * minor
    return total


def test_expansion_matches_polynomial_arithmetic():
    minor = Polynomial({(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    twin = Polynomial(dict(minor.terms))  # equal to minor, another object
    other = Polynomial({(2, 0, 1, 0): Fraction(1, 3), (0, 0, 0, 3): 5})
    multipliers = [
        Polynomial({(0, 1, 0, 0): 1, (1, 0, 2, 0): -3}),
        Polynomial({(0, 0, 0, 0): Fraction(-2, 7)}),
        Polynomial({(1, 1, 0, 0): 1, (0, 0, 1, 1): Fraction(5, 2), (3, 0, 0, 0): -1}),
    ]
    certs = {
        "empty": [],
        "one minor object repeated": [(m, minor) for m in multipliers],
        "equal minors, distinct objects": [
            (multipliers[0], minor), (multipliers[1], twin), (multipliers[2], minor),
        ],
        "every pair": [(m, g) for m in multipliers for g in (minor, other, twin)],
        "cancels to zero": [(multipliers[2], minor), (-multipliers[2], twin)],
        "zero factors": [(Polynomial.zero(), minor), (multipliers[0], Polynomial.zero())],
    }
    for name, cert in certs.items():
        assert expand_certificate(cert).terms == _naive_expansion(cert).terms, name
    assert expand_certificate(certs["every pair"])
    assert expand_certificate(certs["cancels to zero"]).terms == {}


def test_expansion_rejects_different_variable_counts():
    # zipping the exponents would drop the minor's fourth variable
    minor = Polynomial({(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    for nvars in (3, 5):
        multiplier = monomial((1,) + (0,) * (nvars - 1))
        with pytest.raises(ValueError, match=f"multiplier over {nvars} variables, minor over 4"):
            expand_certificate([(multiplier, minor)])


def test_ragged_minor_cannot_be_built():
    # a minor whose terms differ in length is rejected where it is built,
    # so no certificate can hold one
    with pytest.raises(ValueError, match=r"^terms over 3 and 4 variables$"):
        Polynomial({(1, 0, 0, 1): 1, (0, 1, 1): -1})


def test_expansion_reads_each_minor_once(monkeypatch):
    # the sparse form is kept on the minor, not rebuilt per call: across
    # the ten certificates of one shape, each distinct minor is read once
    from polyomino_ideals import polynomials

    reads = record(monkeypatch, polynomials._sparse_form, lambda call: call["terms"])
    rng = random.Random(53)
    P = Polyomino({(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (3, 2), (0, 1), (0, 2)})
    assert is_tree_like(P).tree_like
    basis = admissible_lattice(P)
    minors = set()
    for _ in range(10):
        labeling = random_admissible_labeling(P, basis, rng)
        cert = balanced_certificate_treelike(P, labeling)
        assert expand_certificate(cert) == labeling_binomial(P, labeling)
        minors |= {id(minor) for _, minor in cert}
    assert len(minors) > 1
    assert len(reads) == len(minors)


def test_treelike_multipliers_are_signed_monomials():
    # every tree-like free <= 8-omino: each multiplier is one term with
    # coefficient +-1, and the certificate expands as Polynomial arithmetic
    # does, to the labeling's binomial
    rng = random.Random(47)
    shapes = [P for level in free_polyominoes(8).values() for P in level]
    tree_like = [P for P in shapes if is_tree_like(P).tree_like]
    assert tree_like
    for P in tree_like:
        basis = admissible_lattice(P)
        for _ in range(2):
            alpha = random_admissible_labeling(P, basis, rng)
            cert = balanced_certificate_treelike(P, alpha)
            for multiplier, _ in cert:
                ((_, coeff),) = multiplier.terms.items()
                assert type(coeff) is int and coeff in (1, -1), P
            expanded = expand_certificate(cert)
            assert expanded == _naive_expansion(cert) == labeling_binomial(P, alpha), P

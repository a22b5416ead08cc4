"""Constructive membership certificates on tree-like polyominoes."""

import random

import pytest

from polyomino_ideals import (
    NotAdmissibleError,
    NotTreeLikeError,
    admissible_lattice,
    balanced_certificate_treelike,
    cell_vector,
    expand_certificate,
    inner_minors,
    is_pure_difference,
    labeling_binomial,
    vector_labeling,
)
from conftest import random_admissible_labeling, random_tree_like

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

"""Integer linear algebra: HNF, kernels, invariant factors."""

import random

import pytest

from polyomino_ideals import (
    LatticeBasis,
    hermite_normal_form,
    invariant_factors,
    kernel_basis,
    matrix_rank,
)
from polyomino_ideals.intlinalg import identity_matrix, xgcd
from conftest import (
    admissible_matrix,
    cell_lattice_basis,
    grow_polyomino,
    int_det,
    invariant_factors_by_minors,
    mat_mul,
    rational_rank,
)


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_xgcd():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert g == x * a + y * b
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_examples():
    H, U = hermite_normal_form([[1, 1], [0, 1]])
    assert H == [[1, 0], [0, 1]]
    assert mat_mul(U, [[1, 1], [0, 1]]) == H

    H, _ = hermite_normal_form(identity_matrix(3))
    assert H == identity_matrix(3)

    H, _ = hermite_normal_form([[2, 4]])
    assert H == [[2, 4]]


def test_hnf_transform_is_unimodular():
    rng = random.Random(2)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        H, U = hermite_normal_form(M)
        assert mat_mul(U, M) == H
        assert int_det(U) in (1, -1)
        # echelon with positive pivots, reduced above
        pivots = []
        for row in H:
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is None:
                continue
            assert row[nz] > 0
            pivots.append(nz)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for k, c in enumerate(pivots):
            for above in range(k):
                assert 0 <= H[above][c] < H[k][c]


def test_hnf_without_transform_gives_the_same_form():
    rng = random.Random(6)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(0, 5), rng.randint(1, 5))
        H, U = hermite_normal_form(M, transform=False)
        assert U is None
        assert H == hermite_normal_form(M)[0]


def test_snf_examples():
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert invariant_factors(identity_matrix(4)) == (1, 1, 1, 1)
    assert invariant_factors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == (2, 6, 12)
    assert invariant_factors([[4, 0, 0], [0, 6, 0]]) == (2, 12)
    assert invariant_factors([]) == invariant_factors([[]]) == ()
    assert invariant_factors([[0, 0], [0, 0], [0, 0]]) == ()


def test_snf_domino_cell_matrix(P2):
    M = [list(v) for v in cell_lattice_basis(P2).vectors]
    assert invariant_factors(M) == (1, 1)


def test_snf_properties_random():
    # against the determinantal divisors, on tall, wide, square, zero and
    # empty matrices; entries with common factors and products of thin
    # matrices give nonunit factors and deficient rank
    rng = random.Random(3)
    mats = [[], [[]], [[0] * 4], [[0]] * 3, [[0] * 3] * 5]
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mats.append(random_matrix(rng, m, n))
        mats.append([[rng.choice((0, 2, -4, 6, 12, -18, 30)) for _ in range(n)] for _ in range(m)])
        k = rng.randint(1, 3)
        mats.append(mat_mul(random_matrix(rng, m, k, -3, 3), random_matrix(rng, k, n, -3, 3)))
    for M in mats:
        assert invariant_factors(M) == invariant_factors_by_minors(M)


@pytest.mark.parametrize(
    "fn", [hermite_normal_form, matrix_rank, kernel_basis, invariant_factors]
)
@pytest.mark.parametrize("mat", [[[2, 4, 6], [1, 1]], [[1, 1], [2, 4, 6]], [[1], [1, 2], [3]]])
def test_ragged_matrices_are_rejected(fn, mat):
    with pytest.raises(ValueError, match="differ in length"):
        fn(mat)


@pytest.mark.parametrize(
    "fn", [hermite_normal_form, matrix_rank, kernel_basis, invariant_factors]
)
@pytest.mark.parametrize("mat", [[[1.5, -1]], [[2.9, 0], [0, 3.2]], [[2.0, 1]]])
def test_non_integral_entries_are_rejected(fn, mat):
    # int() would truncate: the kernel of [1.5, -1] would come back as (1, 1)
    # and the invariant factors of diag(2.9, 3.2) as (1, 6)
    with pytest.raises(TypeError):
        fn(mat)


def test_lattice_basis_rejects_non_integral_vectors():
    with pytest.raises(TypeError):
        LatticeBasis(((1.0, -1),), 2)


def test_matrix_rank_matches_rational_rank():
    rng = random.Random(4)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert matrix_rank(M) == rational_rank(M)


def test_kernel_basis_examples(P1, P5):
    kb = kernel_basis([[1, 1]])
    assert kb.vectors == ((1, -1),)

    adm1 = kernel_basis(admissible_matrix(P1), ncols=4)
    assert adm1.vectors == ((1, -1, -1, 1),)

    adm5 = kernel_basis(admissible_matrix(P5), ncols=16)
    assert adm5.rank == 9


@pytest.mark.parametrize("ncols", [1, 5])
def test_kernel_basis_rejects_a_wrong_column_count(ncols):
    with pytest.raises(ValueError, match=f"ncols is {ncols}, the matrix has 2 columns"):
        kernel_basis([[1, 1]], ncols=ncols)


def test_kernel_vectors_annihilate_and_saturate():
    rng = random.Random(5)
    for _ in range(30):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        kb = kernel_basis(M)
        for v in kb.vectors:
            assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in M)
        assert invariant_factors(kb.vectors) == (1,) * kb.rank
        assert kb.rank == len(M[0]) - rational_rank(M) == rational_rank(kb.vectors)


def test_kernel_basis_makes_two_hermite_forms(monkeypatch, P5):
    # one with transform for the kernel, one for its canonical form; the
    # echelon rows need no rank check
    from polyomino_ideals import intlinalg

    calls = []
    real = intlinalg.hermite_normal_form

    def counting(mat, transform=True):
        calls.append(transform)
        return real(mat, transform)

    monkeypatch.setattr(intlinalg, "hermite_normal_form", counting)
    assert kernel_basis(admissible_matrix(P5), ncols=16).rank == 9
    assert calls == [True, False]


def test_is_saturated(P4):
    # a basis spans a saturated lattice iff its invariant factors are all 1
    assert invariant_factors(LatticeBasis(((1, -1),), 2).vectors) == (1,)
    assert invariant_factors(LatticeBasis(((2, 0),), 2).vectors) == (2,)
    assert invariant_factors(cell_lattice_basis(P4).vectors) == (1,) * len(P4)


def test_lattice_basis_rejects_dependent_rows():
    for rows in (((1, 2), (2, 4)), ((1, 2), (0, 0)), ((0, 0), (0, 1)), ((0, 1), (0, 3))):
        with pytest.raises(ValueError):
            LatticeBasis(rows, 2)
    # independent rows pass in and out of echelon form
    assert LatticeBasis(((0, 1), (1, 0)), 2).rank == LatticeBasis(((1, 0), (0, 1)), 2).rank == 2


def test_cell_matrices_have_unit_invariant_factors(fixtures):
    rng = random.Random(8)
    samples = list(fixtures.values()) + [grow_polyomino(rng.randint(1, 8), rng) for _ in range(10)]
    for P in samples:
        M = [list(v) for v in cell_lattice_basis(P).vectors]
        assert matrix_rank(M) == len(P)
        assert invariant_factors(M) == (1,) * len(P)

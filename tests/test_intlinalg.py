"""Integer linear algebra: HNF, SNF, kernels, lattice membership."""

import random

import pytest

from polyomino_ideals import (
    LatticeBasis,
    admissible_matrix,
    cell_lattice_basis,
    hermite_normal_form,
    invariant_factors,
    is_saturated,
    kernel_basis,
    lattice_coordinates,
    matrix_rank,
    smith_normal_form,
)
from polyomino_ideals.intlinalg import identity_matrix, xgcd
from conftest import grow_polyomino, int_det, mat_mul, rational_rank


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


def test_snf_examples():
    D, S, T = smith_normal_form([[2, 0], [0, 3]])
    assert D == [[1, 0], [0, 6]]
    assert mat_mul(mat_mul(S, [[2, 0], [0, 3]]), T) == D

    D, _, _ = smith_normal_form(identity_matrix(4))
    assert D == identity_matrix(4)


def test_snf_domino_cell_matrix(P2):
    M = [list(v) for v in cell_lattice_basis(P2).vectors]
    assert invariant_factors(M) == (1, 1)


def test_snf_properties_random():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        D, S, T = smith_normal_form(M)
        assert mat_mul(mat_mul(S, M), T) == D
        assert int_det(S) in (1, -1) and int_det(T) in (1, -1)
        diag = [D[k][k] for k in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            elif b:
                assert b % a == 0
        assert all(d >= 0 for d in diag)


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


def test_kernel_vectors_annihilate_and_saturate():
    rng = random.Random(5)
    for _ in range(30):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        kb = kernel_basis(M)
        for v in kb.vectors:
            assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in M)
        assert is_saturated(kb)
        assert kb.rank == len(M[0]) - rational_rank(M)


def test_lattice_coordinates(P1, P2):
    B2 = cell_lattice_basis(P2)
    idx = P2.vertex_index
    v = [0] * 6
    v[idx[(0, 0)]], v[idx[(0, 1)]], v[idx[(2, 0)]], v[idx[(2, 1)]] = 1, -1, -1, 1
    assert lattice_coordinates(B2, v) == (1, 1)

    B1 = cell_lattice_basis(P1)
    assert lattice_coordinates(B1, (1, -1, -1, 1)) == (1,)
    assert lattice_coordinates(B1, (1, 0, 0, 0)) is None
    # scaled lattice: membership needs exact divisibility
    assert lattice_coordinates(LatticeBasis(((2, 0),), 2), (1, 0)) is None
    assert lattice_coordinates(LatticeBasis(((2, 0),), 2), (4, 0)) == (2,)


def test_lattice_coordinates_round_trip():
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(2, 6)
        r = rng.randint(1, n)
        while True:
            vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(r)]
            if rational_rank([list(v) for v in vecs]) == r:
                break
        basis = LatticeBasis(tuple(vecs), n)
        coords = tuple(rng.randint(-4, 4) for _ in range(r))
        v = [sum(c * w[t] for c, w in zip(coords, vecs)) for t in range(n)]
        found = lattice_coordinates(basis, v)
        assert found is not None
        rebuilt = [sum(c * w[t] for c, w in zip(found, vecs)) for t in range(n)]
        assert rebuilt == v


def test_is_saturated(P4):
    assert is_saturated(LatticeBasis(((1, -1),), 2))
    assert not is_saturated(LatticeBasis(((2, 0),), 2))
    assert is_saturated(cell_lattice_basis(P4))


def test_lattice_basis_rejects_dependent_rows():
    with pytest.raises(ValueError):
        LatticeBasis(((1, 2), (2, 4)), 2)


def test_cell_matrices_have_unit_invariant_factors(fixtures):
    rng = random.Random(8)
    samples = list(fixtures.values()) + [grow_polyomino(rng.randint(1, 8), rng) for _ in range(10)]
    for P in samples:
        M = [list(v) for v in cell_lattice_basis(P).vectors]
        assert matrix_rank(M) == len(P)
        assert invariant_factors(M) == (1,) * len(P)

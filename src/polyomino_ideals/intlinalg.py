"""Exact integer linear algebra: Hermite and Smith normal forms, kernels.

Matrices are plain lists of lists of Python ints, so there is no overflow to
worry about.  Both normal forms return their unimodular transforms; the
transforms double as solvers (kernel extraction, lattice membership).
"""

from __future__ import annotations

from dataclasses import dataclass


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with g = gcd(a, b) >= 0 and g = x*a + y*b."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _combine_rows(H, U, r, i, c):
    """Zero H[i][c] against H[r][c] with a unimodular 2-row operation."""
    a, b = H[r][c], H[i][c]
    if b == 0:
        return
    if a != 0 and b % a == 0:
        q = b // a
        H[i] = [x - q * y for x, y in zip(H[i], H[r])]
        U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        return
    g, x, y = xgcd(a, b)
    ag, bg = a // g, b // g
    H[r], H[i] = (
        [x * p + y * q for p, q in zip(H[r], H[i])],
        [-bg * p + ag * q for p, q in zip(H[r], H[i])],
    )
    U[r], U[i] = (
        [x * p + y * q for p, q in zip(U[r], U[i])],
        [-bg * p + ag * q for p, q in zip(U[r], U[i])],
    )


def hermite_normal_form(mat) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF: returns (H, U) with U unimodular and U * mat = H.

    H is in echelon form with positive pivots and entries above each pivot
    reduced into [0, pivot).  Zero rows sink to the bottom.
    """
    H = [[int(x) for x in row] for row in mat]
    m = len(H)
    n = len(H[0]) if m else 0
    U = identity_matrix(m)
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if H[i][c]), None)
        if pivot is None:
            continue
        H[r], H[pivot] = H[pivot], H[r]
        U[r], U[pivot] = U[pivot], U[r]
        for i in range(r + 1, m):
            _combine_rows(H, U, r, i, c)
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    return H, U


def matrix_rank(mat) -> int:
    H, _ = hermite_normal_form(mat)
    return sum(1 for row in H if any(row))


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Returns (D, S, T) with S * mat * T = D diagonal and d_k | d_{k+1}.

    S and T are unimodular.
    """
    D = [[int(x) for x in row] for row in mat]
    m = len(D)
    n = len(D[0]) if m else 0
    S = identity_matrix(m)
    T = identity_matrix(n)

    def col_combine(j1, j2, i):
        # zero D[i][j2] against D[i][j1]
        a, b = D[i][j1], D[i][j2]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for row in D:
                row[j2] -= q * row[j1]
            for row in T:
                row[j2] -= q * row[j1]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        for row in D:
            row[j1], row[j2] = x * row[j1] + y * row[j2], -bg * row[j1] + ag * row[j2]
        for row in T:
            row[j1], row[j2] = x * row[j1] + y * row[j2], -bg * row[j1] + ag * row[j2]

    def swap_cols(j1, j2):
        for row in D:
            row[j1], row[j2] = row[j2], row[j1]
        for row in T:
            row[j1], row[j2] = row[j2], row[j1]

    k = 0
    while k < min(m, n):
        pos = next(
            ((i, j) for i in range(k, m) for j in range(k, n) if D[i][j]),
            None,
        )
        if pos is None:
            break
        i0, j0 = pos
        D[k], D[i0] = D[i0], D[k]
        S[k], S[i0] = S[i0], S[k]
        if j0 != k:
            swap_cols(k, j0)
        while True:
            for i in range(k + 1, m):
                _combine_rows(D, S, k, i, k)
            if any(D[k][j] for j in range(k + 1, n)):
                for j in range(k + 1, n):
                    col_combine(k, j, k)
                if any(D[i][k] for i in range(k + 1, m)):
                    continue
            break
        k += 1

    for k in range(min(m, n)):
        if D[k][k] < 0:
            D[k] = [-x for x in D[k]]
            S[k] = [-x for x in S[k]]

    changed = True
    while changed:
        changed = False
        for k in range(min(m, n) - 1):
            a, b = D[k][k], D[k + 1][k + 1]
            if a and b and b % a:
                changed = True
                # bring b into row k and re-triangularize the 2x2 block
                D[k] = [x + y for x, y in zip(D[k], D[k + 1])]
                S[k] = [x + y for x, y in zip(S[k], S[k + 1])]
                col_combine(k, k + 1, k)
                _combine_rows(D, S, k, k + 1, k)
                col_combine(k, k + 1, k)
                if D[k][k] < 0:
                    D[k] = [-x for x in D[k]]
                    S[k] = [-x for x in S[k]]
                if D[k + 1][k + 1] < 0:
                    D[k + 1] = [-x for x in D[k + 1]]
                    S[k + 1] = [-x for x in S[k + 1]]
    return D, S, T


def invariant_factors(mat) -> tuple[int, ...]:
    D, _, _ = smith_normal_form(mat)
    return tuple(D[k][k] for k in range(min(len(D), len(D[0]) if D else 0)) if D[k][k])


@dataclass(frozen=True)
class LatticeBasis:
    """Rows span an integer lattice; rows are rationally independent."""

    vectors: tuple[tuple[int, ...], ...]
    ambient: int

    def __post_init__(self):
        vecs = tuple(tuple(int(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        for v in vecs:
            if len(v) != self.ambient:
                raise ValueError("vector length does not match ambient dimension")
        if vecs and matrix_rank(list(map(list, vecs))) != len(vecs):
            raise ValueError("basis vectors are not linearly independent")

    @property
    def rank(self) -> int:
        return len(self.vectors)


def kernel_basis(mat, ncols: int | None = None) -> LatticeBasis:
    """Basis of the saturated integer kernel {v : mat * v = 0}.

    Derived from the HNF transform of the transpose, so the basis spans all
    integer solutions; the result is itself put in HNF for a canonical form.
    """
    if not mat:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return LatticeBasis(tuple(tuple(r) for r in identity_matrix(ncols)), ncols)
    n = len(mat[0])
    N = [list(col) for col in zip(*mat)]  # n x m
    H, U = hermite_normal_form(N)
    rank = sum(1 for row in H if any(row))
    vecs = U[rank:]
    if vecs:
        Hk, _ = hermite_normal_form(vecs)
        vecs = [row for row in Hk if any(row)]
    return LatticeBasis(tuple(tuple(v) for v in vecs), n)


def lattice_coordinates(basis: LatticeBasis, v) -> tuple[int, ...] | None:
    """Integer coordinates of v in the basis, or None when v is outside.

    HNF makes the basis triangular, so membership reduces to exact back
    substitution along the pivots.
    """
    v = [int(x) for x in v]
    if len(v) != basis.ambient:
        raise ValueError("vector length does not match ambient dimension")
    if not basis.vectors:
        return () if not any(v) else None
    H, U = hermite_normal_form([list(row) for row in basis.vectors])
    r = len(basis.vectors)
    residual = list(v)
    y = []
    for row in H[:r]:
        c = next(j for j, x in enumerate(row) if x)
        if residual[c] % row[c]:
            return None
        q = residual[c] // row[c]
        y.append(q)
        residual = [x - q * h for x, h in zip(residual, row)]
    if any(residual):
        return None
    coords = [sum(yk * U[k][t] for k, yk in enumerate(y)) for t in range(r)]
    return tuple(coords)


def is_saturated(basis: LatticeBasis) -> bool:
    """True iff all Smith invariant factors of the basis matrix are 1."""
    if not basis.vectors:
        return True
    return all(d == 1 for d in invariant_factors([list(r) for r in basis.vectors]))

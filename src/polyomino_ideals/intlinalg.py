"""Exact integer linear algebra: Hermite normal form, kernels, invariant factors.

Matrices are plain lists of lists of Python ints, so there is no overflow to
worry about; rows of unequal length raise ValueError, non-integer entries
TypeError.  The Hermite normal form builds its unimodular transform only
when asked, for saturated kernel bases; alternating Hermite forms of a
matrix and its transpose give its invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index


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


def _int_matrix(mat) -> list[list[int]]:
    """A fresh copy of mat with int entries; ragged rows or non-integers raise."""
    rows = [list(map(index, row)) for row in mat]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows differ in length")
    return rows


def _combine_rows(H, U, r, i, c):
    """Zero H[i][c] against H[r][c] with a unimodular 2-row operation,
    applied to U too unless U is None."""
    a, b = H[r][c], H[i][c]
    if b == 0:
        return
    mats = (H,) if U is None else (H, U)
    if a != 0 and b % a == 0:
        q = b // a
        for M in mats:
            M[i] = [x - q * y for x, y in zip(M[i], M[r])]
        return
    g, x, y = xgcd(a, b)
    ag, bg = a // g, b // g
    for M in mats:
        M[r], M[i] = (
            [x * p + y * q for p, q in zip(M[r], M[i])],
            [-bg * p + ag * q for p, q in zip(M[r], M[i])],
        )


def hermite_normal_form(
    mat, transform: bool = True
) -> tuple[list[list[int]], list[list[int]] | None]:
    """Row-style HNF: returns (H, U) with U unimodular and U * mat = H.

    H is in echelon form with positive pivots and entries above each pivot
    reduced into [0, pivot).  Zero rows sink to the bottom.  With transform
    False, U is not built and None comes back in its place.
    """
    H = _int_matrix(mat)
    m = len(H)
    n = len(H[0]) if m else 0
    U = identity_matrix(m) if transform else None
    mats = (H,) if U is None else (H, U)
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if H[i][c]), None)
        if pivot is None:
            continue
        for M in mats:
            M[r], M[pivot] = M[pivot], M[r]
        for i in range(r + 1, m):
            if H[i][c]:
                _combine_rows(H, U, r, i, c)
        if H[r][c] < 0:
            for M in mats:
                M[r] = [-x for x in M[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                for M in mats:
                    M[i] = [x - q * y for x, y in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    return H, U


def matrix_rank(mat) -> int:
    H, _ = hermite_normal_form(mat, transform=False)
    return sum(1 for row in H if any(row))


def invariant_factors(mat) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of the Smith form of mat.

    Row Hermite forms of the matrix and of its transpose alternate, zero rows
    dropped, until every row has one nonzero entry (Kannan-Bachem, SIAM J.
    Comput. 8, 1979).  Each round keeps the lattice's invariant factors and
    the first pivot never grows: it shrinks until it divides its row and
    column, so the loop ends with a diagonal up to column order.  Pairwise
    (gcd, lcm) steps then sort each prime's exponents along the diagonal.
    Starting on the taller orientation lets a saturated wide matrix such as
    a cell matrix finish in one round.
    """
    D = _int_matrix(mat)
    if D and len(D) < len(D[0]):
        D = [list(col) for col in zip(*D)]
    while True:
        D = [row for row in hermite_normal_form(D, transform=False)[0] if any(row)]
        if all(len(row) - row.count(0) == 1 for row in D):
            break
        D = [list(col) for col in zip(*D)]
    d = sorted(x for row in D for x in row if x)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


def _in_echelon_form(rows) -> bool:
    """Whether every row is nonzero and leads strictly right of the row
    above it, which makes the rows independent."""
    last = -1
    for row in rows:
        lead = next((k for k, x in enumerate(row) if x), None)
        if lead is None or lead <= last:
            return False
        last = lead
    return True


@dataclass(frozen=True)
class LatticeBasis:
    """Rows span an integer lattice; rows are rationally independent.

    Rows in echelon form are independent as they stand, such as
    ``kernel_basis``'s Hermite rows and cell vectors in row-major order;
    any other rows are checked by their rank.
    """

    vectors: tuple[tuple[int, ...], ...]
    ambient: int

    def __post_init__(self):
        vecs = tuple(tuple(map(index, v)) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        for v in vecs:
            if len(v) != self.ambient:
                raise ValueError("vector length does not match ambient dimension")
        if not _in_echelon_form(vecs) and matrix_rank(list(map(list, vecs))) != len(vecs):
            raise ValueError("basis vectors are not linearly independent")

    @property
    def rank(self) -> int:
        return len(self.vectors)


def kernel_basis(mat, ncols: int | None = None) -> LatticeBasis:
    """Basis of the saturated integer kernel {v : mat * v = 0}.

    Derived from the HNF transform of the transpose, so the basis spans all
    integer solutions; the result is itself put in HNF for a canonical form.
    ncols is required for an empty matrix and must match any other.
    """
    if not mat:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return LatticeBasis(tuple(tuple(r) for r in identity_matrix(ncols)), ncols)
    mat = _int_matrix(mat)
    n = len(mat[0])
    if ncols is not None and ncols != n:
        raise ValueError(f"ncols is {ncols}, the matrix has {n} columns")
    N = [list(col) for col in zip(*mat)]  # n x m
    H, U = hermite_normal_form(N)
    rank = sum(1 for row in H if any(row))
    vecs = U[rank:]
    if vecs:
        Hk, _ = hermite_normal_form(vecs, transform=False)
        vecs = [row for row in Hk if any(row)]
    return LatticeBasis(tuple(tuple(v) for v in vecs), n)

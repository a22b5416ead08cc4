"""Constructive membership certificates for tree-like polyominoes.

For a tree-like polyomino every admissible labeling's binomial lies in the
ideal of inner minors, and the proof is effective: pick a good leaf, peel one
unit off the labels across an inner minor supported on the leaf's cell
interval, and repeat.  The certificate lists (multiplier, inner minor) pairs
whose products sum exactly to the labeling's binomial.
"""

from __future__ import annotations

from .classify import GOOD, classify_leaf, is_tree_like, leaf_interval
from .errors import NotAdmissibleError, NotTreeLikeError
from .grid import (
    HORIZONTAL,
    Polyomino,
    edge_interval_through,
    leaves,
    point_key,
)
from .ideals import inner_minor, is_admissible, labeling_binomial, labeling_vector
from .polynomials import Polynomial, mono_gcd, mono_mul, mono_one

Certificate = list[tuple[Polynomial, Polynomial]]


def expand_certificate(cert: Certificate) -> Polynomial:
    """Sum of multiplier * minor over the certificate, exact arithmetic."""
    total = Polynomial.zero()
    for multiplier, minor in cert:
        total = total + multiplier * minor
    return total


def _positive_monomial(P: Polyomino, values: dict) -> tuple:
    vec = [0] * P.num_vertices
    idx = P.vertex_index
    for pt, v in values.items():
        if v > 0:
            vec[idx[pt]] = v
    return tuple(vec)


def _peel_site(sub: Polyomino):
    """The good leaf the certificate peels from sub, its cell interval's
    direction, and the leaf's free vertices a1 and a2 (a2 on the matching
    edge interval)."""
    good = [lf for lf in leaves(sub) if classify_leaf(sub, lf.cell) == GOOD]
    if not good:
        raise RuntimeError("tree-like polyomino without a good leaf")
    leaf = min(good, key=lambda lf: point_key(lf.cell))
    interval = leaf_interval(sub, leaf.cell)
    witnesses = [
        v
        for v in leaf.free_vertices
        if edge_interval_through(sub, v, interval.direction).num_edges
        == interval.num_cells
    ]
    a2 = min(witnesses, key=point_key)
    a1 = next(v for v in leaf.free_vertices if v != a2)
    return leaf, interval.direction, a1, a2


def _certify(P: Polyomino, values: dict) -> Certificate:
    """Certificate for the binomial of an admissible labeling of P.

    Peels one unit at a time off the labels of a good leaf's free vertices
    across an inner minor on the leaf's cell interval; once both free labels
    vanish the leaf cell is dropped.  The sub-polyominoes share coordinates
    with P (no renormalization), so their minors are minors of P.  After a
    step the rest of the binomial is cofactor * (binomial of the new
    labels) up to sign, so sign and cofactor scale every later multiplier.
    """
    idx = P.vertex_index
    cert: Certificate = []
    sign = 1
    cofactor = mono_one(P.num_vertices)
    sub = P
    values = {pt: v for pt, v in values.items() if v}
    while values:
        leaf, direction, a1, a2 = _peel_site(sub)
        while values.get(a1, 0):
            if values[a1] < 0:
                sign = -sign
                values = {pt: -v for pt, v in values.items()}

            # values[a1] > 0, values[a2] < 0; find an opposite sign inside the
            # matching interval through a2 and cancel across an inner minor
            span = edge_interval_through(sub, a2, direction)
            c = min(
                (w for w in span.vertices() if values.get(w, 0) > 0),
                key=point_key,
            )
            if direction == HORIZONTAL:
                d = (c[0], a1[1])
            else:
                d = (a1[0], c[1])
            corners = (a1, a2, c, d)
            ll = min(corners)
            ur = max(corners)
            minor = inner_minor(P, (ll, ur))
            step_sign = 1 if {a1, c} == {ll, ur} else -1

            shift = list(_positive_monomial(P, values))
            shift[idx[a1]] -= 1
            shift[idx[c]] -= 1
            multiplier = Polynomial.monomial(tuple(shift), step_sign)
            cert.append(
                (Polynomial.monomial(mono_mul(shift, cofactor), sign * step_sign), minor)
            )

            remainder = labeling_binomial(P, values) - multiplier * minor
            if not remainder:
                return cert
            m1, m2 = remainder.terms
            cofactor = mono_mul(cofactor, mono_gcd(m1, m2))
            for pt, dv in ((a1, -1), (c, -1), (a2, 1), (d, 1)):
                values[pt] = values.get(pt, 0) + dv
            values = {pt: v for pt, v in values.items() if v}

        # both free labels vanish; drop the leaf cell
        sub = Polyomino(sub.cells - {leaf.cell}, normalize=False)
        kept = set(sub.vertices)
        values = {pt: v for pt, v in values.items() if pt in kept}
    return cert


def balanced_certificate_treelike(P: Polyomino, labeling: dict) -> Certificate:
    """Express the labeling's binomial as an explicit combination of inner
    minors; only valid for tree-like polyominoes."""
    if not is_tree_like(P).tree_like:
        raise NotTreeLikeError("certificates require a tree-like polyomino")
    if not is_admissible(P, labeling):
        raise NotAdmissibleError("labeling does not sum to zero on all intervals")
    vec = labeling_vector(P, labeling)
    values = {P.vertices[k]: v for k, v in enumerate(vec) if v}
    return _certify(P, values)

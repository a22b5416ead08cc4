"""Constructive membership certificates for tree-like polyominoes.

For a tree-like polyomino every admissible labeling's binomial lies in the
ideal of inner minors, and the proof is effective: pick a good leaf, peel one
unit off the labels across an inner minor supported on the leaf's cell
interval, and repeat.  The certificate lists (multiplier, inner minor) pairs
whose products sum exactly to the labeling's binomial.

The leaves peeled depend only on P: they are the good-leaf prefix of the
leaf-peeling chain that ``classify`` builds once per polyomino to decide
tree-likeness.  The peel plan maps that prefix to vertex indices and inner
minors once per P; a labeling uses a prefix of the plan, and each of its
steps changes the labels and the multiplier in four places, then copies
the multiplier's exponent into a one-term ``Polynomial``.  Steps across one
option come in a batch, with the labels updated once per batch.

``expand_certificate`` checks any certificate of that format, not only
these: it sums the products exactly, reading each distinct minor's few
nonzero exponents once per minor (``Polynomial._sparse_terms``, kept on the
minor) instead of adding whole exponent tuples.
"""

from __future__ import annotations

from .classify import _peel_chain
from .errors import NotTreeLikeError
from .grid import HORIZONTAL, Polyomino
from .ideals import _admissible_labeling_vector, _minor
from .polynomials import Polynomial

Certificate = list[tuple[Polynomial, Polynomial]]


def expand_certificate(cert: Certificate) -> Polynomial:
    """Sum of multiplier * minor over the certificate, exact arithmetic.

    Each minor is read as the places where each of its terms' exponents is
    nonzero, once per minor object and kept on it; a product term copies
    the multiplier term's exponent and adds at those places.  A multiplier
    and a minor over different variable counts raise ValueError.
    """
    total: dict = {}
    for multiplier, minor in cert:
        nvars, terms = minor._sparse_terms()
        if not terms:
            continue
        for m1, c1 in multiplier.terms.items():
            if len(m1) != nvars:
                raise ValueError(
                    f"multiplier over {len(m1)} variables, minor over {nvars} variables"
                )
            for places, c2 in terms:
                m = list(m1)
                for k, e in places:
                    m[k] += e
                m = tuple(m)
                total[m] = total.get(m, 0) + c1 * c2
    return Polynomial(total)


def _peel_plan(P: Polyomino) -> list:
    """(a1, a2, options) per good leaf peeled, as vertex indices of P: the
    prefix of the leaf-peeling chain before its first bad leaf.  options
    holds (c, d, step sign, minor) for each vertex c other than a2 of a2's
    edge interval, in row-major order, d completing the rectangle a1 a2 c d.

    A P that is not tree-like raises NotTreeLikeError.
    """
    return P.derived("peel_plan", lambda: _plan(P))


def _plan(P: Polyomino) -> list:
    steps, stuck = _peel_chain(P)
    if stuck is not None:
        raise NotTreeLikeError("certificates require a tree-like polyomino")
    idx = P.vertex_index
    plan = []
    for _, a1, a2, direction, edge in steps:
        if a2 is None:
            break
        options = []
        for c in edge:
            if c != a2:
                d = (c[0], a1[1]) if direction == HORIZONTAL else (a1[0], c[1])
                ll, ur = min(a1, a2, c, d), max(a1, a2, c, d)
                step_sign = 1 if {a1, c} == {ll, ur} else -1
                options.append((idx[c], idx[d], step_sign, _minor(P, (ll, ur))))
        plan.append((idx[a1], idx[a2], tuple(options)))
    return plan


def _certify(plan: list, vec: list[int]) -> Certificate:
    """Certificate for x^p - x^q, p and q the positive and negative parts of
    the admissible labels vec, in integer updates of the labels.

    Each plan entry peels one unit at a time off the labels of a1 (made
    positive by negating every label, which flips sign) and a2 across the
    minor of the first option c with a positive label.  With e_v the unit
    vector of v, the multiplier x^(p - e_a1 - e_c) times the minor is
    x^p - x^(p - e_a1 - e_c + e_a2 + e_d), so the remainder is
    x^(p - e_a1 - e_c + e_a2 + e_d) - x^q: zero once the new labels
    vec - e_a1 - e_c + e_a2 + e_d vanish, else their binomial times the gcd
    of its terms.  As p and q have disjoint supports, that gcd is e_a2 plus
    e_d, each iff its label was negative.  So sign and the product of the
    gcds (cofactor) scale every later multiplier.

    Labels are stored unnegated and read times sign.  shift = p + cofactor,
    the multiplier's exponent plus e_a1 + e_c, falls at a1 and c and rises
    at a2 and d each step.  other = q + cofactor, what shift becomes at a
    flip (p and q swap), never changes: q is 0 at a1 and c, and where a
    step raises a negative label at a2 or d, q falls as the cofactor rises.

    A step changes the labels only at a1, c, a2 and d.  Neither a1 nor a2
    is an option, and d lies on the line through a1 parallel to a2's edge
    interval, so it is none either: c stays the first option with a
    positive label, and sign stays put, for min(sign * vals[a1],
    sign * vals[c]) steps, which run as one batch.
    """
    vals = list(vec)
    cert: Certificate = []
    emit = cert.append
    new = Polynomial.__new__
    sign = 1
    shift = [v if v > 0 else 0 for v in vals]
    other = [-v if v < 0 else 0 for v in vals]
    for a1, a2, options in plan:
        while vals[a1]:
            if sign * vals[a1] < 0:
                sign = -sign
                shift, other = other, shift
            for c, d, step_sign, minor in options:
                if sign * vals[c] > 0:
                    break
            else:
                raise RuntimeError("good leaf without an option of positive label")
            steps = min(sign * vals[a1], sign * vals[c])
            coeff = sign * step_sign
            for _ in range(steps):
                shift[a1] -= 1
                shift[c] -= 1
                emit((new(Polynomial)._adopt({tuple(shift): coeff}), minor))
                shift[a2] += 1
                shift[d] += 1
            moved = sign * steps
            vals[a1] -= moved
            vals[c] -= moved
            vals[a2] += moved
            vals[d] += moved
    if any(vals):
        raise RuntimeError("tree-like polyomino without a good leaf")
    return cert


def balanced_certificate_treelike(P: Polyomino, labeling: dict) -> Certificate:
    """Express the labeling's binomial as an explicit combination of inner
    minors; only valid for tree-like polyominoes."""
    return _certify(_peel_plan(P), _admissible_labeling_vector(P, labeling))

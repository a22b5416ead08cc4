"""Constructive membership certificates for tree-like polyominoes.

For a tree-like polyomino every admissible labeling's binomial lies in the
ideal of inner minors, and the proof is effective: pick a good leaf, peel one
unit off the labels across an inner minor supported on the leaf's cell
interval, and repeat.  The certificate lists (multiplier, inner minor) pairs
whose products sum exactly to the labeling's binomial.

The leaves peeled and the minors they use depend only on P, so the peel plan
is built once and kept on P: the chain P_0 = P, P_1, ..., one cell, where
P_{k+1} is P_k without its smallest good leaf, with that leaf's free
vertices and minors.  A labeling uses a prefix of it.  Building the plan
decides tree-likeness too: a leaf of a polyomino is a leaf of every
sub-polyomino holding it, so peeling leaves never enters a leafless
sub-polyomino; reaching one cell proves P tree-like, a leafless P_k that it
is not.
"""

from __future__ import annotations

from .classify import GOOD, classify_leaf, is_tree_like, leaf_interval
from .errors import NotAdmissibleError, NotTreeLikeError
from .grid import HORIZONTAL, Polyomino, edge_interval_through, leaves
from .ideals import inner_minor, is_admissible, labeling_vector
from .polynomials import Polynomial, mono_mul

Certificate = list[tuple[Polynomial, Polynomial]]


def expand_certificate(cert: Certificate) -> Polynomial:
    """Sum of multiplier * minor over the certificate, exact arithmetic."""
    total: dict = {}
    for multiplier, minor in cert:
        for m1, c1 in multiplier.terms.items():
            for m2, c2 in minor.terms.items():
                m = mono_mul(m1, m2)
                total[m] = total.get(m, 0) + c1 * c2
    return Polynomial(total)


def _peel_plan(P: Polyomino) -> list:
    """(a1, a2, options) per P_k, vertex indices of P: a1 and a2 are the
    leaf's free vertices, a2 on an edge interval as long as the leaf's cell
    interval; options holds (c, d, step sign, minor) for each other vertex c
    of that edge interval, in row-major order, d completing the rectangle.

    A leafless P_k raises NotTreeLikeError.  A P_k with leaves but no good
    leaf ends the plan once ``is_tree_like`` confirms P is tree-like.
    """
    plan = getattr(P, "_peel_plan", None)
    if plan is not None:
        return plan
    idx = P.vertex_index
    plan = []
    sub = P
    while True:
        found = leaves(sub)
        leaf = next((lf for lf in found if classify_leaf(sub, lf.cell) == GOOD), None)
        if leaf is None:
            if found and is_tree_like(P).tree_like:
                break
            raise NotTreeLikeError("certificates require a tree-like polyomino")
        interval = leaf_interval(sub, leaf.cell)
        direction = interval.direction
        a1, a2 = leaf.free_vertices
        if edge_interval_through(sub, a1, direction).num_edges == interval.num_cells:
            a1, a2 = a2, a1
        options = []
        for c in edge_interval_through(sub, a2, direction).vertices():
            if c != a2:
                d = (c[0], a1[1]) if direction == HORIZONTAL else (a1[0], c[1])
                ll, ur = min(a1, a2, c, d), max(a1, a2, c, d)
                step_sign = 1 if {a1, c} == {ll, ur} else -1
                options.append((idx[c], idx[d], step_sign, inner_minor(P, (ll, ur))))
        plan.append((idx[a1], idx[a2], tuple(options)))
        if len(sub) == 1:
            break
        sub = Polyomino(sub.cells - {leaf.cell}, normalize=False)
    P._peel_plan = plan
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
    """
    vals = list(vec)
    cert: Certificate = []
    sign = 1
    cofactor = [0] * len(vals)
    for a1, a2, options in plan:
        while vals[a1]:
            if vals[a1] < 0:
                sign = -sign
                vals = [-v for v in vals]
            c, d, step_sign, minor = next(o for o in options if vals[o[0]] > 0)
            shift = [v + e if v > 0 else e for v, e in zip(vals, cofactor)]
            shift[a1] -= 1
            shift[c] -= 1
            cert.append((Polynomial.monomial(tuple(shift), sign * step_sign), minor))
            for v in (a2, d):
                if vals[v] < 0:
                    cofactor[v] += 1
                vals[v] += 1
            vals[a1] -= 1
            vals[c] -= 1
    if any(vals):
        raise RuntimeError("tree-like polyomino without a good leaf")
    return cert


def balanced_certificate_treelike(P: Polyomino, labeling: dict) -> Certificate:
    """Express the labeling's binomial as an explicit combination of inner
    minors; only valid for tree-like polyominoes."""
    plan = _peel_plan(P)
    if not is_admissible(P, labeling):
        raise NotAdmissibleError("labeling does not sum to zero on all intervals")
    return _certify(plan, labeling_vector(P, labeling))

"""Exact sparse multivariate polynomials over the rationals.

Monomials are dense exponent tuples indexed by variable number; coefficients
are exact (int or Fraction, never floats).  Polynomials are thin immutable
wrappers around a dict mapping monomial to nonzero coefficient; the only
data kept beside it is the sparse form that ``expand_certificate`` reads
off each minor, built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import add, sub

Monomial = tuple  # exponent tuple, one entry per variable


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Exact quotient a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple([x if x > y else y for x, y in zip(a, b)])


def mono_is_squarefree(a: Monomial) -> bool:
    return max(a, default=0) <= 1


class Polynomial:
    """Immutable polynomial; terms maps exponent tuple to nonzero coefficient."""

    __slots__ = ("terms", "_sparse")

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def _binomial(cls, nvars: int, plus, minus) -> "Polynomial":
        """x^(sum of e_k, k in plus) - x^(sum of e_k, k in minus) over nvars
        variables, the plus term first, as ``vector_binomial`` orders it;
        the caller guarantees that the two index lists are disjoint."""
        pos, neg = [0] * nvars, [0] * nvars
        for k in plus:
            pos[k] += 1
        for k in minus:
            neg[k] += 1
        return cls.__new__(cls)._adopt({tuple(pos): 1, tuple(neg): -1})

    def _adopt(self, terms: dict) -> "Polynomial":
        """Take terms, every coefficient nonzero, as this polynomial's own."""
        self.terms = terms
        return self

    def _sparse_terms(self) -> tuple:
        """(variable count, [(places, coefficient), ...]), places the (index,
        exponent) pairs where a term's exponent is nonzero; built on the
        first call and kept.  The zero polynomial has variable count None
        and no terms.  Terms over different variable counts raise
        ValueError, and a build that raises keeps nothing."""
        try:
            return self._sparse
        except AttributeError:
            sparse = self._sparse = _sparse_form(self.terms)
            return sparse

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def key(self) -> frozenset:
        """Hashable canonical form (coefficients normalized to Fraction)."""
        return frozenset((m, Fraction(c)) for m, c in self.terms.items())

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        n = len(next(iter(out or other.terms), ()))
        for m, c in other.terms.items():
            if len(m) != n:
                raise ValueError(f"sum of polynomials over {n} and {len(m)} variables")
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    if len(m1) != len(m2):
                        raise ValueError(
                            f"product of polynomials over {len(m1)} and {len(m2)} variables"
                        )
                    m = mono_mul(m1, m2)
                    v = out.get(m, 0) + c1 * c2
                    if v:
                        out[m] = v
                    else:
                        del out[m]
            return Polynomial(out)
        return Polynomial({m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def term_mul(self, mono: Monomial, coeff=1) -> "Polynomial":
        """Multiply by a single term coeff * x^mono."""
        n = len(next(iter(self.terms), mono))
        if len(mono) != n:
            raise ValueError(f"product of polynomials over {n} and {len(mono)} variables")
        return Polynomial({mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def leading(self, order) -> tuple[Monomial, object]:
        """Leading (monomial, coefficient) under the given order."""
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order) -> "Polynomial":
        _, lc = self.leading(order)
        if lc == 1:
            return self
        if lc == -1:
            return -self
        inv = Fraction(1) / lc
        return Polynomial({m: c * inv for m, c in self.terms.items()})

    def __repr__(self) -> str:
        return f"Polynomial({polynomial_str(self)})"


def _sparse_form(terms: dict) -> tuple:
    """``Polynomial._sparse_terms`` built from scratch."""
    nvars = None
    out = []
    for m, c in terms.items():
        if nvars is None:
            nvars = len(m)
        elif len(m) != nvars:
            raise ValueError(f"minor with terms over {nvars} and {len(m)} variables")
        out.append(([(k, m[k]) for k in compress(range(nvars), m)], c))
    return nvars, out


def polynomial_str(p: Polynomial, names=None) -> str:
    """Readable rendering; terms sorted descending by exponent tuple."""
    if not p.terms:
        return "0"
    if names is None:
        names = [f"x{k}" for k in range(len(next(iter(p.terms))))]
    parts = []
    for m in sorted(p.terms, reverse=True):
        c = p.terms[m]
        factors = []
        for v, e in enumerate(m):
            if e == 1:
                factors.append(names[v])
            elif e > 1:
                factors.append(f"{names[v]}^{e}")
        body = "*".join(factors) if factors else "1"
        if c == 1:
            term = body
        elif c == -1:
            term = f"-{body}"
        else:
            term = f"{c}*{body}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts)


@dataclass(frozen=True)
class IdealGens:
    """A finite generating set of an ideal in a fixed variable count.

    Data derived from the generators once per set (the Groebner engine's
    validated binomial form) is kept through ``derived``, as on a polyomino.
    """

    generators: tuple[Polynomial, ...]
    nvars: int
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if not g:
                raise ValueError("ideal generators must be nonzero")
            for m in g.terms:
                if len(m) != self.nvars:
                    raise ValueError("generator over wrong variable count")

    def derived(self, name: str, build):
        """The value kept under name, else build()'s result, kept from then
        on; a build that raises keeps nothing."""
        if name not in self._derived:
            self._derived[name] = build()
        return self._derived[name]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

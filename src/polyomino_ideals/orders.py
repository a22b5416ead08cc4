"""Monomial orders: lex, deglex, degrevlex and weight vectors.

An order exposes ``key(mono) -> tuple``, compiled once per order, so
monomials compare through their keys; keys from different order instances
are not comparable.  The variable permutation lists variables from greatest
to least precedence.  degrevlex is graded reverse-lex (Cox-Little-O'Shea,
section 2.2): total degree first, then the smaller exponent at the last
distinct position of the permuted arrangement wins.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import accumulate
from operator import itemgetter, mul
from typing import NamedTuple

from .polynomials import Monomial

SCHEMES = ("lex", "deglex", "degrevlex")


class _KeyTable(dict):
    """Order keys by monomial: a monomial not yet in the table is keyed by
    ``compute`` once and kept."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, m):
        k = self[m] = self.compute(m)
        return k


class MonomialOrder:
    """Total multiplicative order on monomials with 1 as minimum."""

    __slots__ = ("scheme", "nvars", "perm", "weights", "key")

    def __init__(self, scheme: str, nvars: int, perm=None, weights=None):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        if perm is None:
            perm = tuple(range(nvars))
        else:
            perm = tuple(perm)
            if sorted(perm) != list(range(nvars)):
                raise ValueError("perm must be a permutation of the variables")
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != nvars:
                raise ValueError("weight vector has wrong length")
            if any(w < 0 for w in weights):
                raise ValueError("weights must be non-negative")
        self.scheme = scheme
        self.nvars = nvars
        self.perm = perm
        self.weights = weights
        # below two variables the perm is (0,) or () and itemgetter gives no tuple
        arrange = itemgetter(*perm) if nvars > 1 else tuple
        key = {
            "lex": arrange,
            "deglex": lambda m: (sum(m), arrange(m)),
            # prefix sums from the degree down: the smaller last exponent wins
            "degrevlex": lambda m: tuple(accumulate(arrange(m)))[::-1],
        }[scheme]
        if weights is not None:
            base = key
            key = lambda m: (sum(map(mul, weights, m)), base(m))
        self.key = key

    @contextmanager
    def _key_table(self):
        """Within the block, ``key`` reads a table that keys each monomial
        at most once; the table is dropped, and ``key`` restored, on exit.
        Every key is the one ``key`` gives outside the block."""
        compute = self.key
        self.key = _KeyTable(compute).__getitem__
        try:
            yield
        finally:
            self.key = compute

    def __reduce__(self):  # the compiled key is a closure, which pickle cannot send
        return MonomialOrder, (self.scheme, self.nvars, self.perm, self.weights)

    def compare(self, m1: Monomial, m2: Monomial) -> int:
        """-1, 0 or 1 as m1 is less than, equal to or greater than m2."""
        k1, k2 = self.key(m1), self.key(m2)
        if k1 < k2:
            return -1
        if k1 > k2:
            return 1
        return 0

    def spec_string(self) -> str:
        parts = [self.scheme]
        if self.perm != tuple(range(self.nvars)):
            parts.append("perm=" + ",".join(map(str, self.perm)))
        if self.weights is not None:
            parts.append("weights=" + ",".join(map(str, self.weights)))
        return ":".join(parts)

    def __repr__(self) -> str:
        return f"MonomialOrder({self.spec_string()!r}, nvars={self.nvars})"


def canonical_order(nvars: int) -> MonomialOrder:
    """The fixed order used for all ideal equality tests: deglex with the
    row-major variables ranked in reverse, which leads every inner minor
    with its diagonal term."""
    return MonomialOrder("deglex", nvars, perm=range(nvars - 1, -1, -1))


def order_sample(
    nvars: int,
    permutations: int = 5,
    weight_orders: int = 5,
    seed: int = 0,
) -> list[MonomialOrder]:
    """Reproducible finite stand-in for ranging over all monomial orders.

    lex, deglex and degrevlex on the canonical numbering, plus seeded random
    variable permutations and seeded non-negative weight vectors (degrevlex
    tie-break).  Negative counts raise ValueError.
    """
    if permutations < 0 or weight_orders < 0:
        raise ValueError(
            f"order counts must be non-negative, got permutations={permutations}, "
            f"weight_orders={weight_orders}"
        )
    rng = random.Random(seed)
    out = [
        MonomialOrder("lex", nvars),
        MonomialOrder("deglex", nvars),
        MonomialOrder("degrevlex", nvars),
    ]
    for _ in range(permutations):
        out.append(MonomialOrder("degrevlex", nvars, perm=rng.sample(range(nvars), nvars)))
    for _ in range(weight_orders):
        ws = tuple(rng.randrange(0, 11) for _ in range(nvars))
        out.append(MonomialOrder("degrevlex", nvars, weights=ws))
    return out


class OrderSpec(NamedTuple):
    scheme: str
    perm: tuple | None
    weights: tuple | None


def parse_order_spec(text: str) -> OrderSpec:
    """Parse ``lex|deglex|degrevlex[:perm=<ints>][:weights=<ints>]``."""
    parts = text.strip().split(":")
    scheme = parts[0]
    if scheme not in SCHEMES:
        raise ValueError(f"unknown order scheme {scheme!r}")
    perm = weights = None
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"malformed order option {part!r}")
        name, _, value = part.partition("=")
        if name not in ("perm", "weights"):
            raise ValueError(f"unknown order option {name!r}")
        try:
            values = tuple(int(x) for x in value.split(","))
        except ValueError:
            raise ValueError(f"order option {name}={value!r} is not a list of integers") from None
        if name == "perm":
            perm = values
        else:
            weights = values
    return OrderSpec(scheme, perm, weights)


def make_order(spec: OrderSpec | str, nvars: int) -> MonomialOrder:
    if isinstance(spec, str):
        spec = parse_order_spec(spec)
    return MonomialOrder(spec.scheme, nvars, perm=spec.perm, weights=spec.weights)

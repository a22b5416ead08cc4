"""A fixed burst of pure-Python work, timed around every measurement so
that the benchmark's times can be expressed at a nominal machine speed.

The machine the benchmark runs on shares its cores with other tenants, and
its speed on pure-Python code drifts by up to 1.5x over seconds to minutes.
So every timed unit and set-up sample lies between two bursts, and its time
is scaled by ``NOMINAL_S`` over the mean of the two burst times: the seconds
it would have taken had the burst taken ``NOMINAL_S``.  The burst after one
measurement is the burst before the next.  The burst imports nothing from
the package under test, so a change to the package moves the scaled times
as much as the raw ones.

The work resembles the package's inner loops: exponent tuples compared,
divided and combined element-wise, counted in a dict, then sorted by degree.
"""

from __future__ import annotations

from time import perf_counter

# The burst's median time on the machine the benchmark was defined on
# (CPython 3.11, 2 cores); scaled times read as seconds on that machine.
NOMINAL_S = 0.03
ROUNDS = 2
MONOMIALS = 60
VARIABLES = 12


def _monomials(state: int) -> tuple[list[tuple], int]:
    out = []
    for _ in range(MONOMIALS):
        m = []
        for _ in range(VARIABLES):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            m.append((state >> 16) % 3)
        out.append(tuple(m))
    return out, state


def work() -> int:
    """The fixed work; returns a checksum so that it cannot be skipped."""
    state = 12345
    total = 0
    for _ in range(ROUNDS):
        monos, state = _monomials(state)
        acc: dict[tuple, int] = {}
        for a in monos:
            for b in monos:
                if all(x <= y for x, y in zip(a, b)):
                    q = tuple(y - x for x, y in zip(a, b))
                    acc[q] = acc.get(q, 0) + 1
                else:
                    lcm = tuple(x if x > y else y for x, y in zip(a, b))
                    acc[lcm] = acc.get(lcm, 0) - 1
        total += len(sorted(acc, key=lambda m: (sum(m), m), reverse=True))
    return total


CHECKSUM = 2980  # what work() returns


def burst() -> float:
    """Seconds the fixed work takes now."""
    t0 = perf_counter()
    if work() != CHECKSUM:
        raise RuntimeError("the calibration burst gave a different checksum")
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """The seconds scaled to the nominal speed by the bursts around them."""
    return seconds * NOMINAL_S * 2 / (before + after)


class Scale:
    """Bursts shared by consecutive measurements."""

    def __init__(self):
        self.previous = None
        self.bursts = []

    def before(self) -> float:
        if self.previous is None:
            self.after()
        return self.previous

    def after(self) -> float:
        self.previous = burst()
        self.bursts.append(self.previous)
        return self.previous

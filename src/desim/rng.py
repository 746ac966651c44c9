"""Seeded random number generation for reproducible simulation runs."""

from __future__ import annotations

import random
from math import inf as _INF, log as _log

__all__ = ["Rng"]


class Rng:
    """Deterministic random stream backed by a Mersenne Twister.

    The generator algorithm (MT19937, as implemented by ``random.Random``)
    is fixed so that a given seed reproduces the same variate stream across
    runs and versions. Exponential draws are parameterized by their *mean*
    and are implemented directly on top of the uniform stream instead of
    delegating to the standard library, which keeps the stream stable and
    guarantees strictly positive values.
    """

    __slots__ = ("_mt",)

    def __init__(self, seed: int):
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        self._mt = random.Random(seed)

    def expovariate_mean(self, mean: float) -> float:
        """Exponential variate with the given mean (rate 1/mean).

        Always returns a strictly positive, finite value: the underlying
        uniform draw is rejected when it is exactly zero.
        """
        if not 0.0 < mean < _INF:  # also rejects NaN
            raise ValueError(f"mean must be positive and finite, got {mean!r}")
        u = self._mt.random()
        while u <= 0.0:
            u = self._mt.random()
        return -mean * _log(u)

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], both ends inclusive."""
        return self._mt.randint(a, b)

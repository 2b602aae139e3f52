"""Free abelian groups with a rational weighting and an integral grading map.

A lattice is Z^k together with two additive maps given by their values on
the standard generators: a rational weight (used to order series supports)
and an integer degree map ("chern").  Group elements are plain coordinate
tuples; the group law is coordinate-wise addition.

Internal weights are scaled integers ``D*weight(g)`` over a common
denominator ``D`` of ``phi``; the private helpers skip re-validation, while
the public ``weight`` validates its input and returns a ``Fraction``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

GroupElement = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Coordinate vector length does not match the lattice rank."""


@dataclass(frozen=True)
class Lattice:
    rank: int
    phi: tuple[Fraction, ...]
    c1: tuple[int, ...]

    def __init__(self, rank: int, phi: Iterable, c1: Iterable):
        rank = int(rank)
        phi = tuple(Fraction(p) for p in phi)
        c1 = tuple(int(c) for c in c1)
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if len(phi) != rank or len(c1) != rank:
            raise DimensionMismatchError(
                "phi and c1 must each have exactly %d entries" % rank
            )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "c1", c1)
        den = math.lcm(*(p.denominator for p in phi))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_num", tuple(p.numerator * (den // p.denominator) for p in phi))

    def _check(self, g: GroupElement) -> GroupElement:
        g = tuple(int(x) for x in g)
        if len(g) != self.rank:
            raise DimensionMismatchError(
                "element of length %d in lattice of rank %d" % (len(g), self.rank)
            )
        return g

    def identity(self) -> GroupElement:
        return (0,) * self.rank

    def weight(self, g: GroupElement) -> Fraction:
        """Value of the weighting homomorphism, sum of phi[i]*g[i]."""
        return Fraction(self._scaled_weight(self._check(g)), self._den)

    def _scaled_weight(self, g: GroupElement) -> int:
        """D * weight(g) for an already checked element g."""
        return sum(map(operator.mul, self._num, g))

    def _scaled_ceil(self, w: Fraction) -> int:
        """Ceiling of D * w: an integer n is below it exactly when n < D * w."""
        return -(-w.numerator * self._den // w.denominator)

    def chern(self, g: GroupElement) -> int:
        """Value of the integral homomorphism, sum of c1[i]*g[i]."""
        g = self._check(g)
        return sum(c * x for c, x in zip(self.c1, g))

    def in_gamma0(self, g: GroupElement) -> bool:
        """Whether g lies in the kernel of the integral homomorphism."""
        return self.chern(g) == 0

    def minimal_chern_number(self) -> Optional[int]:
        """Positive generator of the image of the integral homomorphism.

        Returns None when the image is 0 (the unbounded case).
        """
        nonzero = [abs(c) for c in self.c1 if c != 0]
        if not nonzero:
            return None
        return math.gcd(*nonzero)


def g_add(a: GroupElement, b: GroupElement) -> GroupElement:
    return tuple(map(operator.add, a, b))


def g_neg(a: GroupElement) -> GroupElement:
    return tuple(-x for x in a)

"""Free abelian groups with a rational weighting and an integral grading map.

A lattice is Z^k together with two additive maps given by their values on
the standard generators: a rational weight (used to order series supports)
and an integer degree map ("chern").  Group elements are plain coordinate
tuples; the group law is coordinate-wise addition.

Internal weights are scaled integers ``W(g) = D*weight(g)`` over a common
denominator ``D`` of ``phi``; the private helpers skip re-validation, while
the public ``weight`` validates its input and returns a ``Fraction``.

Coordinates live in the box ``|g_i| < 2**31``; ``_check`` refuses any
other.  Inside the box an element packs into one int, its key:
``W(g)`` in the top field above ``S = 32*k`` bits, then the coordinates
as balanced 32-bit digits, ``g_0`` most significant.  The key is a group
homomorphism from Z^k into the ints, ``key(g) = sum(g_i * key(e_i))``
(a sum of keys is the key of the sum, as long as the sum stays in the
box), keys sort as ``(W(g), g)`` does, and ``W(g) < B`` exactly when
``key < _kbound(B)``.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable
from fractions import Fraction

GroupElement = tuple[int, ...]

#: Bits per coordinate digit of a key; coordinates satisfy ``|g_i| < _BOX``.
_BITS = 32
_BOX = 1 << (_BITS - 1)


class DimensionMismatchError(ValueError):
    """Coordinate vector length does not match the lattice rank."""


def _integer(x) -> int:
    """int(x) of a str or a ``numbers.Number``, refusing 0.5 or 2.9 that int() would truncate, and a bool, numpy's too."""
    if isinstance(x, str) or isinstance(x, numbers.Number) and not isinstance(x, bool) and int(x) == x:
        return int(x)
    raise ValueError("%r is not an integer" % (x,))


def _coordinate(x) -> int:
    """_integer(x), refusing a value outside the box |x| < 2**31 that keys hold."""
    x = _integer(x)
    if not -_BOX < x < _BOX:
        raise ValueError("coordinate %d is outside the box |x| < 2**%d" % (x, _BITS - 1))
    return x


def _rational(x) -> Fraction:
    """Fraction(x), refusing a float such as 0.1 that Fraction() would read as its binary value, and a bool."""
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise ValueError("%r is a bool, not a rational" % (x,))
    if isinstance(x, float) and not x.is_integer():
        raise ValueError("%r is not an exact rational; pass a Fraction or a string" % (x,))
    return Fraction(x)


def _index(x, what: str, error=ValueError, least=None) -> int:
    """``operator.index(x)`` for an int or numpy integer, the rule for every count, degree and modulus;
    ``error`` for a bool, for 2.0, "2" or anything else without ``__index__``, and for a value below ``least``."""
    if not isinstance(x, bool) and hasattr(type(x), "__index__"):
        n = operator.index(x)
        if least is None or n >= least:
            return n
    raise error("%s must be an int%s, not %r" % (what, "" if least is None else " of at least %d" % least, x))


class _ReadOnly:
    """Base of the read-only records.  A record names its public fields once,
    ``__slots__ = _fields = (...)``, and keeps any private slot out of
    ``_fields``.  The base builds a record by position or keyword, compares
    it with records of its own class and hashes it, both over its fields,
    prints it as ``Name(field=value, ...)``, copies and pickles it through
    its class's own ``__init__``, and raises AttributeError on assignment or
    deletion."""

    __slots__ = _fields = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) + len(kwargs) != len(fields) or kwargs and not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(
                "%s takes each of the fields %s once; got %d positional and the keywords %s"
                % (type(self).__name__, ", ".join(fields), len(args), ", ".join(kwargs) or "none")
            )
        if kwargs:
            args += tuple(map(kwargs.__getitem__, fields[len(args):]))
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class Lattice(_ReadOnly):
    """Z^rank with the weights ``phi`` and the degree map ``c1``.  Two lattices
    are equal when their ranks, weights and degree maps are, as ``_id``,
    the tuple ``(D, D*phi, c1)`` of ints, compares them."""

    _fields = ("rank", "phi", "c1")
    __slots__ = _fields + ("_den", "_num", "_id", "_shift", "_kshifts", "_kbasis", "_koff")

    def __init__(self, rank: int, phi: Iterable, c1: Iterable):
        rank = _integer(rank)
        phi = tuple(map(_rational, phi))
        c1 = tuple(map(_integer, c1))
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if len(phi) != rank or len(c1) != rank:
            raise DimensionMismatchError(
                "phi and c1 must each have exactly %d entries" % rank
            )
        super().__init__(rank, phi, c1)
        den = math.lcm(*(p.denominator for p in phi))
        object.__setattr__(self, "_den", den)
        num = tuple(p.numerator * (den // p.denominator) for p in phi)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_id", (den, num, c1))
        # The keys of the standard generators, whose combinations give every key;
        # adding _BOX to every digit of a key makes its digits plain base-2**32 ones.
        shift = _BITS * rank
        shifts = tuple(range(shift - _BITS, -1, -_BITS))
        object.__setattr__(self, "_shift", shift)
        object.__setattr__(self, "_kshifts", shifts)
        object.__setattr__(self, "_kbasis", tuple((n << shift) + (1 << s) for n, s in zip(num, shifts)))
        object.__setattr__(self, "_koff", sum(_BOX << s for s in shifts))

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self._id == other._id

    def __hash__(self):
        return hash(self._id)

    def _check(self, g: GroupElement) -> GroupElement:
        g = tuple(x if type(x) is int and -_BOX < x < _BOX else _coordinate(x) for x in g)
        if len(g) != self.rank:
            raise DimensionMismatchError(
                "element of length %d in lattice of rank %d" % (len(g), self.rank)
            )
        return g

    def _key(self, g: GroupElement) -> int:
        """The key of an already checked element: the combination of the generators' keys."""
        return sum(map(operator.mul, self._kbasis, g))

    def _unkey(self, k: int) -> GroupElement:
        """The element whose key is k."""
        k += self._koff
        return tuple([((k >> s) & (2 * _BOX - 1)) - _BOX for s in self._kshifts])

    def _kweight(self, k: int) -> int:
        """W(g), the scaled weight, of the element whose key is k."""
        return (k + self._koff) >> self._shift

    def _kbound(self, bound: int) -> int:
        """The key limit of a scaled weight bound: ``W(g) < bound`` exactly when ``key < _kbound(bound)``."""
        return (bound << self._shift) - self._koff

    def identity(self) -> GroupElement:
        return (0,) * self.rank

    def weight(self, g: GroupElement) -> Fraction:
        """Value of the weighting homomorphism, sum of phi[i]*g[i]."""
        return Fraction(self._scaled_weight(self._check(g)), self._den)

    def _scaled_weight(self, g: GroupElement) -> int:
        """D * weight(g) for an already checked element g."""
        return sum(map(operator.mul, self._num, g))

    def _scaled_split(self, w: Fraction) -> tuple:
        """D * w as its floor k and remainder f, 0 or a Fraction in (0, 1):
        an integer n is below D * w exactly when n < k + (f > 0)."""
        k, r = divmod(w.numerator * self._den, w.denominator)
        return k, Fraction(r, w.denominator) if r else 0

    def chern(self, g: GroupElement) -> int:
        """Value of the integral homomorphism, sum of c1[i]*g[i]."""
        g = self._check(g)
        return sum(c * x for c, x in zip(self.c1, g))

    def in_gamma0(self, g: GroupElement) -> bool:
        """Whether g lies in the kernel of the integral homomorphism."""
        return self.chern(g) == 0

    def minimal_chern_number(self) -> int | None:
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

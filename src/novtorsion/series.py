"""Exact arithmetic in Novikov rings with honest truncation.

An element is a finitely supported map from lattice elements to nonzero
rationals, together with an optional weight cutoff.  A cutoff w means the
terms of weight < w are known exactly and everything at weight >= w is
*unknown* (not zero); cutoff None means the element is a finite sum known
in full.  Every operation propagates the weakest honest cutoff, so a
computation never silently claims more precision than its inputs carry.

The string form of an element is a sum of ``coeff*g(a1,...,ak)`` terms
ordered by increasing weight, with identity-supported terms written as a
bare rational, e.g. ``1 - 1*g(1)`` or ``2 + 1/2*g(0,1) @cutoff=5``.

Coefficients are stored as integer numerators ``_num`` over one positive
denominator ``_den``, in lowest terms: ``gcd(_den, *_num.values()) == 1``,
and ``_den == 1`` for zero, so equal values have equal numerators and
denominators.  ``+``, ``-``, ``*``, ``invert``, ``truncate`` and the
comparisons work on these integers, and weights are compared as the
lattice's scaled integers.  ``Fraction`` appears only at the public API:
the read-only ``terms`` view (built once per element), ``coefficient``,
``leading_term``, ``min_weight`` and cutoffs.  The public constructor
validates its input; every other result comes from ``_new``, which skips it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from .lattice import GroupElement, Lattice, _rational, g_add, g_neg

#: Default weight bound for series-valued results of operations that must
#: truncate (inverses of non-monomial units and quantities derived from them).
DEFAULT_CUTOFF = Fraction(20)

#: Most support elements ``invert`` enumerates below its target weight.
_INVERT_LIMIT = 100_000


class LatticeMismatchError(ValueError):
    """Operands live over different lattices."""


class AmbiguousLeadingTermError(ArithmeticError):
    """Several support elements share the minimal weight.

    The weighting map is not injective on the support differences, so a
    single leading monomial is not well defined.  The offending minimal
    weight slice is carried in ``slice_terms``.
    """

    def __init__(self, slice_terms):
        self.slice_terms = list(slice_terms)
        super().__init__(
            "leading term is ambiguous: %d support elements at minimal weight"
            % len(self.slice_terms)
        )


class NotInvertibleError(ArithmeticError):
    """Element has no certified invertible leading term."""


class ExpansionLimitError(ValueError):
    """An exact expansion (a series inverse, a determinant) exceeds its work budget."""


@dataclass(frozen=True)
class LeadingTerm:
    coefficient: Fraction
    element: GroupElement


def _min_cutoff(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class NovikovElement:
    """A truncated series over a lattice with exact rational coefficients."""

    __slots__ = ("lattice", "cutoff", "_num", "_den", "_terms")

    def __init__(self, lattice: Lattice, terms=None, cutoff=None):
        if cutoff is not None:
            cutoff = _rational(cutoff)
        merged = {}
        if terms:
            for g, c in terms.items() if hasattr(terms, "items") else terms:
                g, c = lattice._check(g), c if type(c) is int else _rational(c)
                prev = merged.get(g)
                merged[g] = c if prev is None else prev + c
        den = math.lcm(*(c.denominator for c in merged.values()))
        out = NovikovElement._new(
            lattice, {g: c.numerator * (den // c.denominator) for g, c in merged.items()}, den, cutoff
        )
        self.lattice, self.cutoff, self._num, self._den, self._terms = lattice, cutoff, out._num, out._den, None

    @classmethod
    def _new(cls, lattice: Lattice, num: dict, den: int, cutoff: Optional[Fraction]) -> "NovikovElement":
        """Trusted constructor: ``num`` maps checked elements to int numerators
        over ``den > 0``, ``cutoff`` is a Fraction or None.  Drops zeros and
        weights >= cutoff, then divides out the common gcd."""
        if cutoff is None:
            num = {g: c for g, c in num.items() if c}
        else:
            bound = lattice._scaled_ceil(cutoff)
            w = lattice._scaled_weight
            num = {g: c for g, c in num.items() if c and w(g) < bound}
        if den != 1:
            k = math.gcd(den, *num.values())
            if k != 1:
                num = {g: c // k for g, c in num.items()}
                den //= k
        out = object.__new__(cls)
        out.lattice, out.cutoff, out._num, out._den, out._terms = lattice, cutoff, num, den, None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, lattice: Lattice, cutoff=None) -> "NovikovElement":
        return cls._new(lattice, {}, 1, None if cutoff is None else _rational(cutoff))

    @classmethod
    def one(cls, lattice: Lattice) -> "NovikovElement":
        return cls._new(lattice, {lattice.identity(): 1}, 1, None)

    @classmethod
    def monomial(cls, lattice: Lattice, coefficient, g: GroupElement) -> "NovikovElement":
        """Single-term element; the zero element when the coefficient is 0."""
        return cls(lattice, ((g, coefficient),))

    # -- structure queries -------------------------------------------------

    @property
    def terms(self):
        """Read-only map from support elements to Fraction coefficients."""
        if self._terms is None:
            den = self._den
            self._terms = MappingProxyType({g: Fraction(c, den) for g, c in self._num.items()})
        return self._terms

    @property
    def is_zero(self) -> bool:
        """No stored terms.  Certified zero only below the cutoff."""
        return not self._num

    @property
    def is_exact(self) -> bool:
        return self.cutoff is None

    def support(self):
        w = self.lattice._scaled_weight
        return sorted(self._num, key=lambda g: (w(g), g))

    def coefficient(self, g: GroupElement) -> Fraction:
        return Fraction(self._num.get(tuple(g), 0), self._den)

    def min_weight(self) -> Optional[Fraction]:
        if not self._num:
            return None
        lat = self.lattice
        return Fraction(min(map(lat._scaled_weight, self._num)), lat._den)

    def _floor(self) -> Optional[Fraction]:
        """Lowest weight the true element could carry: its least known weight,
        else its cutoff; None for an exact zero."""
        return self.min_weight() if self._num else self.cutoff

    def leading_slice(self) -> list[tuple[Fraction, GroupElement]]:
        """All minimal-weight terms, sorted by coordinates."""
        if not self._num:
            return []
        weights = {g: self.lattice._scaled_weight(g) for g in self._num}
        w0 = min(weights.values())
        return sorted(
            ((Fraction(c, self._den), g) for g, c in self._num.items() if weights[g] == w0),
            key=lambda p: p[1],
        )

    def leading_term(self) -> Optional[LeadingTerm]:
        """The unique minimal-weight term, or None for an empty element.

        Raises AmbiguousLeadingTermError when several support elements tie
        at the minimal weight; such a tie is never silently resolved.
        """
        sl = self.leading_slice()
        if not sl:
            return None
        if len(sl) > 1:
            raise AmbiguousLeadingTermError(sl)
        c, g = sl[0]
        return LeadingTerm(c, g)

    def in_lambda0(self) -> bool:
        """Whether every known support element has chern value 0."""
        return all(self.lattice.chern(g) == 0 for g in self._num)

    # -- ring operations ---------------------------------------------------

    def _same_lattice(self, other):
        if not isinstance(other, NovikovElement):
            return None
        if other.lattice is not self.lattice and other.lattice != self.lattice:
            raise LatticeMismatchError("operands over different lattices")
        return other

    def __add__(self, other):
        other = self._same_lattice(other)
        if other is None:
            return NotImplemented
        a, b, den = self._den, other._den, self._den
        if a == b:
            merged = dict(self._num)
            for g, c in other._num.items():
                merged[g] = merged.get(g, 0) + c
        else:
            den = math.lcm(a, b)
            sa, sb = den // a, den // b
            merged = {g: c * sa for g, c in self._num.items()}
            for g, c in other._num.items():
                merged[g] = merged.get(g, 0) + c * sb
        return NovikovElement._new(self.lattice, merged, den, _min_cutoff(self.cutoff, other.cutoff))

    def __neg__(self):
        out = NovikovElement._new(self.lattice, {}, 1, self.cutoff)
        out._num, out._den = {g: -c for g, c in self._num.items()}, self._den
        return out

    def __sub__(self, other):
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, NovikovElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            p, q = other.numerator, other.denominator
            return NovikovElement._new(
                self.lattice, {g: p * c for g, c in self._num.items()}, q * self._den, self.cutoff if p else None
            )
        self._same_lattice(other)
        acc: dict[GroupElement, int] = {}
        for g, c in self._num.items():
            for h, d in other._num.items():
                k = g_add(g, h)
                acc[k] = acc.get(k, 0) + c * d
        # Unknown terms start at one factor's floor plus the other's cutoff;
        # unknown*unknown, from c_a + c_b on, is never below either bound.
        cutoff = None
        if other.cutoff is not None and (floor := self._floor()) is not None:
            cutoff = floor + other.cutoff
        if self.cutoff is not None and (floor := other._floor()) is not None:
            cutoff = _min_cutoff(cutoff, self.cutoff + floor)
        return NovikovElement._new(self.lattice, acc, self._den * other._den, cutoff)

    __rmul__ = __mul__

    def truncate(self, bound) -> "NovikovElement":
        """Forget everything at weight >= bound."""
        return NovikovElement._new(self.lattice, self._num, self._den, _min_cutoff(self.cutoff, _rational(bound)))

    def invert(self, target_cutoff=None) -> "NovikovElement":
        """Multiplicative inverse, correct below the returned cutoff.

        The element is factored as c*g*(1 + r) with r = R/d supported at
        strictly positive weight.  The inverse s of 1 + r solves s = 1 - r*s,
        so over the monoid generated by supp(r), taken in increasing weight,
        each coefficient s_g = [g = 0] - sum_h r_h s_{g-h} needs only lighter
        ones.  A chain of k steps to g puts d^k into the denominator of s_g,
        so with n the longest chain below the bound, t_g = s_g * d^n is an
        integer and t_g = (d^(n+1) [g = 0] - sum_h R_h t_{g-h}) / d divides
        exactly.  Pure monomials invert exactly and need no target;
        everything else requires one.
        """
        lt = self.leading_term()
        if lt is None:
            raise NotInvertibleError("cannot invert an element with no known terms")
        lead = self._num[lt.element]
        inv_monomial = NovikovElement._new(
            self.lattice, {g_neg(lt.element): self._den if lead > 0 else -self._den}, abs(lead), None
        )
        if len(self._num) == 1 and self.is_exact:
            return inv_monomial
        if target_cutoff is None:
            raise ValueError("target_cutoff is required unless the element is a pure monomial")
        target = _rational(target_cutoff)
        # Work on 1 + r, then shift weights back by the leading monomial.
        inner_target = target + self.lattice.weight(lt.element)
        r = (inv_monomial * self) - NovikovElement.one(self.lattice)
        bound = _min_cutoff(r.cutoff, inner_target)
        limit = self.lattice._scaled_ceil(bound)
        d = r._den
        steps = [(h, c, self.lattice._scaled_weight(h)) for h, c in r._num.items()]
        # Every step weighs at least the lightest one, so k steps stay below
        # the limit exactly when k times the lightest weight does.
        n = max(0, (limit - 1) // min(wh for _, _, wh in steps)) if steps else 0
        # Python refuses to print an int of more digits than this (0 or absent: no
        # limit), so an inverse whose common denominator d^n has more is refused.
        printable = getattr(sys, "get_int_max_str_digits", int)()
        if d > 1 and printable and n > printable / math.log10(d):
            msg = "inverse below weight %s needs %d-digit denominators, over the %d that print"
            raise ExpansionLimitError(msg % (target, int(n * Fraction(math.log10(d))) + 1, printable))
        weights = {self.lattice.identity(): 0}
        monoid = list(weights)
        for g in monoid:
            for h, _, wh in steps:
                k, wk = g_add(g, h), weights[g] + wh
                if wk < limit and k not in weights:
                    weights[k] = wk
                    monoid.append(k)
            if len(monoid) > _INVERT_LIMIT:
                raise ExpansionLimitError("inverse below weight %s needs more than %d terms" % (target, _INVERT_LIMIT))
        t: dict[GroupElement, int] = {}
        for g in sorted(monoid, key=weights.__getitem__):
            acc = d ** (n + 1) if g == monoid[0] else 0
            for h, rh, _ in steps:
                acc -= rh * t.get(tuple(map(operator.sub, g, h)), 0)
            t[g] = acc // d
        return (NovikovElement._new(self.lattice, t, d**n, bound) * inv_monomial).truncate(target)

    # -- comparison --------------------------------------------------------

    def agree_below(self, other: "NovikovElement", bound=None) -> bool:
        """Term-wise equality below the common certification bound."""
        other = self._same_lattice(other)
        if other is None:
            raise TypeError("can only compare Novikov elements")
        eff = _min_cutoff(self.cutoff, other.cutoff)
        if bound is not None:
            eff = _min_cutoff(eff, _rational(bound))
        a, b = (self, other) if eff is None else (self.truncate(eff), other.truncate(eff))
        return a._num == b._num and a._den == b._den

    def __eq__(self, other):
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self._num == other._num
            and self._den == other._den
            and self.cutoff == other.cutoff
        )

    __hash__ = None

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return "<NovikovElement %s>" % self


def format_term(coefficient: Fraction, g: GroupElement) -> str:
    if not any(g):
        return str(coefficient)
    return "%s*g(%s)" % (coefficient, ",".join(str(x) for x in g))


def format_element(a: "NovikovElement", cutoff_suffix: bool = True) -> str:
    if not a._num:
        body = "0"
    else:
        parts = []
        for g in a.support():
            c = a._num[g]
            mag = format_term(Fraction(abs(c), a._den), g)
            if not parts:
                parts.append(("-" + mag) if c < 0 else mag)
            else:
                parts.append((" - " if c < 0 else " + ") + mag)
        body = "".join(parts)
    if cutoff_suffix and a.cutoff is not None:
        body += " @cutoff=%s" % a.cutoff
    return body


def divide(a: NovikovElement, b: NovikovElement, cutoff=None) -> NovikovElement:
    """a * b.invert(...), correct below cutoff; 0 / b is an exact 0 once b has a leading term."""
    if a.is_exact and a.is_zero and b.leading_term() is not None:
        return a
    return a * b.invert(None if cutoff is None else _rational(cutoff) - (a._floor() or 0))

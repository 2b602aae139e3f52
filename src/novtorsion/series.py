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

Weights are compared as the lattice's scaled integers (``Fraction`` only at
the public API).  The public constructor validates its input; the results of
``+``, ``*``, ``invert`` and ``truncate`` come from ``_new``, which skips it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lattice import GroupElement, Lattice, g_add, g_neg

#: Default weight bound for series-valued results of operations that must
#: truncate (inverses of non-monomial units and quantities derived from them).
DEFAULT_CUTOFF = Fraction(20)


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

    __slots__ = ("lattice", "terms", "cutoff")

    def __init__(self, lattice: Lattice, terms=None, cutoff=None):
        if cutoff is not None:
            cutoff = Fraction(cutoff)
        merged: dict[GroupElement, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for g, c in items:
                g, c = lattice._check(g), Fraction(c)
                prev = merged.get(g)
                merged[g] = c if prev is None else prev + c
        self.lattice = lattice
        self.terms = NovikovElement._new(lattice, merged, cutoff).terms
        self.cutoff = cutoff

    @classmethod
    def _new(cls, lattice: Lattice, terms: dict, cutoff: Optional[Fraction]) -> "NovikovElement":
        """Trusted constructor: ``terms`` maps checked elements to Fractions,
        ``cutoff`` is a Fraction or None.  Drops zeros and weights >= cutoff."""
        out = object.__new__(cls)
        out.lattice = lattice
        out.cutoff = cutoff
        if cutoff is None:
            out.terms = {g: c for g, c in terms.items() if c}
        else:
            bound = lattice._scaled_ceil(cutoff)
            w = lattice._scaled_weight
            out.terms = {g: c for g, c in terms.items() if c and w(g) < bound}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, lattice: Lattice, cutoff=None) -> "NovikovElement":
        return cls(lattice, {}, cutoff)

    @classmethod
    def one(cls, lattice: Lattice) -> "NovikovElement":
        return cls(lattice, {lattice.identity(): Fraction(1)})

    @classmethod
    def monomial(cls, lattice: Lattice, coefficient, g: GroupElement) -> "NovikovElement":
        """Single-term element; the zero element when the coefficient is 0."""
        return cls(lattice, {tuple(g): Fraction(coefficient)})

    # -- structure queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """No stored terms.  Certified zero only below the cutoff."""
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return self.cutoff is None

    def support(self):
        w = self.lattice._scaled_weight
        return sorted(self.terms, key=lambda g: (w(g), g))

    def coefficient(self, g: GroupElement) -> Fraction:
        return self.terms.get(tuple(g), Fraction(0))

    def min_weight(self) -> Optional[Fraction]:
        if not self.terms:
            return None
        lat = self.lattice
        return Fraction(min(map(lat._scaled_weight, self.terms)), lat._den)

    def leading_slice(self) -> list[tuple[Fraction, GroupElement]]:
        """All minimal-weight terms, sorted by coordinates."""
        if not self.terms:
            return []
        weights = {g: self.lattice._scaled_weight(g) for g in self.terms}
        w0 = min(weights.values())
        return sorted(
            ((c, g) for g, c in self.terms.items() if weights[g] == w0),
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
        return all(self.lattice.chern(g) == 0 for g in self.terms)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NovikovElement):
            if other.lattice != self.lattice:
                raise LatticeMismatchError("operands over different lattices")
            return other
        if isinstance(other, (int, Fraction)):
            return NovikovElement.monomial(self.lattice, other, self.lattice.identity())
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for g, c in other.terms.items():
            prev = merged.get(g)
            merged[g] = c if prev is None else prev + c
        return NovikovElement._new(self.lattice, merged, _min_cutoff(self.cutoff, other.cutoff))

    __radd__ = __add__

    def __neg__(self):
        out = NovikovElement._new(self.lattice, {}, self.cutoff)
        out.terms = {g: -c for g, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return NovikovElement.zero(self.lattice)
            out = NovikovElement._new(self.lattice, {}, self.cutoff)
            out.terms = {g: q * c for g, c in self.terms.items()}
            return out
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[GroupElement, Fraction] = {}
        for g, c in self.terms.items():
            for h, d in other.terms.items():
                k = g_add(g, h)
                prev = acc.get(k)
                acc[k] = c * d if prev is None else prev + c * d
        # Unknown contributions: stored(self)*unknown(other) from sw_a + c_b
        # on, unknown(self)*stored(other) from c_a + sw_b on, and
        # unknown*unknown from c_a + c_b on.
        cutoff = None
        if other.cutoff is not None and self.terms:
            cutoff = _min_cutoff(cutoff, self.min_weight() + other.cutoff)
        if self.cutoff is not None and other.terms:
            cutoff = _min_cutoff(cutoff, self.cutoff + other.min_weight())
        if self.cutoff is not None and other.cutoff is not None:
            cutoff = _min_cutoff(cutoff, self.cutoff + other.cutoff)
        return NovikovElement._new(self.lattice, acc, cutoff)

    __rmul__ = __mul__

    def truncate(self, bound) -> "NovikovElement":
        """Forget everything at weight >= bound."""
        return NovikovElement._new(self.lattice, self.terms, _min_cutoff(self.cutoff, Fraction(bound)))

    def invert(self, target_cutoff=None) -> "NovikovElement":
        """Multiplicative inverse, correct below the returned cutoff.

        The element is factored as c*g*(1 + r) with r supported at strictly
        positive weight.  The inverse s of 1 + r solves s = 1 - r*s, so over
        the monoid generated by supp(r), taken in increasing weight, each
        coefficient s_g = [g = 0] - sum_h r_h s_{g-h} needs only lighter ones.
        Pure monomials invert exactly and need no target; everything else
        requires one.
        """
        lt = self.leading_term()
        if lt is None:
            raise NotInvertibleError("cannot invert an element with no known terms")
        inv_monomial = NovikovElement.monomial(
            self.lattice, 1 / lt.coefficient, g_neg(lt.element)
        )
        if len(self.terms) == 1 and self.is_exact:
            return inv_monomial
        if target_cutoff is None:
            raise ValueError("target_cutoff is required unless the element is a pure monomial")
        target = Fraction(target_cutoff)
        # Work on 1 + r, then shift weights back by the leading monomial.
        inner_target = target + self.lattice.weight(lt.element)
        r = (inv_monomial * self) - NovikovElement.one(self.lattice)
        bound = _min_cutoff(r.cutoff, inner_target)
        limit = self.lattice._scaled_ceil(bound)
        steps = [(h, c, self.lattice._scaled_weight(h)) for h, c in r.terms.items()]
        weights = {self.lattice.identity(): 0}
        monoid = list(weights)
        for g in monoid:
            for h, _, wh in steps:
                k, wk = g_add(g, h), weights[g] + wh
                if wk < limit and k not in weights:
                    weights[k] = wk
                    monoid.append(k)
        s: dict[GroupElement, Fraction] = {}
        for g in sorted(monoid, key=weights.__getitem__):
            s[g] = Fraction(1) if g == monoid[0] else Fraction(0)
            for h, rh, _ in steps:
                s[g] -= rh * s.get(tuple(map(operator.sub, g, h)), 0)
        return (NovikovElement._new(self.lattice, s, bound) * inv_monomial).truncate(target)

    # -- comparison --------------------------------------------------------

    def agree_below(self, other: "NovikovElement", bound=None) -> bool:
        """Term-wise equality below the common certification bound."""
        other = self._coerce(other)
        if other is None:
            raise TypeError("can only compare Novikov elements")
        eff = _min_cutoff(self.cutoff, other.cutoff)
        if bound is not None:
            eff = _min_cutoff(eff, Fraction(bound))
        if eff is None:
            return self.terms == other.terms
        w, limit = self.lattice._scaled_weight, self.lattice._scaled_ceil(eff)
        left = {g: c for g, c in self.terms.items() if w(g) < limit}
        right = {g: c for g, c in other.terms.items() if w(g) < limit}
        return left == right

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self.terms == other.terms
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
    if not a.terms:
        body = "0"
    else:
        parts = []
        for g in a.support():
            c = a.terms[g]
            mag = format_term(abs(c), g)
            if not parts:
                parts.append(("-" + mag) if c < 0 else mag)
            else:
                parts.append((" - " if c < 0 else " + ") + mag)
        body = "".join(parts)
    if cutoff_suffix and a.cutoff is not None:
        body += " @cutoff=%s" % a.cutoff
    return body


def divide(a: NovikovElement, b: NovikovElement, cutoff=None) -> NovikovElement:
    """a * b^{-1}, exact when b is a pure monomial, else correct below cutoff."""
    if b.is_exact and len(b.terms) == 1:
        return a * b.invert()
    if a.is_exact and a.is_zero:
        return a
    if cutoff is None:
        raise ValueError("cutoff required to divide by a non-monomial")
    # lower bound for the smallest weight the true a could carry
    shift = a.min_weight() if a.terms else a.cutoff
    target = Fraction(cutoff) - (shift if shift is not None else Fraction(0))
    return a * b.invert(target)

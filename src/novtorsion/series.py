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

An element stores its terms in ``_num``, a dict from monomial keys to
integer numerators over one positive denominator ``_den``, in lowest
terms: ``gcd(_den, *_num.values()) == 1``, and ``_den == 1`` for zero, so
equal values have equal numerators and denominators.  A key is the
lattice's packed form of a group element (see ``lattice``): one int with
the scaled weight in its top field.  So a product term's key is the sum of
its factors' keys, the cutoff filter is one int comparison, the least key
is the leading monomial, and sorted keys are in ``(weight, coordinates)``
order.  The public constructor checks and keys each term in one pass and
builds through ``_new``, which trusts its input and makes every other
result.

The cutoff is kept on the same scale, ``D * cutoff`` with ``D`` the
lattice's ``_den``, as ``_ck``, its floor (None when exact), and ``_cf``,
the remainder: 0, or a ``Fraction`` in (0, 1) for a cutoff off the ``1/D``
grid.  A remainder comes only from a cutoff given from outside (the
constructor, ``zero``, ``truncate``, the target of ``invert``), and each
result takes one operand's: ``*`` adds the scaled least weight of one
factor to the other's ``_ck``, ``+`` takes the lower ``(_ck, _cf)`` pair,
and ``_new`` keeps ``key < _kbound(_ck + bool(_cf))``.  Only two factors
with no known terms add two remainders, carrying past 1.  So ``*``, ``+``,
``-`` and ``_new`` do int arithmetic only.

Tuples and ``Fraction`` appear only at the public API: the read-only
``terms`` view (built once per element), ``coefficient``, ``support``,
``leading_slice``, ``leading_term``, ``in_lambda0``, ``min_weight``, the
``cutoff`` property (rebuilt on each read) and ``format_element``.  A
report of zero verdicts (pivots, ``d^2 = 0``, ranks) sums the termless
entries it relies on into one termless ``zero``, so ``+`` is the only code
that combines two cutoffs, and its ``cutoff`` is that zero's.

A key is exact while every coordinate stays in the lattice's box
``|x| < 2**31``.  Each element carries ``_reach``, a bound on the absolute
value of its coordinates: exact for input, the larger operand's under
``+`` and ``-``, the sum under ``*``, and the longest chain of steps times
the step bound in ``invert``.  When a bound could leave the box, the
operands' bounds are first recomputed from their keys; if the box is
still too small, ``ExpansionLimitError`` is raised before anything is
built, so a coordinate never wraps silently.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from types import MappingProxyType

from .lattice import _BITS, _BOX, GroupElement, Lattice, _rational, _ReadOnly

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
    """An exact expansion (a series inverse, a determinant) exceeds its work
    budget, its coordinates leave the key box, or its digits are past what
    Python prints."""


class LeadingTerm(_ReadOnly):
    __slots__ = ("coefficient", "element")

    def __init__(self, coefficient: Fraction, element: GroupElement):
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "element", element)


def _in_box(what: str, reach: int) -> int:
    """``reach`` when coordinates up to it fit in a key; else ExpansionLimitError."""
    if reach >= _BOX:
        raise ExpansionLimitError("%s may reach coordinate %d, outside the box |x| < 2**%d" % (what, reach, _BITS - 1))
    return reach


def _lower(ck: int | None, cf, k: int | None, f) -> tuple:
    """The lower of two scaled cutoffs ``ck + cf`` and ``k + f``, each an int
    part (None for no cutoff) and a fractional part, 0 or a Fraction in (0, 1)."""
    if ck is None or k is not None and (k < ck or k == ck and f < cf):
        return k, f
    return ck, cf


@property
def _report_cutoff(report) -> Fraction | None:
    """A report's weakest cutoff, None when exact: that of its termless ``zero``."""
    return report.zero.cutoff


class NovikovElement:
    """A truncated series over a lattice with exact rational coefficients."""

    __slots__ = ("lattice", "_ck", "_cf", "_num", "_den", "_reach", "_terms")

    def __init__(self, lattice: Lattice, terms=None, cutoff=None):
        ck, cf = (None, 0) if cutoff is None else lattice._scaled_split(_rational(cutoff))
        merged, reach = {}, 0
        if terms:
            for g, c in terms.items() if hasattr(terms, "items") else terms:
                g, c = lattice._check(g), c if type(c) is int else _rational(c)
                k = lattice._key(g)
                prev = merged.get(k)
                merged[k] = c if prev is None else prev + c
                reach = max((reach, *map(abs, g)))
        den = math.lcm(*(c.denominator for c in merged.values()))
        num = {k: c.numerator * (den // c.denominator) for k, c in merged.items()}
        NovikovElement._new(lattice, num, den, ck, cf, reach, self)

    @classmethod
    def _new(cls, lattice: Lattice, num: dict, den: int, ck: int | None, cf, reach: int, out=None) -> "NovikovElement":
        """Trusted constructor: ``num`` maps keys to int numerators over
        ``den > 0``, the scaled cutoff is ``ck + cf`` (see the module
        docstring; ``ck`` None for an exact element), and no coordinate
        exceeds ``reach`` in absolute value.  Drops zeros and weights >=
        cutoff, then divides out the common gcd.  Fills ``out``, the public
        constructor's instance, when given, else a new element."""
        if ck is None:
            num = {g: c for g, c in num.items() if c}
        else:
            top = lattice._kbound(ck + bool(cf))  # the ceiling of ck + cf
            num = {g: c for g, c in num.items() if c and g < top}
        if den != 1:
            k = math.gcd(den, *num.values())
            if k != 1:
                num = {g: c // k for g, c in num.items()}
                den //= k
        out = object.__new__(cls) if out is None else out
        out.lattice, out._ck, out._cf, out._num, out._den, out._reach, out._terms = lattice, ck, cf, num, den, reach, None
        return out

    def __reduce__(self):
        # copy and pickle through _new, leaving out the cached ``terms`` view
        return NovikovElement._new, (self.lattice, self._num, self._den, self._ck, self._cf, self._reach)

    def _tighten(self) -> int:
        """Replace the carried coordinate bound by the exact one, read from the keys."""
        unkey = self.lattice._unkey
        self._reach = max((abs(x) for k in self._num for x in unkey(k)), default=0)
        return self._reach

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, lattice: Lattice, cutoff=None) -> "NovikovElement":
        return cls(lattice, cutoff=cutoff)

    @classmethod
    def one(cls, lattice: Lattice) -> "NovikovElement":
        return cls._new(lattice, {0: 1}, 1, None, 0, 0)

    @classmethod
    def monomial(cls, lattice: Lattice, coefficient, g: GroupElement) -> "NovikovElement":
        """Single-term element; the zero element when the coefficient is 0."""
        return cls(lattice, ((g, coefficient),))

    # -- structure queries -------------------------------------------------

    @property
    def terms(self):
        """Read-only map from support elements to Fraction coefficients."""
        if self._terms is None:
            unkey, den = self.lattice._unkey, self._den
            self._terms = MappingProxyType({unkey(g): Fraction(c, den) for g, c in self._num.items()})
        return self._terms

    @property
    def is_zero(self) -> bool:
        """No stored terms.  Certified zero only below the cutoff."""
        return not self._num

    @property
    def is_exact(self) -> bool:
        return self._ck is None

    @property
    def cutoff(self) -> Fraction | None:
        """Weight from which on the terms are unknown; None when exact."""
        ck, cf = self._ck, self._cf  # cf is an int 0 or a Fraction: both have a numerator and a denominator
        return None if ck is None else Fraction(ck * cf.denominator + cf.numerator, cf.denominator * self.lattice._den)

    def support(self):
        return list(map(self.lattice._unkey, sorted(self._num)))

    def coefficient(self, g: GroupElement) -> Fraction:
        lat = self.lattice
        return Fraction(self._num.get(lat._key(lat._check(g)), 0), self._den)

    def min_weight(self) -> Fraction | None:
        if not self._num:
            return None
        lat = self.lattice
        return Fraction(lat._kweight(min(self._num)), lat._den)

    def _slice(self) -> list[int]:
        """Keys of the minimal-weight terms, sorted, so by coordinates."""
        if not self._num:
            return []
        lat = self.lattice
        top = lat._kbound(lat._kweight(min(self._num)) + 1)
        return sorted(k for k in self._num if k < top)

    def _lead(self) -> int | None:
        """Key of the unique minimal-weight term, None for an empty element;
        a tie raises AmbiguousLeadingTermError."""
        sl = self._slice()
        if len(sl) > 1:
            raise AmbiguousLeadingTermError(self.leading_slice())
        return sl[0] if sl else None

    def leading_slice(self) -> list[tuple[Fraction, GroupElement]]:
        """All minimal-weight terms, sorted by coordinates."""
        lat, den = self.lattice, self._den
        return [(Fraction(self._num[k], den), lat._unkey(k)) for k in self._slice()]

    def leading_term(self) -> LeadingTerm | None:
        """The unique minimal-weight term, or None for an empty element.

        Raises AmbiguousLeadingTermError when several support elements tie
        at the minimal weight; such a tie is never silently resolved.
        """
        lead = self._lead()
        if lead is None:
            return None
        return LeadingTerm(Fraction(self._num[lead], self._den), self.lattice._unkey(lead))

    def in_lambda0(self) -> bool:
        """Whether every known support element has chern value 0."""
        lat = self.lattice
        return all(lat.chern(lat._unkey(k)) == 0 for k in self._num)

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
        ck, cf = _lower(self._ck, self._cf, other._ck, other._cf)
        return NovikovElement._new(self.lattice, merged, den, ck, cf, max(self._reach, other._reach))

    def __neg__(self):
        out = NovikovElement._new(self.lattice, {}, 1, self._ck, self._cf, self._reach)
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
            num = {g: p * c for g, c in self._num.items()}
            ck, cf = self._ck if p else None, self._cf if p else 0
            return NovikovElement._new(self.lattice, num, q * self._den, ck, cf, self._reach)
        self._same_lattice(other)
        reach = self._reach + other._reach
        if reach >= _BOX:
            reach = _in_box("a product", self._tighten() + other._tighten())
        acc: dict[int, int] = {}
        get = acc.get
        for g, c in self._num.items():
            for h, d in other._num.items():
                k = g + h
                acc[k] = get(k, 0) + c * d
        # Unknown terms start at one factor's least known weight plus the
        # other's cutoff.  unknown*unknown, from c_a + c_b on, is never below
        # such a bound, so c_a + c_b counts only when neither factor has known
        # terms; there the two fractional parts add and carry past 1.
        sk, ok = self._ck, other._ck
        ck, cf = None, 0
        if ok is not None and self._num:
            ck, cf = self.lattice._kweight(min(self._num)) + ok, other._cf
        if sk is not None:
            if other._num:
                ck, cf = _lower(ck, cf, self.lattice._kweight(min(other._num)) + sk, self._cf)
            elif ok is not None and not self._num:
                ck, cf = sk + ok, self._cf + other._cf
                if cf >= 1:
                    ck, cf = ck + 1, cf - 1 or 0
        return NovikovElement._new(self.lattice, acc, self._den * other._den, ck, cf, reach)

    __rmul__ = __mul__

    def truncate(self, bound) -> "NovikovElement":
        """Forget everything at weight >= bound."""
        ck, cf = _lower(self._ck, self._cf, *self.lattice._scaled_split(_rational(bound)))
        return NovikovElement._new(self.lattice, self._num, self._den, ck, cf, self._reach)

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
        lat = self.lattice
        lt = self._lead()
        if lt is None:
            raise NotInvertibleError("cannot invert an element with no known terms")
        lead = self._num[lt]
        inv_monomial = NovikovElement._new(lat, {-lt: self._den if lead > 0 else -self._den}, abs(lead), None, 0, self._reach)
        if len(self._num) == 1 and self.is_exact:
            return inv_monomial
        if target_cutoff is None:
            raise ValueError("target_cutoff is required unless the element is a pure monomial")
        target = _rational(target_cutoff)
        # Work on 1 + r, below the lower of r's cutoff and the target shifted
        # by the leading monomial; weights are shifted back at the end.
        tk, tf = lat._scaled_split(target)
        r = (inv_monomial * self) - NovikovElement.one(lat)
        bk, bf = _lower(r._ck, r._cf, tk + lat._kweight(lt), tf)
        limit = bk + bool(bf)
        d, steps = r._den, r._num
        # Every step weighs at least the lightest one, so k steps stay below
        # the limit exactly when k times the lightest weight does.
        n = max(0, (limit - 1) // lat._kweight(min(steps))) if steps else 0
        # Python refuses to print an int of more digits than this (0 or absent: no
        # limit), so an inverse whose common denominator d^n has more is refused.
        printable = getattr(sys, "get_int_max_str_digits", int)()
        if d > 1 and printable and n > printable / math.log10(d):
            msg = "inverse below weight %s needs %d-digit denominators, over the %d that print"
            raise ExpansionLimitError(msg % (target, int(n * Fraction(math.log10(d))) + 1, printable))
        # The enumeration stops past _INVERT_LIMIT elements, so no element
        # takes more steps than that, and a lookup g - h one step more.
        depth = min(n, _INVERT_LIMIT)
        if (depth + 1) * r._reach >= _BOX:
            _in_box("inverse below weight %s" % target, (depth + 1) * r._tighten())
        top = lat._kbound(limit)
        seen = {0}
        monoid = [0]
        for g in monoid:
            for h in steps:
                k = g + h
                if k < top and k not in seen:
                    seen.add(k)
                    monoid.append(k)
            if len(monoid) > _INVERT_LIMIT:
                raise ExpansionLimitError("inverse below weight %s needs more than %d terms" % (target, _INVERT_LIMIT))
        # Keys sort by weight, and every step weighs more than 0, so the
        # identity (key 0) comes first and each g - h before g.
        monoid.sort()
        dn = d**n
        t: dict[int, int] = {0: dn}
        for g in monoid[1:]:
            acc = 0
            for h, rh in steps.items():
                acc -= rh * t.get(g - h, 0)
            t[g] = acc // d
        return (NovikovElement._new(lat, t, dn, bk, bf, depth * r._reach) * inv_monomial).truncate(target)

    # -- comparison --------------------------------------------------------

    def agree_below(self, other: "NovikovElement", bound=None) -> bool:
        """Term-wise equality below the common certification bound."""
        d = self - other
        return not (d if bound is None else d.truncate(bound))._num

    def __eq__(self, other):
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self._num == other._num
            and self._den == other._den
            and self._ck == other._ck
            and self._cf == other._cf
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


def _unprintable(coefficient: Fraction, g: GroupElement) -> ExpansionLimitError:
    """The error for a coefficient with a part longer than Python prints."""
    x = max(coefficient.numerator, coefficient.denominator)
    digits = int(math.log10(x)) + 1
    digits += (x >= 10**digits) - (x < 10 ** (digits - 1))
    msg = "the coefficient at g(%s) has %d digits, over the %d that print"
    return ExpansionLimitError(msg % (",".join(map(str, g)), digits, sys.get_int_max_str_digits()))


def format_element(a: "NovikovElement", cutoff_suffix: bool = True) -> str:
    if not a._num:
        body = "0"
    else:
        unkey, parts = a.lattice._unkey, []
        for k in sorted(a._num):
            c = a._num[k]
            coefficient, g = Fraction(abs(c), a._den), unkey(k)
            try:
                mag = format_term(coefficient, g)
            except ValueError:  # str refuses an int past sys.get_int_max_str_digits()
                raise _unprintable(coefficient, g) from None
            if not parts:
                parts.append(("-" + mag) if c < 0 else mag)
            else:
                parts.append((" - " if c < 0 else " + ") + mag)
        body = "".join(parts)
    if cutoff_suffix and a._ck is not None:
        body += " @cutoff=%s" % a.cutoff
    return body


def divide(a: NovikovElement, b: NovikovElement, cutoff=None) -> NovikovElement:
    """a * b.invert(...), correct below cutoff; 0 / b is an exact 0 once b has a leading term."""
    if a.is_exact and a.is_zero and b.leading_term() is not None:
        return a
    floor = a.min_weight() if a._num else a.cutoff  # the lowest weight a can carry
    return a * b.invert(None if cutoff is None else _rational(cutoff) - (floor or 0))

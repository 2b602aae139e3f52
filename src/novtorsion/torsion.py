"""Torsion of based acyclic complexes and of quasi-isomorphisms.

Units of the Novikov ring represent determinant classes: modulo sign only
(basis-change classes) or modulo sign and group monomials (Whitehead
classes).  The torsion of an acyclic parity-graded complex is computed by
selecting pivot columns of the two differentials; the image columns
together with the surviving standard basis vectors form new graded bases,
and the torsion is the even transition determinant divided by the odd one.
The convention is fixed so that a two-term complex whose generator sits in
odd degree, with differential a unit u, has torsion class u.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import BasedComplex, ChainMap, ComplexStructureError, NotAcyclicError, mapping_cone
from .lattice import g_neg
from .linalg import (
    IndeterminatePivotError,
    Matrix,
    ShapeError,
    as_matrix,
    determinant,
    identity,
    mat_add,
    mat_mul,
    mat_sub,
    select_column_pivots,
    zeros,
)
from .series import DEFAULT_CUTOFF, NovikovElement, NotInvertibleError, _min_cutoff, divide


def _normalized_sign(u: NovikovElement) -> NovikovElement:
    lt = u.leading_term()
    if lt is None:
        raise NotInvertibleError("not a unit: no known leading term")
    return -u if lt.coefficient < 0 else u


@dataclass(frozen=True, eq=False)
class BasisChangeClass:
    """A unit modulo sign; the determinant class of a change of graded basis."""

    representative: NovikovElement

    @classmethod
    def from_unit(cls, u: NovikovElement) -> "BasisChangeClass":
        return cls(_normalized_sign(u))

    def __mul__(self, other: "BasisChangeClass") -> "BasisChangeClass":
        return BasisChangeClass.from_unit(self.representative * other.representative)

    def inverse(self, cutoff=None) -> "BasisChangeClass":
        return BasisChangeClass.from_unit(self.representative.invert(cutoff))

    def __eq__(self, other):
        if not isinstance(other, BasisChangeClass):
            return NotImplemented
        return self.representative.agree_below(other.representative)

    __hash__ = None

    @property
    def cutoff(self) -> Optional[Fraction]:
        return self.representative.cutoff

    def to_whitehead(self) -> "WhiteheadClass":
        return WhiteheadClass.from_unit(self.representative)

    def __str__(self):
        return str(self.representative)


@dataclass(frozen=True, eq=False)
class WhiteheadClass:
    """A unit modulo sign and group monomials, in normalized form.

    The representative is the unit divided by the signed monomial of its
    leading term, so its leading term is a positive rational sitting at the
    group identity.  The class is trivial exactly when the representative
    is the constant 1; rational constants other than 1 stay non-trivial.
    """

    representative: NovikovElement

    @classmethod
    def from_unit(cls, u: NovikovElement) -> "WhiteheadClass":
        lt = u.leading_term()
        if lt is None:
            raise NotInvertibleError("not a unit: no known leading term")
        sign = 1 if lt.coefficient > 0 else -1
        rep = u * NovikovElement.monomial(u.lattice, sign, g_neg(lt.element))
        return cls(rep)

    @property
    def trivial(self) -> bool:
        """Certified trivial below the cutoff; exact when the cutoff is None."""
        lattice = self.representative.lattice
        return self.representative.terms == {lattice.identity(): Fraction(1)}

    @property
    def cutoff(self) -> Optional[Fraction]:
        return self.representative.cutoff

    @property
    def leading_coefficient(self) -> Fraction:
        return self.representative.leading_term().coefficient

    def __mul__(self, other: "WhiteheadClass") -> "WhiteheadClass":
        return WhiteheadClass.from_unit(self.representative * other.representative)

    def inverse(self, cutoff=None) -> "WhiteheadClass":
        return WhiteheadClass.from_unit(self.representative.invert(cutoff))

    def __eq__(self, other):
        if not isinstance(other, WhiteheadClass):
            return NotImplemented
        return self.representative.agree_below(other.representative)

    __hash__ = None

    def __str__(self):
        return str(self.representative)


def whitehead_normalize(u: NovikovElement) -> WhiteheadClass:
    """Class of a unit in the Whitehead quotient, canonically normalized."""
    return WhiteheadClass.from_unit(u)


def basis_change_class(
    even_transition: Matrix,
    odd_transition: Matrix,
    lattice,
    cutoff=DEFAULT_CUTOFF,
) -> BasisChangeClass:
    """Determinant class of a graded basis change.

    The matrices express the new even and odd bases in the old ones; the
    class is det(even) / det(odd) modulo sign.
    """
    det_even = determinant(lattice, even_transition)
    det_odd = determinant(lattice, odd_transition)
    return BasisChangeClass.from_unit(divide(det_even, det_odd, cutoff))


def milnor_torsion_unit(
    cplx: BasedComplex,
    cutoff=DEFAULT_CUTOFF,
    order0: Optional[Sequence[int]] = None,
    order1: Optional[Sequence[int]] = None,
) -> BasisChangeClass:
    """Torsion of an acyclic complex as a unit modulo sign.

    Collapse to the parity grading with differentials d0 (even to odd) and
    d1 (odd to even).  Pivot columns S0 of d0 have images forming a basis of
    the odd boundaries, and similarly S1 for d1.  The new even basis is the
    image columns d1[S1] followed by the standard vectors at S0 (the lifts
    of their images); the new odd basis is d0[S0] followed by the standard
    vectors at S1.  The torsion is det(even) / det(odd); the column orders
    only steer pivot choice and must not change the class.
    """
    report = cplx.validate()
    if not report.valid:
        raise ComplexStructureError("complex does not square to zero: " + report.failures[0])
    lattice = cplx.lattice
    names0, names1, d0, d1 = cplx.collapse()
    n0, n1 = len(names0), len(names1)
    sel0 = select_column_pivots(lattice, d0, column_order=order0)
    sel1 = select_column_pivots(lattice, d1, column_order=order1)
    if n0 - sel0.rank != sel1.rank or n1 - sel1.rank != sel0.rank:
        # columns declared zero only below a cutoff make the ranks lower bounds
        zero_cutoff = _min_cutoff(sel0.cutoff, sel1.cutoff)
        if zero_cutoff is not None and n0 == n1:
            raise IndeterminatePivotError(
                "ranks %d/%d on modules of rank %d/%d rest on columns known to vanish only "
                "below weight %s" % (sel0.rank, sel1.rank, n0, n1, zero_cutoff)
            )
        raise NotAcyclicError(
            "homology is nonzero: ranks %d/%d on modules of rank %d/%d"
            % (sel0.rank, sel1.rank, n0, n1)
        )
    # new bases as columns: image columns, then standard vectors
    cols0, cols1 = tuple(zip(*d0)), tuple(zip(*d1))
    e0, e1 = identity(lattice, n0), identity(lattice, n1)
    even = [cols1[j] for j in sel1.columns] + [e0[j] for j in sel0.columns]
    odd = [cols0[j] for j in sel0.columns] + [e1[j] for j in sel1.columns]
    det_even = determinant(lattice, tuple(zip(*even)))
    det_odd = determinant(lattice, tuple(zip(*odd)))
    rep = divide(det_even, det_odd, cutoff)
    certify = _min_cutoff(report.cutoff, _min_cutoff(sel0.cutoff, sel1.cutoff))
    if certify is not None:
        rep = rep.truncate(certify)
    return BasisChangeClass.from_unit(rep)


def milnor_torsion(
    cplx: BasedComplex,
    cutoff=DEFAULT_CUTOFF,
    order0: Optional[Sequence[int]] = None,
    order1: Optional[Sequence[int]] = None,
) -> WhiteheadClass:
    """Torsion of an acyclic based complex in the Whitehead quotient."""
    return milnor_torsion_unit(cplx, cutoff, order0, order1).to_whitehead()


def relative_torsion(f: ChainMap, cutoff=DEFAULT_CUTOFF) -> WhiteheadClass:
    """Torsion of a quasi-isomorphism: the torsion of its mapping cone.

    The cone carries the concatenated basis (target, then shifted source).
    Raises NotAcyclicError when the cone is not acyclic, i.e. when f is not
    a homology isomorphism.
    """
    cone = mapping_cone(f)
    try:
        return milnor_torsion(cone, cutoff)
    except NotAcyclicError as exc:
        raise NotAcyclicError("map is not a quasi-isomorphism: %s" % exc) from exc


def homotopy_equivalent(f: ChainMap, g: ChainMap, homotopy: dict[int, Matrix]) -> bool:
    """Whether f - g equals d2 H + H d1 entrywise (below cutoffs).

    ``homotopy[d]`` maps degree d of the source to degree d-1 of the target.
    """
    if f.source is not g.source and f.source != g.source:
        raise ShapeError("chain maps must share a source")
    if f.target is not g.target and f.target != g.target:
        raise ShapeError("chain maps must share a target")
    src, tgt = f.source, f.target

    def h_block(d):
        rows, cols = tgt.rank(src.shift(d, -1)), src.rank(d)
        mat = as_matrix(homotopy[d], cols) if d in homotopy else zeros(src.lattice, rows, cols)
        if len(mat) != rows:
            raise ShapeError("homotopy block at degree %d has wrong shape" % d)
        return mat

    for d in sorted(set(src.degrees()) | set(tgt.degrees())):
        lhs = mat_sub(f.block(d), g.block(d))
        below, above = src.shift(d, -1), src.shift(d, 1)
        rhs = mat_add(
            mat_mul(tgt.differential(below), h_block(d)),
            mat_mul(h_block(above), src.differential(d)),
        )
        for row in mat_sub(lhs, rhs):
            for e in row:
                if e.terms:
                    return False
    return True

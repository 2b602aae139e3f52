"""Torsion of based acyclic complexes and of quasi-isomorphisms.

Units of the Novikov ring represent determinant classes: modulo sign only
(basis-change classes) or modulo sign and group monomials (Whitehead
classes); both share one implementation and differ only in how a unit is
normalized.  The torsion of an acyclic parity-graded complex is the ratio
of two square minors of its differentials, one per parity, cut out by the
pivot columns of a column reduction (see ``milnor_torsion_unit``).  The
convention is fixed so that a two-term complex whose generator sits in
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
    mat_add,
    mat_mul,
    mat_sub,
    select_column_pivots,
    zeros,
)
from .series import DEFAULT_CUTOFF, NovikovElement, NotInvertibleError, _min_cutoff, divide


@dataclass(frozen=True, eq=False)
class _DeterminantClass:
    """A unit modulo a subgroup, stored as a normalized representative.

    Subclasses say how ``_normalize`` picks the representative; products,
    inverses and comparisons are only defined between classes of one kind.
    """

    representative: NovikovElement

    @classmethod
    def from_unit(cls, u: NovikovElement):
        lt = u.leading_term()
        if lt is None:
            raise NotInvertibleError("not a unit: no known leading term")
        return cls(cls._normalize(u, lt))

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.from_unit(self.representative * other.representative)

    def inverse(self, cutoff=None):
        return self.from_unit(self.representative.invert(cutoff))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.representative.agree_below(other.representative)

    __hash__ = None

    @property
    def cutoff(self) -> Optional[Fraction]:
        return self.representative.cutoff

    def __str__(self):
        return str(self.representative)


class BasisChangeClass(_DeterminantClass):
    """A unit modulo sign; the determinant class of a change of graded basis."""

    @staticmethod
    def _normalize(u, lead):
        return -u if lead.coefficient < 0 else u

    def to_whitehead(self) -> "WhiteheadClass":
        return WhiteheadClass.from_unit(self.representative)


class WhiteheadClass(_DeterminantClass):
    """A unit modulo sign and group monomials, in normalized form.

    The representative is the unit divided by the signed monomial of its
    leading term, so its leading term is a positive rational sitting at the
    group identity.  The class is trivial exactly when the representative
    is the constant 1; rational constants other than 1 stay non-trivial.
    """

    @staticmethod
    def _normalize(u, lead):
        sign = 1 if lead.coefficient > 0 else -1
        return u * NovikovElement.monomial(u.lattice, sign, g_neg(lead.element))

    @property
    def trivial(self) -> bool:
        """Certified trivial below the cutoff; exact when the cutoff is None."""
        lattice = self.representative.lattice
        return self.representative.terms == {lattice.identity(): Fraction(1)}

    @property
    def leading_coefficient(self) -> Fraction:
        return self.representative.leading_term().coefficient


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
    the odd boundaries, and similarly S1 for d1; R0 are the even indices
    outside S0 and R1 the odd indices outside S1.  The new even basis, the
    image columns d1[S1] with the standard vectors at S0, has transition
    determinant +-det d1[R0, S1] (expand along the standard vectors), and
    likewise the odd one +-det d0[R1, S0].  The torsion is the even minor
    over the odd minor, modulo sign; the column orders only steer pivot
    choice and must not change the class.
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
    s0, s1 = sel0.columns, sel1.columns
    r0 = [i for i in range(n0) if i not in s0]
    r1 = [i for i in range(n1) if i not in s1]
    det_even = determinant(lattice, [[d1[i][j] for j in s1] for i in r0])
    det_odd = determinant(lattice, [[d0[i][j] for j in s0] for i in r1])
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

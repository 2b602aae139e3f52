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

from collections.abc import Sequence
from fractions import Fraction

from .complexes import (
    BasedComplex, ChainMap, NotAcyclicError, _certify_square_zero, _nonzero_entries, mapping_cone,
)
from .lattice import _ReadOnly, g_neg
from .linalg import (
    IndeterminatePivotError,
    Matrix,
    ShapeError,
    _from_entries,
    as_matrix,
    determinant,
    mat_add,
    mat_mul,
    mat_sub,
    select_column_pivots,
    zeros,
)
from .series import DEFAULT_CUTOFF, NovikovElement, NotInvertibleError, divide


class _DeterminantClass(_ReadOnly):
    """A unit modulo a subgroup, stored as a normalized representative.

    Subclasses say how ``_normalize`` picks the representative; products
    and comparisons are only defined between classes of one kind.
    """

    __slots__ = ("representative",)

    def __init__(self, representative: NovikovElement):
        object.__setattr__(self, "representative", representative)

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

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.representative.agree_below(other.representative)

    __hash__ = None

    @property
    def cutoff(self) -> Fraction | None:
        return self.representative.cutoff

    def __str__(self):
        return str(self.representative)


class BasisChangeClass(_DeterminantClass):
    """A unit modulo sign; the determinant class of a change of graded basis."""

    __slots__ = ()

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

    __slots__ = ()

    @staticmethod
    def _normalize(u, lead):
        sign = 1 if lead.coefficient > 0 else -1
        return u * NovikovElement.monomial(u.lattice, sign, g_neg(lead.element))

    @property
    def trivial(self) -> bool:
        """Certified trivial below the cutoff; exact when the cutoff is None."""
        rep = self.representative
        return rep._den == 1 and rep._num == {0: 1}  # the constant 1: key 0 is the identity

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


def _minor(lattice, mat: Matrix, skip_rows, cols) -> Matrix:
    """``mat`` on the rows outside ``skip_rows`` and on ``cols`` in order, from its live entries."""
    skip, place = set(skip_rows), {j: p for p, j in enumerate(cols)}
    rows = ({place[j]: e for j, e in row.items() if j in place} for i, row in enumerate(mat.live) if i not in skip)
    return _from_entries(lattice, len(cols), rows)


def milnor_torsion_unit(
    cplx: BasedComplex,
    cutoff=DEFAULT_CUTOFF,
    order0: Sequence[int] | None = None,
    order1: Sequence[int] | None = None,
) -> BasisChangeClass:
    """Torsion of an acyclic complex as a unit modulo sign.

    Collapse to the parity grading with differentials d0 (even to odd) and
    d1 (odd to even).  Pivot columns S0 of d0 have images forming a basis of
    the odd boundaries, and similarly S1 for d1; R0 are the even indices
    outside S0 and R1 the odd indices outside S1.  The new even basis, the
    image columns d1[S1] with the standard vectors at S0, has transition
    determinant +-det d1[R0, S1] (expand along the standard vectors), and
    likewise the odd one +-det d0[R1, S0].  The torsion is
    ``basis_change_class`` of the even and odd minors; the column orders
    only steer pivot choice and must not change the class.
    """
    square_zero = _certify_square_zero(cplx)
    lattice = cplx.lattice
    names0, names1, d0, d1 = cplx.collapse()
    n0, n1 = len(names0), len(names1)
    sel0 = select_column_pivots(lattice, d0, column_order=order0)
    sel1 = select_column_pivots(lattice, d1, column_order=order1)
    zero = sel0.zero + sel1.zero
    if n0 - sel0.rank != sel1.rank or n1 - sel1.rank != sel0.rank:
        # columns declared zero only below a cutoff make the ranks lower bounds
        if not zero.is_exact and n0 == n1:
            raise IndeterminatePivotError(
                "ranks %d/%d on modules of rank %d/%d rest on columns known to vanish only "
                "below weight %s" % (sel0.rank, sel1.rank, n0, n1, zero.cutoff)
            )
        raise NotAcyclicError(
            "homology is nonzero: ranks %d/%d on modules of rank %d/%d"
            % (sel0.rank, sel1.rank, n0, n1)
        )
    minor_even = _minor(lattice, d1, sel0.columns, sel1.columns)
    minor_odd = _minor(lattice, d0, sel1.columns, sel0.columns)
    unit = basis_change_class(minor_even, minor_odd, lattice, cutoff)
    certify = square_zero + zero
    return unit if certify.is_exact else BasisChangeClass.from_unit(unit.representative + certify)


def milnor_torsion(
    cplx: BasedComplex,
    cutoff=DEFAULT_CUTOFF,
    order0: Sequence[int] | None = None,
    order1: Sequence[int] | None = None,
) -> WhiteheadClass:
    """Torsion of an acyclic based complex in the Whitehead quotient."""
    return milnor_torsion_unit(cplx, cutoff, order0, order1).to_whitehead()


def relative_torsion(f: ChainMap, cutoff=DEFAULT_CUTOFF) -> WhiteheadClass:
    """Torsion of a quasi-isomorphism: the torsion of its mapping cone.

    The cone carries the concatenated basis (target, then shifted source).
    Raises ComplexStructureError when f is not a chain map (the cone's d^2
    is nonzero at a ``(t_.. <- s_..)`` entry), and NotAcyclicError when the
    cone is not acyclic, i.e. when f is not a homology isomorphism.
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
        if _nonzero_entries(mat_sub(lhs, rhs), NovikovElement.zero(src.lattice))[0]:
            return False
    return True

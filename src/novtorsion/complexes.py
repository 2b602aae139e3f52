"""Based graded complexes of free modules over a Novikov ring.

A complex carries, per degree, an ordered tuple of named basis generators
and a differential matrix of degree +1.  The grading is either Z (modulus
None) or Z_m for an even modulus m; torsion computations collapse either
one to the parity grading.  Generator names are globally unique so that
text documents can reference them without degree qualifiers.
"""

from __future__ import annotations

from .lattice import GroupElement, Lattice, _ReadOnly, g_neg
from .linalg import (
    IndeterminatePivotError,
    Matrix,
    ShapeError,
    _from_blocks,
    _from_entries,
    as_matrix,
    identity,
    mat_mul,
    mat_sub,
    select_column_pivots,
    zeros,
)
from .series import LatticeMismatchError, NovikovElement, _report_cutoff


class ComplexStructureError(ValueError):
    """The data does not assemble into a valid based complex or chain map."""


class NotAcyclicError(ValueError):
    """The operation requires an acyclic complex."""


# The torus pipeline's errors live here, so that the CLI catches them without importing numpy.
class ProfileError(ValueError):
    """System parameters violate the profile conditions."""


class OrbitSearchError(RuntimeError):
    """Orbit or connecting-trajectory search failed or found garbage."""


class DegenerateEndpointError(ArithmeticError):
    """Index of a symplectic path with eigenvalue 1 at the endpoint."""


def _blocks(mats: dict, lattice: Lattice, shape, what: str) -> dict[int, Matrix]:
    """``mats`` keyed by int degree, each block a ``shape(d)`` matrix over ``lattice``
    (else ComplexStructureError), without the blocks with no rows or no columns."""
    out = {}
    for d, mat in mats.items():
        d = int(d)
        nrows, ncols = shape(d)
        try:
            mat = as_matrix(mat, ncols)
            foreign = mat.lattice not in (None, lattice)  # identity, then equality
        except ShapeError:
            mat = foreign = None
        except LatticeMismatchError:
            foreign = True
        if foreign:
            raise ComplexStructureError("%s at degree %d has an entry over a different lattice" % (what, d))
        if mat is None or len(mat) != nrows:
            raise ComplexStructureError("%s at degree %d must be %dx%d" % (what, d, nrows, ncols))
        if mat and mat.ncols:
            out[d] = mat
    return out


def _nonzero_entries(mat: Matrix, zero: NovikovElement) -> tuple[list[tuple[int, int, NovikovElement]], NovikovElement]:
    """Entries with known terms as (row, column, entry), and ``zero`` plus
    the other entries: a termless element whose cutoff is the weakest below
    which they are all certified zero."""
    nonzero = []
    for i, row in enumerate(mat.live):
        for j, e in row.items():
            if e._num:
                nonzero.append((i, j, e))
            else:
                zero = zero + e
    return nonzero, zero


def _certify_square_zero(cplx: BasedComplex) -> NovikovElement:
    """The termless zero below whose cutoff ``cplx`` squares to zero, or ComplexStructureError."""
    report = cplx.validate()
    if not report.valid:
        raise ComplexStructureError("complex does not square to zero: " + report.failures[0])
    return report.zero


class ValidationReport(_ReadOnly):
    __slots__ = ("valid", "zero", "failures")
    cutoff = _report_cutoff

    def __init__(self, valid: bool, zero: NovikovElement, failures: tuple[str, ...] = ()):
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "zero", zero)  # the termless composite entries, summed
        object.__setattr__(self, "failures", failures)


class RanksReport(_ReadOnly):
    __slots__ = ("ranks", "zero")
    cutoff = _report_cutoff

    def __init__(self, ranks: dict[int, int], zero: NovikovElement):
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "zero", zero)  # the pivot zero columns and the d^2 = 0 zero, summed

    @property
    def acyclic(self) -> bool:
        return all(r == 0 for r in self.ranks.values())


def shift_degree(d: int, by: int, modulus: int | None) -> int:
    """Degree ``d + by``, reduced mod ``modulus`` for a Z_m grading."""
    return d + by if modulus is None else (d + by) % modulus


class BasedComplex(_ReadOnly):
    __slots__ = ("lattice", "modules", "differentials", "modulus")

    def __init__(
        self,
        lattice: Lattice,
        modules: dict[int, tuple[str, ...]],
        differentials: dict[int, Matrix],
        modulus: int | None = None,
    ):
        if modulus is not None:
            if modulus < 2 or modulus % 2:
                raise ComplexStructureError("grading modulus must be even and >= 2")
        modules = {int(d): tuple(names) for d, names in modules.items() if names}
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "modules", modules)
        object.__setattr__(self, "modulus", modulus)
        seen = set()
        for d, names in modules.items():
            if modulus is not None and not 0 <= d < modulus:
                raise ComplexStructureError("degree %d outside Z_%d" % (d, modulus))
            for n in names:
                if n in seen:
                    raise ComplexStructureError("duplicate generator name %r" % n)
                seen.add(n)
        shape = lambda d: (self.rank(self.shift(d, 1)), self.rank(d))
        object.__setattr__(self, "differentials", _blocks(differentials, lattice, shape, "differential"))

    def __eq__(self, other):
        if not isinstance(other, BasedComplex):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None

    # -- basic structure ---------------------------------------------------

    def shift(self, d: int, by: int) -> int:
        return shift_degree(d, by, self.modulus)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.modules))

    def rank(self, d: int) -> int:
        return len(self.modules.get(d, ()))

    def total_rank(self) -> int:
        return sum(len(v) for v in self.modules.values())

    def generators(self, d: int) -> tuple[str, ...]:
        return self.modules.get(d, ())

    def differential(self, d: int) -> Matrix:
        mat = self.differentials.get(d)
        if mat is not None:
            return mat
        return zeros(self.lattice, self.rank(self.shift(d, 1)), self.rank(d))

    def euler_parity(self) -> tuple[int, int]:
        """Generator counts in even and odd degrees."""
        even = sum(len(v) for d, v in self.modules.items() if d % 2 == 0)
        odd = sum(len(v) for d, v in self.modules.items() if d % 2 == 1)
        return even, odd

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check that the differential squares to zero entrywise.

        Shape consistency is enforced at construction; here each composite
        entry must have no known terms, and the report carries the weakest
        cutoff below which those zeros are certified.
        """
        failures, zero = [], NovikovElement.zero(self.lattice)
        for d, mat in sorted(self.differentials.items()):
            nxt = self.differentials.get(self.shift(d, 1))
            if nxt is None:
                continue
            nonzero, zero = _nonzero_entries(mat_mul(nxt, mat), zero)
            failures.extend(
                "d^2 from degree %d is nonzero at (%s <- %s): %s"
                % (d, self.generators(self.shift(d, 2))[i], self.generators(d)[j], e)
                for i, j, e in nonzero
            )
        return ValidationReport(not failures, zero, tuple(failures))

    def homology_ranks(self) -> RanksReport:
        """Per-degree homology ranks via unit-pivot Gaussian elimination.

        The complex must square to zero first (ComplexStructureError if not).
        Columns known to vanish only below a cutoff make the differential
        ranks lower bounds, so positive homology ranks then raise
        IndeterminatePivotError naming that cutoff; ranks of 0 stay certified.
        The report's cutoff is the weaker of the pivot and d^2 = 0 cutoffs.
        """
        square_zero = _certify_square_zero(self)
        ranks: dict[int, int] = {}
        rank_of_diff: dict[int, int] = {}
        zero = NovikovElement.zero(self.lattice)
        for d, mat in self.differentials.items():
            sel = select_column_pivots(self.lattice, mat)
            rank_of_diff[d] = sel.rank
            zero = zero + sel.zero
        for d in self.degrees():
            incoming = rank_of_diff.get(self.shift(d, -1), 0)
            outgoing = rank_of_diff.get(d, 0)
            ranks[d] = self.rank(d) - incoming - outgoing
            if ranks[d] < 0:
                raise ComplexStructureError(
                    "rank bookkeeping failed at degree %d; is d^2 = 0?" % d
                )
        if not zero.is_exact and any(ranks.values()):
            raise IndeterminatePivotError(
                "positive homology ranks in degrees %s rest on columns known to vanish "
                "only below weight %s" % (", ".join(str(d) for d in ranks if ranks[d]), zero.cutoff)
            )
        return RanksReport(ranks, zero + square_zero)

    # -- parity collapse -----------------------------------------------------

    def collapse(self):
        """Collapse to the parity grading.

        Returns (even_names, odd_names, d_even, d_odd) where d_even maps the
        even part to the odd part and d_odd maps back.
        """
        names: tuple[list, list] = ([], [])
        offset = {}
        for d in self.degrees():
            offset[d] = len(names[d % 2])
            names[d % 2].extend(self.generators(d))
        blocks: tuple[list, list] = ([], [])
        for d, mat in self.differentials.items():
            blocks[d % 2].append((offset[self.shift(d, 1)], offset[d], mat))
        d0, d1 = (_from_blocks(self.lattice, len(names[1 - p]), len(names[p]), blocks[p]) for p in (0, 1))
        return tuple(names[0]), tuple(names[1]), d0, d1


class ChainMap(_ReadOnly):
    __slots__ = ("source", "target", "matrices")

    def __init__(self, source: BasedComplex, target: BasedComplex, matrices: dict[int, Matrix]):
        if source.lattice != target.lattice:
            raise ComplexStructureError("chain map between complexes over different lattices")
        if source.modulus != target.modulus:
            raise ComplexStructureError("chain map between complexes with different gradings")
        shape = lambda d: (target.rank(d), source.rank(d))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrices", _blocks(matrices, source.lattice, shape, "chain map block"))

    def block(self, d: int) -> Matrix:
        mat = self.matrices.get(d)
        if mat is not None:
            return mat
        return zeros(self.source.lattice, self.target.rank(d), self.source.rank(d))

    def validate(self) -> ValidationReport:
        """Check the commuting condition d_target f = f d_source entrywise."""
        failures, zero = [], NovikovElement.zero(self.source.lattice)
        degrees = set(self.source.degrees()) | set(self.target.degrees())
        for d in sorted(degrees):
            t = self.source.shift(d, 1)
            lhs = mat_mul(self.target.differential(d), self.block(d))
            rhs = mat_mul(self.block(t), self.source.differential(d))
            nonzero, zero = _nonzero_entries(mat_sub(lhs, rhs), zero)
            failures.extend(
                "square at degree %d fails at entry (%d,%d): %s" % (d, i, j, e) for i, j, e in nonzero
            )
        return ValidationReport(not failures, zero, tuple(failures))


def mapping_cone(f: ChainMap) -> BasedComplex:
    """Cone complex of a chain map.

    Degree d of the cone is target^d plus source^{d+1}; the differential is
    the block matrix with the target differential, the source differential
    shifted, and the connecting block (-1)^{d+1} f^{d+1}.  The basis is the
    target basis followed by the shifted source basis, with generator names
    prefixed ``t_`` and ``s_``.  As for ``BasedComplex``, d^2 = 0 is left to
    ``validate``, ``homology_ranks`` and the torsion functions; the cone's d^2
    from ``s_`` to ``t_`` is +-(d_target f - f d_source), so they check f too.
    """
    src, tgt = f.source, f.target
    lattice = tgt.lattice
    shift = tgt.shift
    degrees = set(tgt.degrees()) | {shift(d, -1) for d in src.degrees()}
    modules = {}
    for d in degrees:
        names = tuple("t_" + n for n in tgt.generators(d)) + tuple(
            "s_" + n for n in src.generators(shift(d, 1))
        )
        if names:
            modules[d] = names
    diffs = {}
    for d in sorted(degrees):
        t = shift(d, 1)
        d2, d1, fb = tgt.differential(d), src.differential(t), f.block(t)
        if (d + 1) % 2:
            fb = _from_entries(lattice, fb.ncols, ({j: -e for j, e in row.items()} for row in fb.live))
        blocks = ((0, 0, d2), (0, d2.ncols, fb), (len(d2), d2.ncols, d1))
        mat = _from_blocks(lattice, len(d2) + len(d1), d2.ncols + d1.ncols, blocks)
        if any(mat.live):
            diffs[d] = mat
    return BasedComplex(lattice, modules, diffs, tgt.modulus)


def rebase(cplx: BasedComplex, transitions: dict[int, Matrix], inverses: dict[int, Matrix]) -> BasedComplex:
    """Express the complex in new bases.

    ``transitions[d]`` writes the new degree-d basis in terms of the old one
    (columns are the new basis vectors); ``inverses[d]`` must be its exact
    inverse, typically built alongside it from elementary operations.  The
    differential transforms to T_{d+1}^{-1} D_d T_d.
    """
    for d, t in transitions.items():
        n = cplx.rank(d)
        if as_matrix(t).shape != (n, n):
            raise ShapeError("transition at degree %d must be %dx%d" % (d, n, n))
        inv = inverses.get(d)
        if inv is None:
            raise ValueError("missing inverse transition for degree %d" % d)
        defect = mat_sub(mat_mul(t, inv), identity(cplx.lattice, n))
        if _nonzero_entries(defect, NovikovElement.zero(cplx.lattice))[0]:
            raise ValueError("transition and inverse at degree %d do not cancel" % d)
    diffs = {}
    for d in set(cplx.differentials):
        t = cplx.shift(d, 1)
        mat = cplx.differential(d)
        if d in transitions:
            mat = mat_mul(mat, transitions[d])
        if t in inverses:
            mat = mat_mul(inverses[t], mat)
        diffs[d] = mat
    return BasedComplex(cplx.lattice, dict(cplx.modules), diffs, cplx.modulus)


def relabel_lifts(cplx: BasedComplex, shifts: dict[int, tuple[GroupElement, ...]]) -> BasedComplex:
    """Multiply basis generators by group monomials (a change of lift).

    ``shifts[d][i]`` rescales the i-th degree-d generator by the monomial of
    that group element; the torsion class in the Whitehead quotient must not
    see the difference.
    """
    lattice = cplx.lattice

    def diagonal(elems):
        monomials = (NovikovElement.monomial(lattice, 1, g) for g in elems)
        return _from_entries(lattice, len(elems), ({i: m} for i, m in enumerate(monomials)))

    transitions = {}
    inverses = {}
    for d, elems in shifts.items():
        if len(elems) != cplx.rank(d):
            raise ShapeError("need one group element per degree-%d generator" % d)
        transitions[d] = diagonal(elems)
        inverses[d] = diagonal([g_neg(g) for g in elems])
    return rebase(cplx, transitions, inverses)


def two_term_complex(
    lattice: Lattice,
    entry: NovikovElement,
    low_degree: int = 1,
    names: tuple[str, str] = ("a", "b"),
    modulus: int | None = None,
) -> BasedComplex:
    """The complex 0 -> L -> L -> 0 with the given differential entry."""
    lo, hi = names
    d = low_degree
    return BasedComplex(
        lattice,
        {d: (lo,), shift_degree(d, 1, modulus): (hi,)},
        {d: ((entry,),)},
        modulus,
    )

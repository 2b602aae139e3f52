"""Small sparse matrices over Novikov elements.

A ``Matrix`` stores only its live entries, per row a ``{column: entry}``
dict in increasing column order; live means not an exact zero (a truncated
zero stays live for its cutoff).  It also records its column count and
lattice, so a matrix with no rows or no columns keeps its shape and
products through an empty dimension come out the right size.  Dense rows,
the exact zero off the live entries, are a read-only view.  One
constructor, ``_from_entries``, lays out every matrix: it checks the
lattice of each given entry and leaves out exact zeros.  ``mat_mul`` is a
row-wise (Gustavson) product, so an output entry that no product reaches
is the exact zero.  Determinants use a division-free subset expansion so
truncation bookkeeping stays with the ring operations; pivot selection
uses fraction-free column reduction where every pivot must carry an
unambiguous invertible leading term, and each step updates only the live
entries of the unused rows of later columns, multiplying by no exact zero.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

from .lattice import Lattice, _ReadOnly
from .series import AmbiguousLeadingTermError, ExpansionLimitError, LatticeMismatchError, NovikovElement, _report_cutoff

_DET_MASKS = math.comb(14, 7)  # partial expansions one determinant row may hold: a dense 14x14's peak


class ShapeError(ValueError):
    """Matrix dimensions do not fit the operation."""


class IndeterminatePivotError(ArithmeticError):
    """A reduction step found only nonzero entries whose leading terms are
    ambiguous, so no certified-invertible pivot exists."""


def _is_live(e: NovikovElement) -> bool:
    """Not an exact zero; a truncated zero stays live for its cutoff."""
    return bool(e._num) or e._ck is not None


class Matrix:
    """A matrix as its live entries, with a known ``ncols`` and ``lattice``.

    ``live[i]`` maps the columns of row i's live entries, in increasing
    order, to the entries.  ``m[i]``, ``iter``, ``len``, ``==`` and ``repr``
    are those of the dense row tuples, a view the algebra never reads.
    ``lattice`` is None only for a matrix given without entries.
    """

    __slots__ = ("live", "ncols", "lattice")

    def __init__(self, live: tuple[dict[int, NovikovElement], ...], ncols: int, lattice: Lattice | None):
        self.live, self.ncols, self.lattice = live, ncols, lattice

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.live), self.ncols

    def __len__(self) -> int:
        return len(self.live)

    def __getitem__(self, i: int) -> tuple[NovikovElement, ...]:
        """Row i as a dense tuple, the exact zero off its live entries."""
        row, z = self.live[i], NovikovElement.zero(self.lattice)
        return tuple(row.get(j, z) for j in range(self.ncols))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.live)))

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return self.ncols == other.ncols and tuple(self) == tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


def _from_entries(lattice: Lattice | None, ncols: int, rows_of_entries) -> Matrix:
    """The matrix with one ``{column: entry}`` per row, exact zeros left out.
    Raises LatticeMismatchError on an entry over another lattice, exact zeros too."""
    live = []
    for entries in rows_of_entries:
        row = {}
        for j in sorted(entries):
            e = entries[j]
            if e.lattice is not lattice and e.lattice != lattice:
                raise LatticeMismatchError("matrix entries over different lattices")
            if _is_live(e):
                row[j] = e
        live.append(row)
    return Matrix(tuple(live), ncols, lattice)


def _from_blocks(lattice: Lattice, nrows: int, ncols: int, blocks) -> Matrix:
    """The nrows x ncols matrix holding each ``(row offset, column offset,
    block)`` at its place, taken from the block's live entries."""
    rows: list[dict[int, NovikovElement]] = [{} for _ in range(nrows)]
    for r0, c0, block in blocks:
        for i, row in enumerate(block.live):
            rows[r0 + i].update((c0 + j, e) for j, e in row.items())
    return _from_entries(lattice, ncols, rows)


def as_matrix(rows, ncols: int | None = None) -> Matrix:
    """The matrix with these rows; a row-less input needs ``ncols``.

    Raises ShapeError on ragged rows or a column count they contradict, and
    LatticeMismatchError on entries over different lattices.
    """
    if isinstance(rows, Matrix):
        if ncols is not None and ncols != rows.ncols:
            raise ShapeError("matrix has %d columns, expected %d" % (rows.ncols, ncols))
        return rows
    rows = tuple(tuple(r) for r in rows)
    if ncols is None:
        if not rows:
            raise ShapeError("column count required for a matrix with no rows")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ShapeError("ragged matrix: every row needs %d entries" % ncols)
    lattice = rows[0][0].lattice if rows and ncols else None
    return _from_entries(lattice, ncols, (dict(enumerate(r)) for r in rows))


def zeros(lattice: Lattice, nrows: int, ncols: int) -> Matrix:
    return _from_entries(lattice, ncols, ({} for _ in range(nrows)))


def identity(lattice: Lattice, n: int) -> Matrix:
    one = NovikovElement.one(lattice)
    return _from_entries(lattice, n, ({i: one} for i in range(n)))


def _operands(a, b) -> tuple[Matrix, Matrix, Lattice | None]:
    """Both operands as matrices and their lattice; LatticeMismatchError when
    both have entries, over different lattices."""
    a, b = as_matrix(a), as_matrix(b)
    if a and a.ncols and b and b.ncols and a.lattice is not b.lattice and a.lattice != b.lattice:
        raise LatticeMismatchError("operands over different lattices")
    return a, b, a.lattice or b.lattice


def _entrywise(op, a, b) -> Matrix:
    """``op`` where either entry is live; two exact zeros give the exact zero."""
    a, b, lattice = _operands(a, b)
    if a.shape != b.shape:
        raise ShapeError("entrywise operation on %dx%d and %dx%d" % (a.shape + b.shape))
    z = NovikovElement.zero(lattice)
    out = ({j: op(ra.get(j, z), rb.get(j, z)) for j in {*ra, *rb}} for ra, rb in zip(a.live, b.live))
    return _from_entries(lattice, a.ncols, out)


def mat_add(a, b) -> Matrix:
    return _entrywise(operator.add, a, b)


def mat_sub(a, b) -> Matrix:
    return _entrywise(operator.sub, a, b)


def mat_mul(a, b) -> Matrix:
    """Product of an r x k and a k x c matrix, row by row over live entries
    (Gustavson): an output entry that no product reaches, and so every entry
    when k = 0, is the exact zero.  Each entry sums its products in increasing k."""
    a, b, lattice = _operands(a, b)
    if a.ncols != len(b):
        raise ShapeError("cannot multiply %dx%d by %dx%d" % (a.shape + b.shape))
    if lattice is None and a and b.ncols:
        raise ShapeError("a product through an empty dimension needs a matrix with entries")
    out = []
    for row in a.live:
        acc: dict[int, NovikovElement] = {}
        for k, x in row.items():
            for j, y in b.live[k].items():
                p = x * y
                s = acc.get(j)
                acc[j] = p if s is None else s + p
        out.append(acc)
    return _from_entries(lattice, b.ncols, out)


def determinant(lattice: Lattice, rows) -> NovikovElement:
    """Determinant by Laplace expansion over column subsets.

    Division free, so exact inputs give an exact determinant and truncated
    inputs propagate their cutoffs through the ordinary ring operations.
    Raises LatticeMismatchError on an entry over another lattice, and
    ExpansionLimitError past ``_DET_MASKS`` partial expansions at one row.
    """
    rows = as_matrix(rows, len(rows))
    if rows.lattice not in (None, lattice):
        raise LatticeMismatchError("matrix entries not over the given lattice")
    n = len(rows)
    prev = {0: NovikovElement.one(lattice)}
    for i, row in enumerate(rows.live):
        live = [(1 << j, e) for j, e in row.items()]
        cur: dict[int, NovikovElement] = {}
        for mask, val in prev.items():
            if not _is_live(val):
                continue
            for bit, entry in live:
                if mask & bit:
                    continue
                below = (mask & (bit - 1)).bit_count()
                term = entry * val
                if (i + below) % 2:
                    term = -term
                key = mask | bit
                acc = cur.get(key)
                cur[key] = term if acc is None else acc + term
        if len(cur) > _DET_MASKS:
            raise ExpansionLimitError("%dx%d determinant needs over %d partial expansions at one row" % (n, n, _DET_MASKS))
        prev = cur
    return prev.get((1 << n) - 1, NovikovElement.zero(lattice))


class PivotSelection(_ReadOnly):
    """Pivot positions found by unit-pivot column reduction.

    ``zero`` is the sum of the termless entries left in the columns that
    found no pivot, so its ``cutoff``, read as ``cutoff``, is the weakest
    bound below which those zero verdicts are certified (None when exact).
    """

    __slots__ = ("pivots", "zero")
    cutoff = _report_cutoff

    def __init__(self, pivots: tuple[tuple[int, int], ...], zero: NovikovElement):
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "zero", zero)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def columns(self) -> tuple[int, ...]:
        return tuple(sorted(c for _, c in self.pivots))


def select_column_pivots(
    lattice: Lattice,
    rows,
    ncols: int | None = None,
    column_order: Sequence[int] | None = None,
) -> PivotSelection:
    """Fraction-free column reduction with invertible leading-term pivots.

    Columns are processed in ``column_order``; each pivot entry must have an
    unambiguous leading term (hence be a unit over rational coefficients).
    A column whose free-row entries are nonzero but all ambiguous raises
    IndeterminatePivotError: its rank contribution cannot be certified.
    ``rows`` and ``ncols`` go through ``as_matrix``; an entry over another
    lattice raises LatticeMismatchError.
    """
    rows = as_matrix(rows, ncols)
    if rows.lattice not in (None, lattice):
        raise LatticeMismatchError("matrix entries not over the given lattice")
    order = list(column_order) if column_order is not None else list(range(rows.ncols))
    if sorted(order) != list(range(rows.ncols)):
        raise ValueError("column_order must be a permutation of the column indices")
    # each column as the live entries of its unused rows
    cols: list[dict[int, NovikovElement]] = [{} for _ in range(rows.ncols)]
    for i, row in enumerate(rows.live):
        for j, e in row.items():
            cols[j][i] = e
    pivots, zero = [], NovikovElement.zero(lattice)
    for pos, j in enumerate(order):
        col, pick, ambiguous = cols[j], None, False
        for i in sorted(col):
            if not col[i]._num:
                continue
            try:
                col[i]._lead()
            except AmbiguousLeadingTermError:
                ambiguous = True
                continue
            pick = i
            break
        if pick is None:
            if ambiguous:
                raise IndeterminatePivotError(
                    "column %d has only ambiguous-leading-term entries left" % j
                )
            for e in col.values():
                zero = zero + e
            continue
        pivot = col.pop(pick)
        pivots.append((pick, j))
        for k in order[pos + 1 :]:
            other = cols[k]
            e = other.pop(pick, None)
            if e is None:
                continue
            # pivot*x - e*y, leaving out a product with an exact zero
            for r in col.keys() | other.keys():
                x, y = other.get(r), col.get(r)
                v = pivot * x if y is None else -(e * y) if x is None else pivot * x - e * y
                if _is_live(v):
                    other[r] = v
                else:  # only a difference cancels to an exact zero
                    del other[r]
    return PivotSelection(tuple(pivots), zero)

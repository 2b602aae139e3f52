"""Small dense matrices over Novikov elements.

A ``Matrix`` is a tuple of row tuples that also records its column count
and lattice, so a matrix with no rows or no columns keeps its shape and
products through an empty dimension come out the right size.  Determinants
use a division-free subset expansion so truncation bookkeeping stays with
the ring operations; pivot selection uses fraction-free column reduction
where every pivot must carry an unambiguous invertible leading term.  Each
pivot step updates only the live submatrix (unused rows of unprocessed
columns), the only entries a later step reads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import Lattice
from .series import AmbiguousLeadingTermError, LatticeMismatchError, NovikovElement, _min_cutoff

_DET_LIMIT = 14


class ShapeError(ValueError):
    """Matrix dimensions do not fit the operation."""


class IndeterminatePivotError(ArithmeticError):
    """A reduction step found only nonzero entries whose leading terms are
    ambiguous, so no certified-invertible pivot exists."""


class Matrix(tuple):
    """Row tuples with a known ``ncols`` and ``lattice``.

    Indexing, ``len`` and row iteration are those of the row tuple.
    ``lattice`` is None only for a matrix given without entries.  Build one
    with ``as_matrix``, ``zeros`` or ``identity``.
    """

    ncols: int
    lattice: Optional[Lattice]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.ncols

    def __eq__(self, other):
        if isinstance(other, Matrix) and other.ncols != self.ncols:
            return False
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__


def _matrix(rows: tuple, ncols: int, lattice: Optional[Lattice]) -> Matrix:
    m = Matrix(rows)
    m.ncols = ncols
    m.lattice = lattice
    return m


def as_matrix(rows, ncols: Optional[int] = None) -> Matrix:
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
    for row in rows:
        for e in row:
            if e.lattice is not lattice and e.lattice != lattice:
                raise LatticeMismatchError("matrix entries over different lattices")
    return _matrix(rows, ncols, lattice)


def zeros(lattice: Lattice, nrows: int, ncols: int) -> Matrix:
    return _matrix(((NovikovElement.zero(lattice),) * ncols,) * nrows, ncols, lattice)


def identity(lattice: Lattice, n: int) -> Matrix:
    one = NovikovElement.one(lattice)
    z = NovikovElement.zero(lattice)
    rows = tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))
    return _matrix(rows, n, lattice)


def _entrywise(op, a, b) -> Matrix:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError("entrywise operation on %dx%d and %dx%d" % (a.shape + b.shape))
    rows = tuple(tuple(op(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    return _matrix(rows, a.ncols, a.lattice or b.lattice)


def mat_add(a, b) -> Matrix:
    return _entrywise(operator.add, a, b)


def mat_sub(a, b) -> Matrix:
    return _entrywise(operator.sub, a, b)


def _dot(row, col) -> NovikovElement:
    acc = row[0] * col[0]
    for x, y in zip(row[1:], col[1:]):
        acc = acc + x * y
    return acc


def mat_mul(a, b) -> Matrix:
    """Product of an r x k and a k x c matrix; an r x c zero matrix when k = 0."""
    a, b = as_matrix(a), as_matrix(b)
    if a.ncols != len(b):
        raise ShapeError("cannot multiply %dx%d by %dx%d" % (a.shape + b.shape))
    lattice = a.lattice or b.lattice
    if not b:
        if lattice is None and a and b.ncols:
            raise ShapeError("a product through an empty dimension needs a matrix with entries")
        return zeros(lattice, len(a), b.ncols)
    cols = tuple(zip(*b))
    return _matrix(tuple(tuple(_dot(row, col) for col in cols) for row in a), b.ncols, lattice)


def determinant(lattice: Lattice, rows) -> NovikovElement:
    """Determinant by Laplace expansion over column subsets.

    Division free, so exact inputs give an exact determinant and truncated
    inputs propagate their cutoffs through the ordinary ring operations.
    Raises LatticeMismatchError on an entry over another lattice.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("determinant of a non-square matrix")
    if n and as_matrix(rows).lattice not in (None, lattice):
        raise LatticeMismatchError("matrix entries not over the given lattice")
    if n == 0:
        return NovikovElement.one(lattice)
    if n > _DET_LIMIT:
        raise ShapeError("determinant limited to %dx%d matrices" % (_DET_LIMIT, _DET_LIMIT))
    prev = {0: NovikovElement.one(lattice)}
    for i, row in enumerate(rows):
        cur: dict[int, NovikovElement] = {}
        for mask, val in prev.items():
            if val.is_zero and val.is_exact:
                continue
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = row[j]
                if entry.is_zero and entry.is_exact:
                    continue
                below = (mask & (bit - 1)).bit_count()
                term = entry * val
                if (i + below) % 2:
                    term = -term
                key = mask | bit
                acc = cur.get(key)
                cur[key] = term if acc is None else acc + term
        if not cur:
            return NovikovElement.zero(lattice)
        prev = cur
    full = (1 << n) - 1
    return prev.get(full, NovikovElement.zero(lattice))


@dataclass(frozen=True)
class PivotSelection:
    """Pivot positions found by unit-pivot column reduction.

    ``cutoff`` is the weakest bound below which the zero verdicts used by
    the reduction are certified (None when everything was exact).
    """

    pivots: tuple[tuple[int, int], ...]
    cutoff: Optional[Fraction]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def columns(self) -> tuple[int, ...]:
        return tuple(sorted(c for _, c in self.pivots))


def select_column_pivots(
    lattice: Lattice,
    rows,
    ncols: Optional[int] = None,
    column_order: Optional[Sequence[int]] = None,
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
    m, ncols = rows.shape
    cols = [[rows[i][j] for i in range(m)] for j in range(ncols)]
    order = list(column_order) if column_order is not None else list(range(ncols))
    if sorted(order) != list(range(ncols)):
        raise ValueError("column_order must be a permutation of the column indices")
    used = [False] * m
    pivots = []
    cutoff: Optional[Fraction] = None
    for pos, j in enumerate(order):
        pick = None
        ambiguous = False
        for i in range(m):
            if used[i] or not cols[j][i].terms:
                continue
            try:
                cols[j][i].leading_term()
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
            for i in range(m):
                if not used[i]:
                    cutoff = _min_cutoff(cutoff, cols[j][i].cutoff)
            continue
        pivot = cols[j][pick]
        pivots.append((pick, j))
        used[pick] = True
        free = [r for r in range(m) if not used[r]]
        for k in order[pos + 1 :]:
            e = cols[k][pick]
            if e.is_zero and e.is_exact:
                continue
            for r in free:
                cols[k][r] = pivot * cols[k][r] - e * cols[j][r]
    return PivotSelection(tuple(pivots), cutoff)

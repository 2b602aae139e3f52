"""Small dense matrices over Novikov elements.

Matrices are tuples of row tuples.  Determinants use a division-free
subset expansion so truncation bookkeeping stays with the ring operations;
pivot selection uses fraction-free column reduction where every pivot must
carry an unambiguous invertible leading term.  Each pivot step updates only
the live submatrix (unused rows of unprocessed columns), the only entries a
later step reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import Lattice
from .series import AmbiguousLeadingTermError, NovikovElement, _min_cutoff

Matrix = tuple[tuple[NovikovElement, ...], ...]

_DET_LIMIT = 14


class ShapeError(ValueError):
    """Matrix dimensions do not fit the operation."""


class IndeterminatePivotError(ArithmeticError):
    """A reduction step found only nonzero entries whose leading terms are
    ambiguous, so no certified-invertible pivot exists."""


def as_matrix(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def zeros(lattice: Lattice, nrows: int, ncols: int) -> Matrix:
    z = NovikovElement.zero(lattice)
    return tuple(tuple(z for _ in range(ncols)) for _ in range(nrows))


def identity(lattice: Lattice, n: int) -> Matrix:
    one = NovikovElement.one(lattice)
    z = NovikovElement.zero(lattice)
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def mat_add(a, b) -> Matrix:
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        raise ShapeError("matrix addition shape mismatch")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b) -> Matrix:
    return mat_add(a, tuple(tuple(-e for e in r) for r in b))


def mat_mul(a, b) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ShapeError(
            "cannot multiply %dx%d by %dx%d"
            % (len(a), len(a[0]), len(b), len(b[0]) if b else 0)
        )
    if not a or not b:
        return tuple(tuple() for _ in a)
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = None
            for k, e in enumerate(row):
                term = e * b[k][j]
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_mul_shaped(lattice: Lattice, a, b, nrows: int, inner: int, ncols: int) -> Matrix:
    """Product with explicit shapes; sound when a dimension is zero.

    Plain mat_mul cannot represent the column count of a matrix with no
    rows, so products through a zero-dimensional middle collapse it; this
    variant returns the zero matrix of the right shape instead.
    """
    if nrows == 0 or ncols == 0 or inner == 0:
        return zeros(lattice, nrows, ncols)
    return mat_mul(a, b)


def determinant(lattice: Lattice, rows) -> NovikovElement:
    """Determinant by Laplace expansion over column subsets.

    Division free, so exact inputs give an exact determinant and truncated
    inputs propagate their cutoffs through the ordinary ring operations.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("determinant of a non-square matrix")
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
    """
    m = len(rows)
    if ncols is None:
        if m == 0:
            raise ShapeError("column count required for a matrix with no rows")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ShapeError("ragged matrix")
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

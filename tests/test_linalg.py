import random
from collections import Counter
from fractions import Fraction

import pytest

from novtorsion import IndeterminatePivotError, Lattice, NovikovElement, ShapeError, determinant
from novtorsion.linalg import (
    PivotSelection,
    as_matrix,
    mat_add,
    mat_mul,
    mat_sub,
    select_column_pivots,
    zeros,
)
from novtorsion.series import AmbiguousLeadingTermError, LatticeMismatchError, _min_cutoff

from support import k1_lattice, rand_element, tie_lattice

LAT = k1_lattice()
ONE = NovikovElement.one(LAT)
Z = NovikovElement.monomial(LAT, 1, (1,))
ZERO = NovikovElement.zero(LAT)


def test_determinant_small():
    assert determinant(LAT, ()) == ONE
    assert determinant(LAT, ((Z,),)) == Z
    m = ((ONE, Z), (ZERO, ONE))
    assert determinant(LAT, m) == ONE
    m2 = ((ONE, Z), (Z, ONE))
    assert determinant(LAT, m2) == ONE - NovikovElement.monomial(LAT, 1, (2,))


def test_determinant_multiplicative():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = as_matrix([[rand_element(rng, LAT, 2) for _ in range(n)] for _ in range(n)])
        b = as_matrix([[rand_element(rng, LAT, 2) for _ in range(n)] for _ in range(n)])
        assert determinant(LAT, mat_mul(a, b)) == determinant(LAT, a) * determinant(LAT, b)


def test_determinant_triangular_and_permutation():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = [[rand_element(rng, LAT, 2) if j > i else ZERO for j in range(n)] for i in range(n)]
        diag = ONE
        for i in range(n):
            u = rand_element(rng, LAT, 2)
            rows[i][i] = u
            diag = diag * u
        assert determinant(LAT, as_matrix(rows)) == diag


def test_determinant_shape_errors():
    with pytest.raises(ShapeError):
        determinant(LAT, ((ONE, Z),))


def test_products_through_empty_dimensions_keep_their_shape():
    prod = mat_mul(zeros(LAT, 2, 0), zeros(LAT, 0, 3))
    assert prod.shape == (2, 3)
    assert all(e.is_zero and e.is_exact and e.lattice == LAT for row in prod for e in row)
    assert mat_mul(((ONE, Z),), zeros(LAT, 2, 0)).shape == (1, 0)
    assert mat_mul(zeros(LAT, 0, 2), ((ONE,), (Z,))).shape == (0, 1)
    assert mat_mul(as_matrix((), 2), zeros(LAT, 2, 4)).shape == (0, 4)
    assert mat_add(zeros(LAT, 0, 4), as_matrix((), 4)).shape == (0, 4)
    assert mat_sub(zeros(LAT, 3, 0), ((), (), ())).shape == (3, 0)
    assert mat_mul(((ONE, Z),), ((Z,), (ONE,))) == ((2 * Z,),)


def test_shape_mismatch_with_empty_operand_raises():
    with pytest.raises(ShapeError):
        mat_mul(((ONE,),), zeros(LAT, 0, 2))  # 1x1 by 0x2
    with pytest.raises(ShapeError):
        mat_mul(zeros(LAT, 2, 0), ((ONE,),))  # 2x0 by 1x1
    with pytest.raises(ShapeError):
        mat_mul(((ONE,),), ())  # a row-less operand needs a column count
    with pytest.raises(ShapeError):
        mat_mul(((), ()), as_matrix((), 3))  # no entries, so no lattice for the 2x3 zeros
    with pytest.raises(ShapeError):
        mat_add(zeros(LAT, 0, 2), zeros(LAT, 0, 3))
    with pytest.raises(ShapeError):
        mat_sub(zeros(LAT, 2, 0), zeros(LAT, 3, 0))
    with pytest.raises(ShapeError):
        as_matrix(((ONE, Z), (ONE,)))
    with pytest.raises(ShapeError):
        as_matrix(zeros(LAT, 0, 2), 3)
    assert zeros(LAT, 0, 2) != zeros(LAT, 0, 3)


def test_as_matrix_rejects_mixed_lattices():
    other = NovikovElement.one(Lattice(1, [2], [0]))
    with pytest.raises(LatticeMismatchError):
        as_matrix(((ONE, other),))
    with pytest.raises(LatticeMismatchError):
        as_matrix(((ONE,), (other,)))
    same = NovikovElement.one(k1_lattice())
    assert as_matrix(((ONE, same),)).lattice is LAT


def test_lattice_argument_must_match_entries():
    other_lat = Lattice(1, [2], [0])
    other = NovikovElement.one(other_lat)
    with pytest.raises(LatticeMismatchError):
        determinant(other_lat, ((ONE, Z), (ZERO, ONE)))
    with pytest.raises(LatticeMismatchError):
        determinant(LAT, ((ONE, Z), (ZERO, other)))
    with pytest.raises(LatticeMismatchError):
        select_column_pivots(other_lat, ((ONE, Z), (ZERO, ONE)))
    with pytest.raises(LatticeMismatchError):
        select_column_pivots(LAT, as_matrix(((other,),)))
    # an equal lattice built separately is the same lattice
    assert determinant(k1_lattice(), ((ONE, Z), (ZERO, ONE))) == ONE
    assert select_column_pivots(k1_lattice(), ((ONE, Z), (ZERO, ONE))).rank == 2


def test_pivot_selection_rank():
    m = as_matrix([[ONE, Z], [ZERO, ZERO]])
    sel = select_column_pivots(LAT, m)
    assert sel.rank == 1
    full = as_matrix([[ONE, Z], [Z, ONE]])
    assert select_column_pivots(LAT, full).rank == 2
    dependent = as_matrix([[ONE, 2 * ONE], [Z, 2 * Z]])
    assert select_column_pivots(LAT, dependent).rank == 1


def test_pivot_selection_empty_matrix():
    sel = select_column_pivots(LAT, (), ncols=3)
    assert sel.rank == 0
    with pytest.raises(ShapeError):
        select_column_pivots(LAT, ())


def test_pivot_column_order_changes_columns():
    full = as_matrix([[ONE, ONE], [Z, 2 * Z]])
    a = select_column_pivots(LAT, full, column_order=[0, 1])
    b = select_column_pivots(LAT, full, column_order=[1, 0])
    assert a.rank == b.rank == 2
    assert a.pivots != b.pivots


def test_indeterminate_pivot():
    lat = tie_lattice()
    amb = NovikovElement(lat, {(1, 0): 1, (0, 1): -1})
    with pytest.raises(IndeterminatePivotError):
        select_column_pivots(lat, ((amb,),))
    # an unambiguous entry elsewhere in the column rescues the reduction
    good = NovikovElement.one(lat)
    sel = select_column_pivots(lat, ((amb,), (good,)))
    assert sel.rank == 1


def test_truncated_zero_certification():
    trunc_zero = NovikovElement.zero(LAT, cutoff=Fraction(7))
    m = as_matrix([[ONE, trunc_zero], [ZERO, trunc_zero]])
    sel = select_column_pivots(LAT, m)
    assert sel.rank == 1
    assert sel.cutoff is not None and sel.cutoff <= 7


def full_update_pivots(lattice, rows, ncols, column_order=None):
    """Reference column reduction that rewrites every row of every other
    column after each pivot, including entries no later step reads."""
    m = len(rows)
    cols = [[rows[i][j] for i in range(m)] for j in range(ncols)]
    order = list(column_order) if column_order is not None else list(range(ncols))
    used = [False] * m
    pivots = []
    cutoff = None
    for j in order:
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
        for k in range(ncols):
            if k == j:
                continue
            e = cols[k][pick]
            if e.is_zero and e.is_exact:
                continue
            cols[k] = [pivot * cols[k][r] - e * cols[j][r] for r in range(m)]
    return PivotSelection(tuple(pivots), cutoff)


def rand_pivot_entry(rng, lat):
    """Exact zero, zero known only below a cutoff, or a small element that may
    be truncated (and, on the tie lattice, may have an ambiguous lead)."""
    roll = rng.random()
    if roll < 0.25:
        return NovikovElement.zero(lat)
    if roll < 0.4:
        return NovikovElement.zero(lat, cutoff=rng.randint(1, 6))
    e = rand_element(rng, lat, 2)
    return e.truncate(rng.randint(0, 6)) if rng.random() < 0.3 else e


def pivot_outcome(fn, lat, rows, ncols, order):
    try:
        sel = fn(lat, rows, ncols=ncols, column_order=order)
    except IndeterminatePivotError as exc:
        return "indeterminate", str(exc)
    return sel.pivots, sel.cutoff


def test_live_submatrix_update_matches_full_update_reference():
    rng = random.Random(29)
    lattices = [LAT, tie_lattice()]
    seen = Counter()
    for case in range(500):
        lat = lattices[case % 2]
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        rows = as_matrix([[rand_pivot_entry(rng, lat) for _ in range(n)] for _ in range(m)], n)
        if m and rng.random() < 0.4:
            # rank-deficient: a product through a narrow middle
            k = rng.randint(1, 2)
            left = as_matrix([[rand_pivot_entry(rng, lat) for _ in range(k)] for _ in range(m)])
            right = as_matrix([[rand_pivot_entry(rng, lat) for _ in range(n)] for _ in range(k)])
            rows = mat_mul(left, right)
        order = list(range(n))
        rng.shuffle(order)
        want = pivot_outcome(full_update_pivots, lat, rows, n, order)
        got = pivot_outcome(select_column_pivots, lat, rows, n, order)
        assert got == want
        if want[0] == "indeterminate":
            seen["indeterminate"] += 1
        else:
            seen["cutoff" if want[1] is not None else "exact"] += 1
            seen["short rank" if len(want[0]) < min(m, n) else "full rank"] += 1
    assert min(seen.values()) >= 10 and len(seen) == 5, seen

import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from novtorsion import BasedComplex, ChainMap, IndeterminatePivotError, Lattice, NovikovElement, ShapeError, determinant
from novtorsion import mapping_cone, relabel_lifts
from novtorsion.linalg import (
    PivotSelection,
    as_matrix,
    identity,
    mat_add,
    mat_mul,
    mat_sub,
    select_column_pivots,
    zeros,
)
from novtorsion.series import AmbiguousLeadingTermError, ExpansionLimitError, LatticeMismatchError

from support import (
    assert_live_record,
    dense,
    elementary_word,
    k1_lattice,
    k2_lattice,
    rand_coeff,
    rand_coords,
    rand_element,
    rand_sparse_matrix,
    rand_unit,
    random_acyclic,
    ref_min,
    scramble,
    tie_lattice,
)

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


def test_determinant_matches_the_elementary_words_own():
    # the randomized suites take each word's determinant from its construction
    # (a signed monomial); determinant must agree on every word
    rng = random.Random(6)
    for lat in (k1_lattice(), k2_lattice(), tie_lattice()):
        for n in (1, 2, 3, 5):
            for length in range(3, 7):
                for _ in range(5):
                    t, tinv, det = elementary_word(rng, lat, n, length)
                    assert det.is_exact and len(det.terms) == 1
                    assert determinant(lat, t) == det
                    assert mat_mul(t, tinv) == identity(lat, n)


def test_determinant_shape_errors():
    with pytest.raises(ShapeError):
        determinant(LAT, ((ONE, Z),))


def test_determinant_mask_budget():
    # a dense 15x15 whose minors stay live holds C(15, 6) = 5005 partial
    # expansions after row 5, past the C(14, 7) = 3432 peak of a dense 14x14
    rng = random.Random(43)
    dense = [[NovikovElement.monomial(LAT, rng.randint(1, 10**6), (0,)) for _ in range(15)] for _ in range(15)]
    with pytest.raises(ExpansionLimitError, match="^15x15 determinant needs over 3432 partial expansions at one row$"):
        determinant(LAT, dense)
    # every 2x2 minor of the all-ones matrix cancels: an exact zero, within budget
    ones = determinant(LAT, [[ONE] * 15] * 15)
    assert ones.is_zero and ones.is_exact
    # a sparse 40x40 stays far inside it
    bidiagonal = [[ONE if j == i else Z if j == i + 1 else ZERO for j in range(40)] for i in range(40)]
    assert determinant(LAT, bidiagonal) == ONE


def test_products_through_empty_dimensions_keep_their_shape():
    prod = mat_mul(zeros(LAT, 2, 0), zeros(LAT, 0, 3))
    assert prod.shape == (2, 3)
    assert all(e.is_zero and e.is_exact and e.lattice == LAT for row in dense(prod) for e in row)
    assert mat_mul(((ONE, Z),), zeros(LAT, 2, 0)).shape == (1, 0)
    assert mat_mul(zeros(LAT, 0, 2), ((ONE,), (Z,))).shape == (0, 1)
    assert mat_mul(as_matrix((), 2), zeros(LAT, 2, 4)).shape == (0, 4)
    assert mat_add(zeros(LAT, 0, 4), as_matrix((), 4)).shape == (0, 4)
    assert mat_sub(zeros(LAT, 3, 0), ((), (), ())).shape == (3, 0)
    assert mat_mul(((ONE, Z),), ((Z,), (ONE,))) == as_matrix(((2 * Z,),))


def test_counts_that_are_not_counts_are_refused():
    for bad in (-1, -2, 2.5, True, False, np.True_, "2", None):
        calls = [("row count", lambda: zeros(LAT, bad, 2)), ("column count", lambda: zeros(LAT, 1, bad)), ("size", lambda: identity(LAT, bad))]
        if bad is not None:  # None asks as_matrix to count the columns itself
            calls += [
                ("column count", lambda: as_matrix((), bad)),
                ("column count", lambda: as_matrix(identity(LAT, 1), bad)),  # True would pass as 1
                ("column count", lambda: select_column_pivots(LAT, (), bad)),
            ]
        for what, call in calls:
            with pytest.raises(ShapeError, match="^%s must be an int of at least 0, not %s$" % (what, re.escape(repr(bad)))):
                call()
    assert zeros(LAT, 0, 0).shape == identity(LAT, 0).shape == as_matrix((), 0).shape == (0, 0)
    n = np.int64(2)  # a numpy integer counts, and is kept as an int
    for m in (zeros(LAT, n, n), identity(LAT, n), as_matrix((), n), as_matrix(identity(LAT, 2), n)):
        assert m.ncols == 2 and type(m.ncols) is int
    assert select_column_pivots(LAT, (), n).rank == 0


def test_entries_that_are_not_elements_are_refused():
    cases = [
        (lambda: as_matrix(((1,),)), "(0, 0)", "int"),
        (lambda: as_matrix(((ONE, Z), (ONE, 2.5))), "(1, 1)", "float"),
        (lambda: determinant(LAT, ((2,),)), "(0, 0)", "int"),
        (lambda: mat_mul(((ONE,),), ((2,),)), "(0, 0)", "int"),
        (lambda: select_column_pivots(LAT, (("x",),)), "(0, 0)", "str"),
    ]
    for call, where, kind in cases:
        with pytest.raises(TypeError, match=r"^matrix entry %s is of type '%s', not a NovikovElement$" % (re.escape(where), kind)):
            call()


def test_matrices_are_records_of_their_live_entries():
    m = as_matrix(((ONE, ZERO), (ZERO, Z)))
    assert m.live == ({0: ONE}, {1: Z}) and m.ncols == 2 and m.lattice is LAT
    assert repr(m) == "Matrix(live=%r, ncols=2, lattice=%r)" % (m.live, LAT)
    assert m == as_matrix(((ONE, ZERO), (ZERO, Z)), 2) and m != identity(LAT, 2)
    assert m != ((ONE, ZERO), (ZERO, Z))  # never equal to its dense rows
    assert as_matrix((), 3) == zeros(LAT, 0, 3) and as_matrix(((), ()), 0) == zeros(LAT, 2, 0)
    assert as_matrix((), 3) != as_matrix((), 2)
    with pytest.raises(TypeError):
        hash(m)


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
    with pytest.raises(LatticeMismatchError):  # checked before it is left out as an exact zero
        as_matrix(((ONE, NovikovElement.zero(Lattice(1, [2], [0]))),))
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


def full_update_pivots(lattice, rows, ncols):
    """Reference column reduction that rewrites every row of every other
    column after each pivot, including entries no later step reads."""
    rows = dense(as_matrix(rows, ncols))
    m = len(rows)
    cols = [[rows[i][j] for i in range(m)] for j in range(ncols)]
    used = [False] * m
    pivots = []
    cutoff = None
    for j in range(ncols):
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
                    cutoff = ref_min(cutoff, cols[j][i].cutoff)
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
    return PivotSelection(tuple(pivots), NovikovElement.zero(lattice, cutoff))


def zero_column_complex(rng, lat):
    """0 -> a -> b1, b2 -> c -> 0 with a -> u*b1 and b1 -> maybe_zero*c, b2 -> v*c
    for truncated units u, v, scrambled: b1 spans a column that reduces to a
    zero known only below a cutoff."""
    u, v = (rand_unit(rng, lat, tail=rng.randint(1, 6)) for _ in range(2))
    zero, maybe_zero = NovikovElement.zero(lat), NovikovElement.zero(lat, rng.randint(-2, 6))
    cplx = BasedComplex(lat, {0: ("a",), 1: ("b1", "b2"), 2: ("c",)}, {0: ((u,), (zero,)), 1: ((maybe_zero, v),)})
    return scramble(rng, cplx)[0]


def test_report_cutoffs_match_the_fraction_reference():
    """validate certifies d^2 = 0 below the least cutoff of the termless
    entries of d∘d, and homology_ranks below that and the least cutoff of
    the pivot zero columns, as the Fraction reference takes them."""
    rng = random.Random(43)
    lattices = [k1_lattice(), k2_lattice(), tie_lattice()]
    seen = Counter()
    for case in range(150):
        lat = lattices[case % 3]
        if case % 2:
            cplx = zero_column_complex(rng, lat)
        else:
            tail = Fraction(rng.randint(1, 6)) if case % 4 else None
            cplx, _ = random_acyclic(rng, lat, pairs=rng.randint(2, 5), length=5, tail=tail)
        diffs = cplx.differentials
        squares = [mat_mul(diffs[cplx.shift(d, 1)], m) for d, m in diffs.items() if cplx.shift(d, 1) in diffs]
        square = ref_min(*(e.cutoff for m in squares for row in m.live for e in row.values() if e.is_zero))
        assert cplx.validate().cutoff == square
        pivots = ref_min(*(full_update_pivots(lat, m, m.ncols).cutoff for m in diffs.values()))
        try:
            cutoff = cplx.homology_ranks().cutoff
        except IndeterminatePivotError as exc:  # a positive rank resting on a zero column
            assert str(exc).endswith("only below weight %s" % pivots)
            seen["indeterminate"] += 1
            continue
        assert cutoff == ref_min(square, pivots)
        seen["exact" if cutoff is None else "square" if cutoff == square else "pivots"] += 1
    assert min(seen.values()) >= 5 and len(seen) == 4, seen


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


def pivot_outcome(fn, lat, rows, ncols):
    try:
        sel = fn(lat, rows, ncols=ncols)
    except IndeterminatePivotError as exc:
        return "indeterminate", str(exc)
    return sel.pivots, sel.cutoff


def test_live_submatrix_update_matches_full_update_reference():
    # each matrix with its columns permuted at random, which moves the pivot
    # columns, mapped back, in over a quarter of the cases where they can move
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
        perm = list(range(n))  # permuted column j is column perm[j]
        rng.shuffle(perm)
        permuted = as_matrix([[row[j] for j in perm] for row in dense(rows)], n)
        want = pivot_outcome(full_update_pivots, lat, permuted, n)
        got = pivot_outcome(select_column_pivots, lat, permuted, n)
        assert got == want
        if want[0] == "indeterminate":
            seen["indeterminate"] += 1
            continue
        seen["cutoff" if want[1] is not None else "exact"] += 1
        seen["short rank" if len(want[0]) < min(m, n) else "full rank"] += 1
        before = pivot_outcome(select_column_pivots, lat, rows, n)
        if before[0] == "indeterminate":
            continue
        if got[1] is None and before[1] is None:  # an exact rank is the matrix's own
            assert len(got[0]) == len(before[0])
        # a column without a nonzero entry is never a pivot, so the pivot
        # columns can move only when the rank is below the nonzero columns
        nonzero = {j for row in rows.live for j, e in row.items() if not e.is_zero}
        if 0 < len(before[0]) < len(nonzero):
            seen["can move"] += 1
            seen["moved"] += {perm[j] for _, j in got[0]} != {j for _, j in before[0]}
    assert min(seen.values()) >= 10 and len(seen) == 7, seen
    assert 4 * seen["moved"] >= seen["can move"], seen


def _reference_determinant(lattice, rows):
    """Subset expansion that tests every (mask, column) pair for an exact
    zero entry through the element properties, as the determinant did
    before it listed each row's live entries once."""
    rows = as_matrix(rows, len(rows))
    n = len(rows)
    prev = {0: NovikovElement.one(lattice)}
    for i, row in enumerate(dense(rows)):
        cur = {}
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
    return prev.get((1 << n) - 1, NovikovElement.zero(lattice))


def rand_det_entry(rng, lat):
    """A unit truncated above its lead, else a ``rand_pivot_entry``."""
    if rng.random() < 0.2:
        u = rand_unit(rng, lat)
        return u.truncate(u.min_weight() + rng.randint(1, 4))
    return rand_pivot_entry(rng, lat)


def test_determinant_matches_per_column_reference():
    rng = random.Random(31)
    lattices = [k1_lattice(), k2_lattice(), tie_lattice()]
    seen = Counter()
    for case in range(240):  # 10 matrices for each lattice and n = 0..7
        lat, n = lattices[case % 3], case // 3 % 8
        rows = [[rand_det_entry(rng, lat) for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.3:
            # a row that cancels: a monomial multiple of another row
            i, j = rng.sample(range(n), 2)
            m = NovikovElement.monomial(lat, rand_coeff(rng), rand_coords(rng, lat, 1))
            rows[j] = [m * e for e in rows[i]]
            seen["cancelling row"] += 1
        want = _reference_determinant(lat, rows)
        got = determinant(lat, rows)
        assert got == want and got.terms == want.terms, (lat, rows)
        seen[("exact " if got.is_exact else "truncated ") + ("zero" if got.is_zero else "nonzero")] += 1
    assert min(seen.values()) >= 10 and len(seen) == 5, seen


def _reference_mat_mul(a, b):
    """Dense product: every output entry is the full dot product of a row
    and a column, exact zeros included, as mat_mul computed it before it
    walked live entries only."""
    a, b = as_matrix(a), as_matrix(b)
    if not b:
        return zeros(a.lattice or b.lattice, len(a), b.ncols)

    def dot(row, col):
        acc = row[0] * col[0]
        for x, y in zip(row[1:], col[1:]):
            acc = acc + x * y
        return acc

    return as_matrix([[dot(row, col) for col in zip(*dense(b))] for row in dense(a)], b.ncols)


def test_mat_mul_matches_dense_reference():
    rng = random.Random(37)
    lattices = [k1_lattice(), k2_lattice(), tie_lattice()]
    seen = Counter()
    for case in range(240):
        lat = lattices[case % 3]
        r, k, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = rand_sparse_matrix(rng, lat, r, k), rand_sparse_matrix(rng, lat, k, c)
        if r and c and k >= 2 and rng.random() < 0.4:
            # repeat a row of b and negate its column of a: the two products cancel
            i, j = rng.sample(range(k), 2)
            rows_b = [list(row) for row in dense(b)]
            rows_b[j] = rows_b[i]
            b = as_matrix(rows_b)
            a = as_matrix([[(-row[i] if col == j else e) for col, e in enumerate(row)] for row in dense(a)])
            seen["cancelling rows"] += 1
        if 0 in (r, k, c):
            seen["empty dimension"] += 1
        want = _reference_mat_mul(a, b)
        got = mat_mul(a, b)
        assert got == want and got.shape == want.shape, (a, b)
        for got_row, want_row in zip(dense(got), dense(want)):
            for x, y in zip(got_row, want_row):
                assert x.terms == y.terms and x.cutoff == y.cutoff
        for mat in (a, b, got):
            assert_live_record(mat)
        for e in (e for row in dense(got) for e in row):
            seen["exact zero" if e.is_zero and e.is_exact else "truncated" if e.cutoff is not None else "exact"] += 1
    assert min(seen.values()) >= 10 and len(seen) == 5, seen


def test_live_record_of_every_builder():
    rng = random.Random(41)
    lattices = [k1_lattice(), k2_lattice(), tie_lattice()]
    for case in range(60):
        lat = lattices[case % 3]
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        a, b = rand_sparse_matrix(rng, lat, r, c), rand_sparse_matrix(rng, lat, r, c)
        square = rand_sparse_matrix(rng, lat, c, c)
        built = [
            as_matrix(dense(a), c),
            zeros(lat, r, c),
            identity(lat, c),
            mat_add(a, b),
            mat_sub(a, b),
            mat_sub(a, a),  # exact entries cancel, truncated ones stay live
            mat_mul(a, square),
        ]
        cplx, _ = random_acyclic(rng, lat, pairs=rng.randint(1, 3), tail=Fraction(rng.randint(1, 4)) if case % 2 else None)
        built += cplx.collapse()[2:]
        f = ChainMap(cplx, cplx, {d: rand_sparse_matrix(rng, lat, cplx.rank(d), cplx.rank(d)) for d in cplx.degrees()})
        built += mapping_cone(f).differentials.values()
        shifts = {d: tuple(rand_coords(rng, lat, 1) for _ in cplx.generators(d)) for d in cplx.degrees()}
        built += relabel_lifts(cplx, shifts).differentials.values()
        for mat in built:
            assert_live_record(mat)


def test_operands_over_different_lattices_raise_even_when_all_zero():
    # no product or sum of entries is formed, so the operands are checked as matrices
    other = Lattice(1, [2], [0])
    for op in (mat_add, mat_sub, mat_mul):
        with pytest.raises(LatticeMismatchError):
            op(zeros(LAT, 2, 2), zeros(other, 2, 2))
    assert mat_mul(zeros(LAT, 2, 0), zeros(other, 0, 3)).lattice is LAT  # one side has no entries

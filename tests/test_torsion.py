import random
from fractions import Fraction

import pytest

from novtorsion import (
    BasedComplex,
    ChainMap,
    NotAcyclicError,
    NovikovElement,
    ShapeError,
    basis_change_class,
    homotopy_equivalent,
    milnor_torsion,
    relabel_lifts,
    relative_torsion,
    two_term_complex,
    whitehead_normalize,
)
from novtorsion.linalg import IndeterminatePivotError, as_matrix, determinant, identity, select_column_pivots
from novtorsion.series import NotInvertibleError, divide
from novtorsion.torsion import BasisChangeClass, WhiteheadClass, milnor_torsion_unit

from support import (
    CUT,
    compose,
    dense,
    diag_model,
    elementary_word,
    graded_transition_class,
    iso_map,
    k1_lattice,
    k2_lattice,
    permute_bases,
    perturb_by_homotopy,
    pivot_names,
    rand_element,
    random_acyclic,
    ref_min,
    scramble,
)

LAT = k1_lattice()
ONE = NovikovElement.one(LAT)
Z = NovikovElement.monomial(LAT, 1, (1,))
ZERO = NovikovElement.zero(LAT)


# -- whitehead normalization ------------------------------------------------


def test_normalize_monomial_is_trivial():
    cls = whitehead_normalize(NovikovElement.monomial(LAT, -1, (3,)))
    assert cls.trivial
    assert cls.representative == ONE


def test_normalize_unit_series():
    cls = whitehead_normalize(ONE - Z)
    assert not cls.trivial
    assert cls.representative == ONE - Z


def test_normalize_absorbs_monomial_factor():
    u = Z * (ONE + Z)
    assert whitehead_normalize(u) == whitehead_normalize(ONE + Z)


def test_rational_constants_stay_nontrivial():
    cls = whitehead_normalize(2 * ONE)
    assert not cls.trivial
    assert cls.leading_coefficient == 2


def test_mixed_class_kinds_do_not_combine():
    basis, white = BasisChangeClass.from_unit(Z * Z), WhiteheadClass.from_unit(Z * Z)
    with pytest.raises(TypeError):
        basis * white
    with pytest.raises(TypeError):
        white * basis
    assert basis.__eq__(white) is NotImplemented
    assert white.__eq__(basis) is NotImplemented
    assert basis != white and white != basis
    assert basis.to_whitehead() == white


def test_whitehead_class_prints_its_representative():
    assert str(whitehead_normalize(Z * (2 * ONE - Z))) == "2 - 1*g(1)"
    assert str(whitehead_normalize(-(ONE + Z).truncate(3))) == "1 + 1*g(1) @cutoff=3"


# -- milnor torsion ----------------------------------------------------------


def test_two_term_odd_source_gives_entry_class():
    u = 3 * ONE + Z
    cls = milnor_torsion(two_term_complex(LAT, u, low_degree=1))
    assert cls == whitehead_normalize(u)


def test_two_term_even_source_gives_inverse_class():
    u = ONE - Z
    cls = milnor_torsion(two_term_complex(LAT, u, low_degree=0), cutoff=Fraction(10))
    assert cls == WhiteheadClass.from_unit(u.invert(10))


def test_floer_like_complex_torsion():
    for u in (ONE + Z, ONE - Z):
        cls = milnor_torsion(two_term_complex(LAT, u, low_degree=1))
        assert not cls.trivial
        assert cls.cutoff is None
        assert cls.leading_coefficient == 1
        assert cls.representative == u


def test_elementary_matrix_complex_is_trivial():
    cplx = BasedComplex(
        LAT,
        {0: ("a", "b"), 1: ("c", "d")},
        {0: ((ONE, Z), (ZERO, ONE))},
        None,
    )
    assert milnor_torsion(cplx).trivial


def test_not_acyclic_raises():
    cplx = BasedComplex(LAT, {0: ("a",), 1: ("b",)}, {}, None)
    with pytest.raises(NotAcyclicError):
        milnor_torsion(cplx)


def test_truncated_rank_shortfall_is_indeterminate():
    # d0 = [[1, 1], [1, 1 + O(z)]]: after the first pivot the second column
    # is zero only below weight 1, so the missing rank is not proven absent
    tail = NovikovElement(LAT, {(0,): 1}, cutoff=1)
    cplx = BasedComplex(LAT, {0: ("a", "b"), 1: ("p", "q")}, {0: ((ONE, ONE), (ONE, tail))}, None)
    with pytest.raises(IndeterminatePivotError, match="below weight 1"):
        milnor_torsion(cplx)


def test_parity_rank_mismatch_is_not_acyclic_despite_truncation():
    # two even generators, one odd: no rank hidden above the cutoff helps
    unknown = NovikovElement.zero(LAT, cutoff=1)
    cplx = BasedComplex(LAT, {0: ("a", "b"), 1: ("p",)}, {0: ((unknown, unknown),)}, None)
    with pytest.raises(NotAcyclicError):
        milnor_torsion(cplx)


def test_diag_model_matches_expected():
    rng = random.Random(21)
    for _ in range(30):
        cplx, expected = diag_model(rng, LAT, pairs=rng.randint(1, 3))
        assert milnor_torsion_unit(cplx, CUT) == expected


def test_scrambled_model_matches_expected():
    rng = random.Random(22)
    for _ in range(30):
        cplx, expected = random_acyclic(rng, LAT, pairs=2)
        assert milnor_torsion_unit(cplx, CUT) == expected


def test_pivot_choice_independence():
    # a permutation of the bases moves the pivot columns in over a quarter of
    # these complexes, and the class (even modulo sign only) never with them
    rng = random.Random(23)
    moved = 0
    for _ in range(40):
        cplx, expected = random_acyclic(rng, LAT, pairs=5, length=10)
        permuted = permute_bases(rng, cplx)
        assert milnor_torsion_unit(permuted, CUT) == milnor_torsion_unit(cplx, CUT) == expected
        assert milnor_torsion(permuted, CUT) == milnor_torsion(cplx, CUT)
        moved += pivot_names(permuted) != pivot_names(cplx)
    assert moved >= 10, moved


def _padded_transition_torsion(cplx, cutoff) -> BasisChangeClass:
    """Reference torsion from the full transition matrices.

    The even basis is d1[S1] followed by the standard vectors at S0, the odd
    basis d0[S0] followed by those at S1; the class is det(even) / det(odd)
    with the certification cutoff of the pivots and of the validation.
    """
    lattice = cplx.lattice
    _, _, d0, d1 = cplx.collapse()
    sel0 = select_column_pivots(lattice, d0)
    sel1 = select_column_pivots(lattice, d1)
    cols0, cols1 = tuple(zip(*dense(d0))), tuple(zip(*dense(d1)))
    e0, e1 = dense(identity(lattice, d0.ncols)), dense(identity(lattice, d1.ncols))
    even = [cols1[j] for j in sel1.columns] + [e0[j] for j in sel0.columns]
    odd = [cols0[j] for j in sel0.columns] + [e1[j] for j in sel1.columns]
    rep = divide(determinant(lattice, tuple(zip(*even))), determinant(lattice, tuple(zip(*odd))), cutoff)
    certify = ref_min(cplx.validate().cutoff, sel0.cutoff, sel1.cutoff)
    return BasisChangeClass.from_unit(rep if certify is None else rep.truncate(certify))


def _truncate_entries(rng, cplx: BasedComplex) -> BasedComplex:
    """The complex with every nonzero differential entry cut 1-8 above its lead."""

    def cut(e):
        return e.truncate(e.min_weight() + rng.randint(1, 8)) if e.terms else e

    diffs = {
        d: as_matrix([[cut(e) for e in row] for row in dense(m)], m.ncols) for d, m in cplx.differentials.items()
    }
    return BasedComplex(cplx.lattice, cplx.modules, diffs, cplx.modulus)


def test_minors_match_padded_transition_reference():
    # on bases permuted at random, so that the pivot columns move in over a
    # quarter of the compared cases; short tails often leave no certified
    # pivot, rank or lead, hence three times as many truncated cases
    rng = random.Random(27)
    compared, moved = {False: 0, True: 0}, 0
    for lat in (LAT, k2_lattice()):
        for truncated in (False, True):
            for _ in range(120 if truncated else 40):
                cplx, _ = random_acyclic(rng, lat, pairs=rng.randint(5, 6), length=10)
                if truncated:
                    cplx = _truncate_entries(rng, cplx)
                permuted = permute_bases(rng, cplx)
                try:
                    got = milnor_torsion_unit(permuted, CUT)
                    unpermuted = milnor_torsion_unit(cplx, CUT)
                except (IndeterminatePivotError, NotAcyclicError, NotInvertibleError):
                    assert truncated
                    continue
                want = _padded_transition_torsion(permuted, CUT)
                assert got.representative.terms == want.representative.terms
                assert got.cutoff == want.cutoff
                assert not truncated or got.cutoff < CUT
                assert got == unpermuted
                compared[truncated] += 1
                moved += pivot_names(permuted) != pivot_names(cplx)
    assert compared[False] == 80 and compared[True] >= 60, compared
    assert 4 * moved >= sum(compared.values()), (moved, compared)


@pytest.mark.parametrize("pairs", [15, 16])
def test_fifteen_and_sixteen_pairs_past_the_old_generator_cap(pairs):
    # 15-16 generators per parity, more than the 14x14 determinant cap
    rng = random.Random(28)
    for _ in range(2):
        cplx, expected = random_acyclic(rng, LAT, pairs=pairs)
        assert cplx.euler_parity() == (pairs, pairs)
        assert milnor_torsion_unit(cplx, CUT) == expected


@pytest.mark.parametrize("pairs", [20, 30, 40])
def test_twenty_to_forty_pairs_past_the_old_determinant_cap(pairs):
    # the generator's own transition determinants are 20-40 wide, past the
    # old 14x14 cap; they are sparse, so they stay far inside the mask budget
    rng = random.Random(pairs)
    cplx, expected = random_acyclic(rng, LAT, pairs=pairs)
    assert cplx.euler_parity() == (pairs, pairs)
    assert milnor_torsion_unit(cplx, CUT) == expected


def test_truncated_differential_certifies_torsion_below_cutoff():
    # a truncated-zero entry limits what the acyclicity verdict can certify,
    # and the torsion class must carry that certification bound
    u = ONE - Z
    trunc_zero = NovikovElement.zero(LAT, cutoff=Fraction(8))
    cplx = BasedComplex(
        LAT,
        {1: ("a",), 2: ("b",)},
        {1: ((u + trunc_zero,),)},
        None,
    )
    cls = milnor_torsion(cplx, cutoff=Fraction(30))
    assert cls.cutoff == 8
    assert cls.representative.agree_below(u)


def test_chern_trivial_entries_give_chern_trivial_torsion():
    # complexes whose differential entries have chern-trivial support have
    # torsion representatives supported in the same subring
    lat = k2_lattice()  # c1 = (0, 1)
    rng = random.Random(26)
    for _ in range(20):
        pairs = []
        for i in range(2):
            g = (rng.randint(-2, 2), 0)
            u = NovikovElement.monomial(lat, rng.choice([1, -1]), g)
            h = (rng.randint(-1, 2), 0)
            if lat.weight(h) > lat.weight(g):
                u = u + NovikovElement.monomial(lat, rng.choice([1, 2]), h)
            pairs.append(u)
        cplx = BasedComplex(
            lat,
            {0: ("a0",), 1: ("b0", "a1"), 2: ("b1",)},
            {0: ((pairs[0],), (NovikovElement.zero(lat),)), 1: ((NovikovElement.zero(lat), pairs[1]),)},
            None,
        )
        cls = milnor_torsion(cplx, CUT)
        assert cls.representative.in_lambda0()


def test_unit_leading_coefficient_on_signed_complexes():
    # complexes over a chern-trivial lattice whose pivots have leading
    # coefficient +-1 have torsion with normalized leading coefficient 1
    rng = random.Random(25)
    for _ in range(25):
        cplx, _ = random_acyclic(rng, LAT, pairs=2, pm_one=True)
        assert milnor_torsion(cplx, CUT).leading_coefficient == 1


def test_modular_grading_collapse():
    # same two-term data graded mod 4 and mod 2 gives the same class
    u = ONE - Z
    flat = milnor_torsion(two_term_complex(LAT, u, low_degree=1))
    mod4 = milnor_torsion(two_term_complex(LAT, u, low_degree=1, modulus=4))
    assert mod4 == flat
    wrap = BasedComplex(LAT, {0: ("a",), 1: ("b",)}, {1: ((u,),)}, 2)
    assert wrap.validate().valid
    assert milnor_torsion(wrap) == flat


def test_lift_relabeling_invariance():
    rng = random.Random(24)
    for _ in range(15):
        cplx, _ = random_acyclic(rng, LAT, pairs=2)
        shifts = {
            d: tuple((rng.randint(-2, 2),) for _ in range(cplx.rank(d)))
            for d in cplx.degrees()
        }
        assert milnor_torsion(relabel_lifts(cplx, shifts), CUT) == milnor_torsion(cplx, CUT)


# -- basis change classes ----------------------------------------------------


def test_basis_change_identity_and_swap():
    eye = identity(LAT, 2)
    assert basis_change_class(eye, eye, LAT).representative == ONE
    swap = as_matrix([[ZERO, ONE], [ONE, ZERO]])
    assert basis_change_class(swap, eye, LAT).representative == ONE


def test_basis_change_diagonal_rescale():
    t = as_matrix([[ONE - Z, ZERO], [ZERO, ONE]])
    cls = basis_change_class(t, identity(LAT, 2), LAT)
    assert cls.representative == ONE - Z


def test_cocycle_rule():
    rng = random.Random(31)
    for _ in range(20):
        a_e, _, _ = elementary_word(rng, LAT, 2)
        a_o, _, _ = elementary_word(rng, LAT, 2)
        b_e, _, _ = elementary_word(rng, LAT, 2)
        b_o, _, _ = elementary_word(rng, LAT, 2)
        from novtorsion.linalg import mat_mul

        t1 = basis_change_class(a_e, a_o, LAT, CUT)
        t2 = basis_change_class(b_e, b_o, LAT, CUT)
        t3 = basis_change_class(mat_mul(b_e, a_e), mat_mul(b_o, a_o), LAT, CUT)
        assert t3 == t1 * t2


def test_block_triangular_additivity():
    rng = random.Random(32)
    for _ in range(20):
        blocks = {}
        for parity in (0, 1):
            a, _, _ = elementary_word(rng, LAT, 2)
            b, _, _ = elementary_word(rng, LAT, 2)
            c = [[rand_element(rng, LAT, 2) for _ in range(2)] for _ in range(2)]
            top = [list(ra) + rc for ra, rc in zip(dense(a), c)]
            bot = [[ZERO] * 2 + list(rb) for rb in dense(b)]
            blocks[parity] = (as_matrix(top + bot), a, b)
        whole = basis_change_class(blocks[0][0], blocks[1][0], LAT, CUT)
        first = basis_change_class(blocks[0][1], blocks[1][1], LAT, CUT)
        second = basis_change_class(blocks[0][2], blocks[1][2], LAT, CUT)
        assert whole == first * second


def test_base_change_of_torsion():
    rng = random.Random(33)
    for _ in range(15):
        cplx, _ = random_acyclic(rng, LAT, pairs=2)
        rebased, _, _, dets = scramble(rng, cplx, 2)
        t_cls = graded_transition_class(cplx, dets)
        assert milnor_torsion_unit(rebased, CUT) * t_cls == milnor_torsion_unit(cplx, CUT)


# -- relative torsion ---------------------------------------------------------


def test_relative_torsion_of_identity_is_trivial():
    c = BasedComplex(LAT, {0: ("a",), 1: ("b",)}, {0: ((ONE + Z,),)}, None)
    f = ChainMap(c, c, {0: ((ONE,),), 1: ((ONE,),)})
    assert relative_torsion(f).trivial


def test_relative_torsion_of_unit_multiple():
    c = BasedComplex(LAT, {0: ("a",)}, {}, None)
    f = ChainMap(c, c, {0: ((2 * ONE - Z,),)})
    assert relative_torsion(f) == whitehead_normalize(2 * ONE - Z)


def test_relative_torsion_not_quasi_iso():
    c = BasedComplex(LAT, {0: ("a",)}, {}, None)
    f = ChainMap(c, c, {})
    with pytest.raises(NotAcyclicError):
        relative_torsion(f)


def test_zero_map_cone_is_torsion_difference():
    # between acyclic complexes even the zero map is a quasi-isomorphism and
    # its cone is the direct sum, so the difference formula applies
    rng = random.Random(40)
    for _ in range(5):
        c1, _ = random_acyclic(rng, LAT, pairs=1)
        c2, _ = random_acyclic(rng, LAT, pairs=1)
        zero = ChainMap(c1, c2, {})
        assert relative_torsion(zero, CUT) * milnor_torsion(c1, CUT) == milnor_torsion(c2, CUT)


def test_acyclic_difference_formula():
    rng = random.Random(41)
    for _ in range(15):
        c1, _ = random_acyclic(rng, LAT, pairs=2)
        f, c2, _ = iso_map(rng, c1)
        f, _ = perturb_by_homotopy(rng, f)
        lhs = relative_torsion(f, CUT) * milnor_torsion(c1, CUT)
        assert lhs == milnor_torsion(c2, CUT)


def test_composition_additivity():
    rng = random.Random(42)
    for _ in range(10):
        c1, _ = random_acyclic(rng, LAT, pairs=2)
        f, c2, _ = iso_map(rng, c1)
        g, c3, _ = iso_map(rng, c2)
        f, _ = perturb_by_homotopy(rng, f)
        g, _ = perturb_by_homotopy(rng, g)
        gf = compose(g, f)
        assert relative_torsion(gf, CUT) == relative_torsion(f, CUT) * relative_torsion(g, CUT)


def test_homotopy_invariance():
    rng = random.Random(43)
    for _ in range(10):
        c1, _ = random_acyclic(rng, LAT, pairs=2)
        f, c2, _ = iso_map(rng, c1)
        g, h = perturb_by_homotopy(rng, f)
        assert homotopy_equivalent(f, g, h)
        assert relative_torsion(f, CUT) == relative_torsion(g, CUT)


def test_homotopy_identity_detects_garbage():
    rng = random.Random(44)
    c1, _ = random_acyclic(rng, LAT, pairs=2)
    f, c2, _ = iso_map(rng, c1)
    g, h = perturb_by_homotopy(rng, f)
    d = next(iter(g.matrices))
    broken = {dd: m for dd, m in g.matrices.items()}
    rows = [list(r) for r in dense(broken[d])]
    rows[0][0] = rows[0][0] + ONE
    broken[d] = as_matrix(rows)
    g_bad = ChainMap.__new__(ChainMap)
    object.__setattr__(g_bad, "source", g.source)
    object.__setattr__(g_bad, "target", g.target)
    object.__setattr__(g_bad, "matrices", broken)
    assert not homotopy_equivalent(f, g_bad, h)


def test_homotopy_identity_needs_shared_ends():
    c = two_term_complex(LAT, ONE - Z, low_degree=1)
    other = BasedComplex(LAT, {0: ("a",)}, {}, None)
    f = ChainMap(c, c, {})
    with pytest.raises(ShapeError, match="^chain maps must share a source$"):
        homotopy_equivalent(f, ChainMap(other, c, {}), {})
    with pytest.raises(ShapeError, match="^chain maps must share a target$"):
        homotopy_equivalent(f, ChainMap(c, other, {}), {})


def test_relative_torsion_base_dependence():
    rng = random.Random(45)
    for _ in range(10):
        c1, _ = random_acyclic(rng, LAT, pairs=2)
        f, c2, _ = iso_map(rng, c1)
        new1, tr1, _, dets1 = scramble(rng, c1, 2)
        new2, _, inv2, dets2 = scramble(rng, c2, 2)
        from novtorsion.linalg import mat_mul

        mats = {
            d: mat_mul(inv2[d], mat_mul(f.block(d), tr1[d]))
            for d in c1.degrees()
        }
        f_new = ChainMap(new1, new2, mats)
        t1 = graded_transition_class(c1, dets1).to_whitehead()
        t2 = graded_transition_class(c2, dets2).to_whitehead()
        assert relative_torsion(f_new, CUT) * t2 == relative_torsion(f, CUT) * t1


def test_short_exact_sequence_additivity():
    rng = random.Random(46)
    for _ in range(10):
        a, _ = random_acyclic(rng, LAT, pairs=1)
        b, _ = random_acyclic(rng, LAT, pairs=1)
        total = _extension(rng, a, b)
        product = milnor_torsion_unit(a, CUT) * milnor_torsion_unit(b, CUT)
        assert milnor_torsion_unit(total, CUT) == product


def _extension(rng, sub: BasedComplex, quot: BasedComplex) -> BasedComplex:
    """Block complex [[d_sub, X], [0, d_quot]] with X = d Y - Y d."""
    from novtorsion.linalg import mat_mul, mat_sub

    lat = sub.lattice
    degrees = sorted(set(sub.degrees()) | set(quot.degrees()))
    modules = {}
    for d in degrees:
        names = tuple("u_" + n for n in sub.generators(d)) + tuple(
            "q_" + n for n in quot.generators(d)
        )
        if names:
            modules[d] = names
    y = {}
    for d in degrees + [degrees[-1] + 1]:
        rows, cols = sub.rank(d), quot.rank(d)
        y[d] = as_matrix([[rand_element(rng, lat, 1) for _ in range(cols)] for _ in range(rows)], cols)
    diffs = {}
    zero = NovikovElement.zero(lat)
    for d in degrees:
        d_sub, d_quot = sub.differential(d), quot.differential(d)
        x = mat_sub(mat_mul(d_sub, y[d]), mat_mul(y[d + 1], d_quot))
        rows = [top + right for top, right in zip(dense(d_sub), dense(x))]
        rows += [(zero,) * d_sub.ncols + row for row in dense(d_quot)]
        diffs[d] = as_matrix(rows, d_sub.ncols + d_quot.ncols)
    return BasedComplex(lat, modules, diffs, None)

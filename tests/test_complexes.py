import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from novtorsion import (
    BasedComplex,
    Lattice,
    ChainMap,
    ComplexStructureError,
    IndeterminatePivotError,
    NovikovElement,
    ShapeError,
    homotopy_equivalent,
    mapping_cone,
    milnor_torsion,
    rebase,
    relabel_lifts,
    relative_torsion,
    two_term_complex,
    whitehead_normalize,
)
from novtorsion.complexes import shift_degree
from novtorsion.linalg import as_matrix, identity, select_column_pivots

from support import (
    assert_live_record,
    dense,
    diag_model,
    fraction_constructions,
    k1_lattice,
    k2_lattice,
    not_exact_zero,
    rand_sparse_matrix,
    random_acyclic,
    scramble,
)

LAT = k1_lattice()
ONE = NovikovElement.one(LAT)
Z = NovikovElement.monomial(LAT, 1, (1,))
ZERO = NovikovElement.zero(LAT)


def floer_like():
    return two_term_complex(LAT, ONE - Z, low_degree=1)


def test_validate_two_term():
    report = floer_like().validate()
    assert report.valid
    assert report.cutoff is None


def test_validate_catches_nonzero_square():
    # 0 -> L -> L -> L -> 0 with entries 1 then z: square is z
    cplx = BasedComplex(
        LAT,
        {0: ("a",), 1: ("b",), 2: ("c",)},
        {0: ((ONE,),), 1: ((Z,),)},
        None,
    )
    report = cplx.validate()
    assert not report.valid
    assert "nonzero" in report.failures[0]


def test_validate_shapes_checked_at_construction():
    with pytest.raises(ComplexStructureError):
        BasedComplex(LAT, {0: ("a",), 1: ("b", "c")}, {0: ((ONE,),)}, None)
    with pytest.raises(ComplexStructureError):
        BasedComplex(LAT, {0: ("a",), 1: ("a",)}, {}, None)
    with pytest.raises(ComplexStructureError):
        BasedComplex(LAT, {0: ("a",)}, {}, 3)


def test_degree_outside_the_grading_modulus():
    with pytest.raises(ComplexStructureError, match="^degree 2 outside Z_2$"):
        BasedComplex(LAT, {2: ("a",)}, {}, 2)


def test_modular_grading_wraps():
    cplx = BasedComplex(
        LAT,
        {0: ("a",), 1: ("b",)},
        {0: ((ONE - Z,),), 1: ((ZERO,),)},
        2,
    )
    report = cplx.validate()
    assert report.valid
    assert cplx.differential(1) == as_matrix(((ZERO,),))


def test_homology_ranks_examples():
    assert floer_like().homology_ranks().ranks == {1: 0, 2: 0}
    zero_map = BasedComplex(LAT, {0: ("a",), 1: ("b",)}, {}, None)
    assert zero_map.homology_ranks().ranks == {0: 1, 1: 1}
    unit_det = BasedComplex(
        LAT,
        {0: ("a", "b"), 1: ("c", "d")},
        {0: ((ONE, Z), (ZERO, ONE))},
        None,
    )
    report = unit_det.homology_ranks()
    assert report.ranks == {0: 0, 1: 0}
    assert report.acyclic


def test_homology_ranks_resting_on_truncated_zeros():
    # second column of [[1, 1], [1, 1 + O(z)]] vanishes only below weight 1
    tail = NovikovElement(LAT, {(0,): 1}, cutoff=1)
    short = BasedComplex(LAT, {0: ("a", "b"), 1: ("p", "q")}, {0: ((ONE, ONE), (ONE, tail))}, None)
    with pytest.raises(IndeterminatePivotError, match="below weight 1"):
        short.homology_ranks()
    # a column zero below weight 3 that leaves every rank at 0 stays certified
    maybe_zero = NovikovElement.zero(LAT, cutoff=3)
    exact = BasedComplex(
        LAT,
        {0: ("a",), 1: ("p", "q"), 2: ("x",)},
        {0: ((ONE,), (ZERO,)), 1: ((maybe_zero, ONE),)},
        None,
    )
    report = exact.homology_ranks()
    assert report.acyclic
    assert report.cutoff == 3


def test_homology_ranks_certify_the_square_like_torsion():
    # d^2 = 1 - (1 + O(z^5)) vanishes only below weight 5, so the ranks do too
    tail = NovikovElement(LAT, {(0,): 1}, cutoff=5)
    cplx = BasedComplex(LAT, {0: ("a",), 1: ("b1", "b2"), 2: ("c",)}, {0: ((ONE,), (-ONE,)), 1: ((ONE, tail),)})
    report = cplx.homology_ranks()
    assert report.acyclic
    assert report.cutoff == cplx.validate().cutoff == milnor_torsion(cplx).cutoff == 5
    # a nonzero square fails as it does in torsion, before the rank bookkeeping
    bad = BasedComplex(LAT, {0: ("a",), 1: ("b",), 2: ("c",)}, {0: ((ONE,),), 1: ((Z,),)})
    with pytest.raises(ComplexStructureError, match=r"complex does not square to zero: d\^2 from degree 0"):
        bad.homology_ranks()


def test_reports_build_no_fraction_until_the_cutoff_is_read(monkeypatch):
    k2 = k2_lattice()
    # truncated units and a zero known below 9/2, two cutoffs off the 1/71 grid
    u = NovikovElement(k2, {(1, 0): 1, (2, 0): Fraction(1, 3)}, Fraction(17, 3))
    v = NovikovElement(k2, {(0, 1): 2}, 4)
    maybe_zero = NovikovElement.zero(k2, Fraction(9, 2))
    d0, d1 = as_matrix(((u,), (NovikovElement.zero(k2),))), as_matrix(((maybe_zero, v),))
    cplx = BasedComplex(k2, {0: ("a",), 1: ("b1", "b2"), 2: ("c",)}, {0: d0, 1: d1})
    ident = ChainMap(cplx, cplx, {d: identity(k2, cplx.rank(d)) for d in cplx.degrees()})
    built = fraction_constructions(monkeypatch)
    reports = select_column_pivots(k2, d1), cplx.validate(), cplx.homology_ranks(), ident.validate()
    assert built == []
    monkeypatch.undo()
    assert reports[1].valid and reports[2].acyclic and reports[3].valid
    # the pivot zero column (9/2); d^2 = maybe_zero * u (1 + 9/2); the ranks take both;
    # d f - f d is u - u (17/3), maybe_zero - maybe_zero (9/2) and v - v (4)
    assert [r.cutoff for r in reports] == [Fraction(9, 2), Fraction(11, 2), Fraction(9, 2), 4]


def test_euler_parity():
    assert floer_like().euler_parity() == (1, 1)
    empty = BasedComplex(LAT, {}, {}, None)
    assert empty.euler_parity() == (0, 0)


def test_euler_parity_on_random_acyclic():
    rng = random.Random(2)
    for _ in range(25):
        cplx, _ = random_acyclic(rng, LAT, pairs=rng.randint(1, 3))
        even, odd = cplx.euler_parity()
        assert even == odd
        assert cplx.homology_ranks().acyclic


def test_collapse_blocks():
    cplx, _ = diag_model(random.Random(4), LAT, pairs=3)
    names0, names1, d0, d1 = cplx.collapse()
    assert len(names0) + len(names1) == cplx.total_rank()
    assert d0.shape == (len(names1), len(names0))
    assert d1.shape == (len(names0), len(names1))


def _reference_collapse(cplx):
    """Dense parity blocks filled by slice assignment, as ``collapse`` laid
    them out before it placed each block from its live entries."""
    names = ([], [])
    offset = {}
    for d in cplx.degrees():
        offset[d] = len(names[d % 2])
        names[d % 2].extend(cplx.generators(d))
    z = NovikovElement.zero(cplx.lattice)
    blocks = [[[z] * len(names[p]) for _ in names[1 - p]] for p in (0, 1)]
    for d, mat in cplx.differentials.items():
        ro, co = offset[cplx.shift(d, 1)], offset[d]
        for i, row in enumerate(dense(mat)):
            blocks[d % 2][ro + i][co : co + len(row)] = row
    return tuple(names[0]), tuple(names[1]), (blocks[0], len(names[0])), (blocks[1], len(names[1]))


def _reference_cone(f):
    """Per cone degree, the dense rows and column count, with every f entry
    times its sign and zero padding, as ``mapping_cone`` laid them out
    before it placed each block from its live entries."""
    src, tgt = f.source, f.target
    z = NovikovElement.zero(tgt.lattice)
    out = {}
    for d in set(tgt.degrees()) | {tgt.shift(d, -1) for d in src.degrees()}:
        t = tgt.shift(d, 1)
        d2, d1, fb = tgt.differential(d), src.differential(t), f.block(t)
        sign = -1 if (d + 1) % 2 else 1
        rows = [top + tuple(e * sign for e in cross) for top, cross in zip(dense(d2), dense(fb))]
        rows += [(z,) * d2.ncols + row for row in dense(d1)]
        out[d] = rows, d2.ncols + d1.ncols
    return out


def _rand_layout(rng, lat, modulus):
    """A based complex with sparse random differentials and some empty
    degrees; a layout needs no d^2 = 0."""
    ranks = {d: rng.choice([0, 0, 1, 2, 3]) for d in range(modulus or 4)}
    modules = {d: tuple("g%d_%d" % (d, i) for i in range(r)) for d, r in ranks.items()}
    diffs = {d: rand_sparse_matrix(rng, lat, ranks.get(shift_degree(d, 1, modulus), 0), r) for d, r in ranks.items()}
    return BasedComplex(lat, modules, diffs, modulus)


def assert_same_layout(mat, rows, ncols):
    """Entries, cutoffs, shape and live record of ``mat`` are those of the
    reference rows."""
    assert mat.shape == (len(rows), ncols) and all(len(row) == ncols for row in rows)
    for got_row, want_row in zip(dense(mat), rows):
        for x, y in zip(got_row, want_row):
            assert x == y and x.terms == y.terms and x.cutoff == y.cutoff
    assert_live_record(mat)
    assert {(i, j) for i, cols in enumerate(mat.live) for j in cols} == not_exact_zero(rows)


def test_collapse_and_cone_match_dense_reference_layouts():
    rng = random.Random(47)
    lattices = [k1_lattice(), k2_lattice()]
    seen = Counter()
    for case in range(60):
        lat, kind = lattices[case % 2], ("exact", "truncated", "layout")[case % 3]
        if kind == "layout":
            cplx = _rand_layout(rng, lat, rng.choice([None, 2, 4]))
        else:
            tail = Fraction(rng.randint(1, 4)) if kind == "truncated" else None
            cplx, _ = random_acyclic(rng, lat, pairs=rng.randint(1, 3), tail=tail)
        blocks = {d: rand_sparse_matrix(rng, lat, cplx.rank(d), cplx.rank(d)) for d in cplx.degrees()}
        f = ChainMap(cplx, cplx, blocks)  # the layout does not need a chain map
        names0, names1, d0, d1 = cplx.collapse()
        want = _reference_collapse(cplx)
        assert (names0, names1) == want[:2]
        assert_same_layout(d0, *want[2])
        assert_same_layout(d1, *want[3])
        cone = mapping_cone(f)
        for d, (rows, ncols) in _reference_cone(f).items():
            assert_same_layout(cone.differential(d), rows, ncols)
            assert (d in cone.differentials) == bool(not_exact_zero(rows))
            seen["empty dimension" if not (rows and ncols) else "odd sign" if (d + 1) % 2 else "even sign"] += 1
        seen[kind] += 1
        seen["cutoff"] += any(e.cutoff is not None for mat in cone.differentials.values() for row in mat.live for e in row.values())
    assert min(seen.values()) >= 10 and len(seen) == 7, seen


def test_chain_map_validation():
    c = floer_like()
    good = ChainMap(c, c, {1: ((ONE,),), 2: ((ONE,),)})
    assert good.validate().valid
    bad = ChainMap(c, c, {1: ((Z,),), 2: ((ONE,),)})
    assert not bad.validate().valid
    with pytest.raises(ComplexStructureError):
        ChainMap(c, c, {1: ((ONE, Z),)})


def test_chain_map_ends_share_lattice_and_grading():
    c = floer_like()
    elsewhere = BasedComplex(Lattice(1, [2], [0]), {1: ("a",)}, {}, None)
    with pytest.raises(ComplexStructureError, match="^chain map between complexes over different lattices$"):
        ChainMap(c, elsewhere, {})
    modular = BasedComplex(LAT, {1: ("a",)}, {}, 2)
    with pytest.raises(ComplexStructureError, match="^chain map between complexes with different gradings$"):
        ChainMap(c, modular, {})


def test_entries_over_another_lattice_rejected_at_construction():
    other = Lattice(1, [2], [0])
    c = floer_like()
    for entries in (((NovikovElement.one(other),),), ((ONE, NovikovElement.one(other)),)):
        with pytest.raises(ComplexStructureError, match="different lattice"):
            BasedComplex(LAT, {1: ("a", "c")[: len(entries[0])], 2: ("b",)}, {1: entries}, None)
    with pytest.raises(ComplexStructureError, match="different lattice"):
        ChainMap(c, c, {1: ((NovikovElement.one(other),),), 2: ((ONE,),)})
    # an equal lattice built separately is the same lattice
    same = k1_lattice()
    assert same is not LAT
    assert ChainMap(c, c, {1: ((NovikovElement.one(same),),), 2: ((ONE,),)}).validate().valid


def test_entries_that_are_not_elements_rejected_at_construction():
    lat = Lattice(1, [1], [0])
    with pytest.raises(ComplexStructureError, match=r"^differential at degree 0: matrix entry \(0, 0\) is of type 'int'"):
        BasedComplex(lat, {0: ("a",), 1: ("b",)}, {0: ((1,),)})
    c = floer_like()
    with pytest.raises(ComplexStructureError, match=r"^chain map block at degree 2: matrix entry \(0, 0\) is of type 'str'"):
        ChainMap(c, c, {1: ((ONE,),), 2: (("x",),)})


def test_mapping_cone_identity_is_acyclic():
    c = BasedComplex(LAT, {0: ("a",)}, {}, None)
    cone = mapping_cone(ChainMap(c, c, {0: ((ONE,),)}))
    assert cone.degrees() == (-1, 0)
    assert cone.homology_ranks().acyclic


def test_gap_degree_complex_through_maps_cones_and_homotopies():
    # modules in degrees 0 and 2 only: every differential and homotopy block
    # has an empty side, and the homotopy products run through empty degrees
    c = BasedComplex(LAT, {0: ("a",), 2: ("b",)}, {}, None)
    assert c.differential(0).shape == (0, 1) and c.differential(1).shape == (1, 0)
    f = ChainMap(c, c, {0: ((ONE - Z,),), 2: ((ONE + Z,),)})
    assert f.validate().valid
    cone = mapping_cone(f)
    assert cone.degrees() == (-1, 0, 1, 2)
    assert cone.validate().valid and cone.homology_ranks().acyclic
    assert relative_torsion(f) == whitehead_normalize(ONE - Z * Z)
    g = ChainMap(c, c, {0: ((ONE - Z,),), 2: ((ONE,),)})
    h = {0: (), 2: ()}  # 0x1 blocks into the empty degrees -1 and 1
    assert homotopy_equivalent(f, f, h)
    assert not homotopy_equivalent(f, g, h)
    with pytest.raises(ShapeError):
        homotopy_equivalent(f, f, {0: ((ONE,),)})


def test_non_chain_map_fails_at_the_cone():
    # the cone is built unchecked; its d^2 block (t_b <- s_a) is
    # -(d_t f - f d_s) at degree 1 = (1 - z)^2, where f = z then 1
    c = floer_like()
    f = ChainMap(c, c, {1: ((Z,),), 2: ((ONE,),)})
    entry = "d^2 from degree 0 is nonzero at (t_b <- s_a): 1 - 2*g(1) + 1*g(2)"
    report = mapping_cone(f).validate()
    assert not report.valid and report.failures == (entry,)
    with pytest.raises(ComplexStructureError, match=r"^complex does not square to zero: %s$" % re.escape(entry)):
        relative_torsion(f)


def test_mapping_cone_block_signs_square_to_zero():
    rng = random.Random(9)
    for _ in range(20):
        cplx, _ = random_acyclic(rng, LAT, pairs=2)
        scrambled, _, inverses, _ = scramble(rng, cplx, 2)
        f = ChainMap(cplx, scrambled, {d: inverses[d] for d in cplx.degrees()})
        cone = mapping_cone(f)
        assert cone.validate().valid


def test_rebase_requires_exact_inverse():
    c = floer_like()
    t = as_matrix([[ONE + Z]])
    with pytest.raises(ValueError):
        rebase(c, {1: t}, {1: t})


def test_rebase_and_relabel_check_their_inputs():
    c = floer_like()
    with pytest.raises(ShapeError, match="^transition at degree 1 must be 1x1$"):
        rebase(c, {1: ((ONE, Z),)}, {})
    with pytest.raises(ValueError, match="^missing inverse transition for degree 1$"):
        rebase(c, {1: ((ONE,),)}, {})
    with pytest.raises(ShapeError, match="^need one group element per degree-1 generator$"):
        relabel_lifts(c, {1: ((1,), (2,))})


def _identity_map():
    c = floer_like()
    return ChainMap(c, c, {1: ((ONE,),), 2: ((ONE,),)})


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: BasedComplex(LAT, {0: ("a",), 1.5: ("b",)}, {0: ((ONE,),)}), "degree must be an int, not 1.5"),
        (lambda: BasedComplex(LAT, {1: ("a",), "1": ("b",)}, {}), "degree must be an int, not '1'"),
        (lambda: BasedComplex(LAT, {True: ("a",)}, {}), "degree must be an int, not True"),
        (lambda: BasedComplex(LAT, {0: ("a",)}, {}, 4.0), "grading modulus must be an int, not 4.0"),
        (lambda: BasedComplex(LAT, {0: ("a",)}, {}, "4"), "grading modulus must be an int, not '4'"),
        (lambda: BasedComplex(LAT, {0: ("a",)}, {}, True), "grading modulus must be an int, not True"),
        (lambda: BasedComplex(LAT, {0: ("a",), 1: ("b",)}, {0.7: ((ONE,),)}), "differential degree must be an int, not 0.7"),
        (lambda: ChainMap(floer_like(), floer_like(), {1.0: ((ONE,),)}), "chain map block degree must be an int, not 1.0"),
        (lambda: homotopy_equivalent(_identity_map(), _identity_map(), {"2": ((ONE,),)}), "homotopy degree must be an int, not '2'"),
        (lambda: rebase(floer_like(), {"1": ((ONE,),)}, {1: ((ONE,),)}), "transition degree must be an int, not '1'"),
        (lambda: rebase(floer_like(), {}, {1.0: ((ONE,),)}), "inverse degree must be an int, not 1.0"),
        (lambda: relabel_lifts(floer_like(), {"1": ((1,),)}), "lift shift degree must be an int, not '1'"),
        (lambda: BasedComplex(LAT, {np.True_: ("a",)}, {}), "degree must be an int, not %r" % np.True_),
        (lambda: BasedComplex(LAT, {0: ("a",)}, {}, np.True_), "grading modulus must be an int, not %r" % np.True_),
        (lambda: relabel_lifts(floer_like(), {np.True_: ((1,),)}), "lift shift degree must be an int, not %r" % np.True_),
        (lambda: BasedComplex(LAT, {np.int64(2): ("a",)}, {}, np.int64(2)), "degree 2 outside Z_2"),
    ],
    ids=["module", "module-str", "module-bool", "modulus", "modulus-str", "modulus-bool", "differential",
         "chain-map", "homotopy", "transition", "inverse", "relabel", "module-numpy-bool", "modulus-numpy-bool",
         "relabel-numpy-bool", "numpy-ints-pass"],
)
def test_degrees_and_moduli_that_are_not_ints_are_refused(make, message):
    # int() would truncate 1.5 and 0.7, parse "1" into a key that merges with 1, and read True as 1;
    # numpy integers pass as ints, and reach the next check
    with pytest.raises(ComplexStructureError, match="^%s$" % re.escape(message)):
        make()


def test_relabel_lifts_changes_entries_by_monomials():
    c = floer_like()
    shifted = relabel_lifts(c, {1: ((2,),), 2: ((0,),)})
    entry = shifted.differentials[1].live[0][0]
    assert entry == (ONE - Z) * NovikovElement.monomial(LAT, 1, (2,))

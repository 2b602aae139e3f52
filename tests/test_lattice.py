import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from novtorsion import DimensionMismatchError, Lattice, NovikovElement, divide, milnor_torsion, two_term_complex
from novtorsion.lattice import _BOX, g_add, g_neg
from novtorsion.series import ExpansionLimitError

from support import odd_lattice, weight_lattices


def test_weight_examples():
    assert Lattice(1, [1], [0]).weight((3,)) == 3
    assert Lattice(2, [1, Fraction(1, 2)], [0, 0]).weight((1, -2)) == 0
    assert Lattice(2, [Fraction(2, 3), 5], [0, 0]).weight((3, 1)) == 7
    w = odd_lattice().weight(("1", 1))
    assert w == Fraction(1, 21) and type(w) is Fraction


@pytest.mark.parametrize(
    "make,value",
    [
        (lambda: Lattice(1, [1], [0.5]), "0.5"),
        (lambda: Lattice(1.5, [1], [0]), "1.5"),
        (lambda: Lattice(1, [1], [Fraction(1, 2)]), r"Fraction\(1, 2\)"),
        (lambda: Lattice(1, [1], [0]).weight((2.9,)), "2.9"),
        (lambda: Lattice(1, [1], [0]).chern((Fraction(-1, 3),)), r"Fraction\(-1, 3\)"),
        (lambda: NovikovElement.monomial(Lattice(1, [1], [0]), 1, (0.5,)), "0.5"),
        (lambda: Lattice(True, [1], [0]), "True"),
        (lambda: Lattice(1, [1], [True]), "True"),
        (lambda: Lattice(1, [1], [0]).chern((True,)), "True"),
        (lambda: NovikovElement.monomial(Lattice(1, [1], [0]), 1, (False,)), "False"),
        (lambda: Lattice(np.True_, [1], [0]), re.escape(repr(np.True_))),
        (lambda: Lattice(1, [1], [np.True_]), re.escape(repr(np.True_))),
        (lambda: Lattice(1, [1], [0]).chern((np.False_,)), re.escape(repr(np.False_))),
    ],
    ids=["c1", "rank", "c1-fraction", "weight", "chern", "monomial", "rank-bool", "c1-bool", "chern-bool", "monomial-bool",
         "rank-numpy-bool", "c1-numpy-bool", "chern-numpy-bool"],
)
def test_non_integral_values_are_rejected(make, value):
    with pytest.raises(ValueError, match="^%s is not an integer$" % value):
        make()


def test_integral_values_of_other_types_are_accepted():
    lat = Lattice(2.0, [1, 1], ["2", Fraction(4, 2)])
    assert lat.rank == 2 and lat.c1 == (2, 2)
    assert all(type(c) is int for c in lat.c1)
    assert lat.weight((1.0, Fraction(3))) == 4
    assert lat.chern((1, -1.0)) == 0


K1_ONE = NovikovElement.one(Lattice(1, [1], [0]))
K1_UNIT = NovikovElement(Lattice(1, [1], [0]), {(0,): 1, (1,): 1})


@pytest.mark.parametrize(
    "make",
    [
        lambda: Lattice(1, [0.1], [0]),
        lambda: K1_ONE.truncate(0.1),
        lambda: NovikovElement(K1_ONE.lattice, {(0,): 1}, cutoff=0.1),
        lambda: K1_ONE.agree_below(K1_ONE, 0.1),
        lambda: K1_UNIT.invert(0.1),
        lambda: divide(K1_ONE, K1_UNIT, 0.1),
    ],
    ids=["phi", "truncate", "cutoff", "agree_below", "invert", "divide"],
)
def test_non_integral_floats_as_weights_and_cutoffs_are_rejected(make):
    with pytest.raises(ValueError, match=r"^0\.1 is not an exact rational; pass a Fraction or a string$"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Lattice(1, [True], [0]),
        lambda: NovikovElement(K1_ONE.lattice, {(1,): True}),
        lambda: NovikovElement(K1_ONE.lattice, {(0,): 1}, cutoff=True),
        lambda: milnor_torsion(two_term_complex(K1_ONE.lattice, K1_UNIT), cutoff=True),
    ],
    ids=["phi", "coefficient", "cutoff", "torsion-cutoff"],
)
def test_bools_as_weights_coefficients_and_cutoffs_are_rejected(make):
    with pytest.raises(ValueError, match="^True is a bool, not a rational$"):
        make()


@pytest.mark.parametrize("tenth", [Fraction(1, 10), "1/10"])
def test_exact_rationals_as_weights_and_cutoffs_are_accepted(tenth):
    lat = Lattice(1, [tenth], [0])
    assert lat.phi == (Fraction(1, 10),)
    one = NovikovElement.one(lat)
    assert one.truncate(tenth).cutoff == Fraction(1, 10)
    assert str(NovikovElement(lat, {(0,): 1}, cutoff=tenth)) == "1 @cutoff=1/10"
    unit = NovikovElement(lat, {(0,): 1, (1,): 1})
    assert unit.invert(tenth) == divide(one, unit, tenth) == NovikovElement(lat, {(0,): 1}, cutoff=Fraction(1, 10))


def test_integral_floats_as_weights_and_cutoffs_are_accepted():
    lat = Lattice(1, [2.0], [0])
    assert lat.phi == (2,) and type(lat.phi[0]) is Fraction
    assert NovikovElement.one(lat).truncate(3.0).cutoff == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: NovikovElement.monomial(K1_ONE.lattice, 0.1, (1,)),
        lambda: NovikovElement(K1_ONE.lattice, {(0,): 0.1}),
        lambda: NovikovElement(K1_ONE.lattice, [((0,), 1), ((1,), 0.1)]),
    ],
    ids=["monomial", "constructor-map", "constructor-pairs"],
)
def test_non_integral_floats_as_coefficients_are_rejected(make):
    with pytest.raises(ValueError, match=r"^0\.1 is not an exact rational; pass a Fraction or a string$"):
        make()


@pytest.mark.parametrize("half", [Fraction(1, 2), "1/2"])
def test_exact_and_integral_coefficients_are_accepted(half):
    lat = K1_ONE.lattice
    m = NovikovElement.monomial(lat, half, (1,))
    assert str(m) == "1/2*g(1)"
    assert m == NovikovElement(lat, {(1,): half}) == NovikovElement(lat, [((1,), Fraction(1, 2))])
    two = NovikovElement.monomial(lat, 2.0, (0,))
    assert two == 2 * K1_ONE and str(two) == "2"
    e = NovikovElement(lat, {(0,): 2.0, (1,): half})
    assert e.terms == {(0,): 2, (1,): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in e.terms.values())


def test_negative_rank_rejected():
    with pytest.raises(ValueError, match="^rank must be non-negative$"):
        Lattice(-1, [], [])


def test_chern_examples():
    assert Lattice(1, [1], [0]).chern((5,)) == 0
    lat = Lattice(2, [1, 1], [2, 3])
    assert lat.chern((1, 1)) == 5
    assert lat.chern((0, 0)) == 0


def test_gamma0_examples():
    lat = Lattice(2, [1, 1], [0, 1])
    assert lat.in_gamma0((7, 0))
    assert not lat.in_gamma0((0, 1))
    assert lat.in_gamma0(lat.identity())


def test_minimal_chern_number_examples():
    assert Lattice(2, [1, 1], [0, 0]).minimal_chern_number() is None
    assert Lattice(2, [1, 1], [4, 6]).minimal_chern_number() == 2
    assert Lattice(2, [1, 1], [0, 3]).minimal_chern_number() == 3


def test_dimension_mismatch():
    lat = Lattice(2, [1, 1], [0, 0])
    with pytest.raises(DimensionMismatchError):
        lat.weight((1,))
    with pytest.raises(DimensionMismatchError):
        lat.chern((1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        Lattice(2, [1], [0, 0])


def test_equal_lattices_compare_without_fractions(monkeypatch):
    """Equality and hash read the int tuple (D, D*phi, c1); elements over
    equal but distinct lattices combine without comparing a Fraction."""
    a, b = Lattice(2, [1, Fraction(1, 2)], [0, 0]), Lattice(2, ["1", "1/2"], [0, 0])
    calls = []
    eq = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda x, y: calls.append((x, y)) or eq(x, y))
    assert a is not b and a == b and hash(a) == hash(b)
    x, y = NovikovElement.monomial(a, 2, (1, 0)), NovikovElement.monomial(b, 3, (0, 1))
    assert (x * y).lattice is a and (y + x).lattice is b
    assert a != Lattice(2, [1, Fraction(1, 3)], [0, 0])
    assert a != Lattice(2, [2, 1], [0, 0])  # D*phi is (2, 1) for both; D is not
    assert a != Lattice(2, [1, Fraction(1, 2)], [0, 1])
    assert calls == []
    assert Lattice(0, [], []) == Lattice(0, (), ())


coords = st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
lattices = st.builds(
    Lattice,
    st.just(3),
    st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    ),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
)


@given(lattices, coords, coords)
def test_additivity(lat, g, h):
    s = g_add(g, h)
    assert lat.weight(s) == lat.weight(g) + lat.weight(h)
    assert lat.chern(s) == lat.chern(g) + lat.chern(h)


@given(lattices, coords, coords)
def test_gamma0_subgroup(lat, g, h):
    if lat.in_gamma0(g) and lat.in_gamma0(h):
        assert lat.in_gamma0(g_add(g, h))
        assert lat.in_gamma0(g_neg(g))


@given(lattices, coords)
def test_minimal_chern_divides(lat, g):
    n = lat.minimal_chern_number()
    if n is None:
        assert lat.chern(g) == 0
    else:
        assert lat.chern(g) % n == 0


def cutoffs_near(lat, g):
    # the weight of g itself, and nearby values whose scaled value D*w is not
    # an integer, where a floor and a ceiling differ
    w = lat.weight(g)
    return [w, w + Fraction(1, 2), w - Fraction(1, 3), w + Fraction(1, 2 * lat._den + 1)]


@pytest.mark.parametrize("lat", weight_lattices(), ids=["k1", "k2", "tie", "odd"])
def test_scaled_weights_agree_with_weight(lat):
    grid = list(itertools.product(range(-3, 4), repeat=lat.rank))
    for g in grid:
        s = lat._scaled_weight(g)
        assert isinstance(s, int)
        assert Fraction(s, lat._den) == sum(p * x for p, x in zip(lat.phi, g))
    for g, h in itertools.product(grid[::3], grid):
        sg, sh = lat._scaled_weight(g), lat._scaled_weight(h)
        assert (sg < sh) == (lat.weight(g) < lat.weight(h))
        assert (sg == sh) == (lat.weight(g) == lat.weight(h))


@pytest.mark.parametrize("lat", weight_lattices(), ids=["k1", "k2", "tie", "odd"])
def test_scaled_ceiling_agrees_with_cutoff_comparison(lat):
    grid = list(itertools.product(range(-3, 4), repeat=lat.rank))
    for c in grid[::2]:
        for w in cutoffs_near(lat, c):
            k, f = lat._scaled_split(w)
            assert type(k) is int and (f == 0 and type(f) is int or type(f) is Fraction and 0 < f < 1)
            assert k + f == lat._den * w
            bound = k + (f > 0)  # the ceiling of D * w
            for g in grid:
                assert (lat._scaled_weight(g) < bound) == (lat.weight(g) < w)
        # a term exactly at the cutoff weight is not below it
        k, f = lat._scaled_split(lat.weight(c))
        assert f == 0 and lat._scaled_weight(c) == k


# -- packed keys -------------------------------------------------------------------

#: k1, k2, the tie lattice, the odd lattice (negative weight) and one with a zero weight
KEY_LATTICES = weight_lattices() + [Lattice(3, [0, -1, Fraction(5, 3)], [0, 0, 0])]
KEY_IDS = ["k1", "k2", "tie", "odd", "zero"]
EDGE = (0, 1, -1, _BOX - 1, -(_BOX - 1), _BOX - 2, -(_BOX - 2))


def box_coords(rank, reach=_BOX - 1):
    """Coordinates with |x| <= reach, often at the edge of that range."""
    edge = [x for x in EDGE if abs(x) <= reach] + [reach, -reach]
    return st.tuples(*[st.one_of(st.sampled_from(edge), st.integers(-reach, reach))] * rank)


@pytest.mark.parametrize("lat", KEY_LATTICES, ids=KEY_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_key_round_trip_at_the_box_edge(lat, data):
    g = data.draw(box_coords(lat.rank))
    k = lat._key(lat._check(g))
    assert lat._unkey(k) == g
    assert lat._kweight(k) == lat._scaled_weight(g)


@pytest.mark.parametrize("lat", KEY_LATTICES, ids=KEY_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_key_is_a_homomorphism_inside_the_box(lat, data):
    g, h = (data.draw(box_coords(lat.rank, _BOX // 2 - 1)) for _ in range(2))
    assert lat._key(g) + lat._key(h) == lat._key(g_add(g, h))
    assert -lat._key(g) == lat._key(g_neg(g))
    assert lat._key(lat.identity()) == 0


@pytest.mark.parametrize("lat", KEY_LATTICES, ids=KEY_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_keys_sort_as_scaled_weight_then_coordinates(lat, data):
    points = data.draw(st.lists(box_coords(lat.rank), min_size=2, max_size=12))
    by_key = sorted(points, key=lat._key)
    assert by_key == sorted(points, key=lambda g: (lat._scaled_weight(g), g))


@pytest.mark.parametrize("lat", KEY_LATTICES, ids=KEY_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_key_bound_is_the_scaled_weight_bound(lat, data):
    g = data.draw(box_coords(lat.rank))
    w = lat._scaled_weight(g)
    for bound in (w - 1, w, w + 1, w + data.draw(st.integers(-10**12, 10**12))):
        assert (lat._key(g) < lat._kbound(bound)) == (w < bound)


@pytest.mark.parametrize("lat", KEY_LATTICES, ids=KEY_IDS)
def test_coordinates_outside_the_box_are_refused(lat):
    for x in (_BOX, -_BOX, 2**40):
        g = (0,) * (lat.rank - 1) + (x,)
        with pytest.raises(ValueError, match=r"^coordinate %d is outside the box \|x\| < 2\*\*31$" % x):
            lat._check(g)
        with pytest.raises(ValueError, match="outside the box"):
            NovikovElement.monomial(lat, 1, g)


def test_products_leaving_the_box_are_refused():
    lat = Lattice(1, [1], [0])
    half = NovikovElement.monomial(lat, 1, (_BOX // 2,))
    assert (half * NovikovElement.monomial(lat, 1, (_BOX // 2 - 1,))).terms == {(_BOX - 1,): 1}
    with pytest.raises(ExpansionLimitError, match=r"^a product may reach coordinate %d, outside the box" % _BOX):
        half * half
    # a carried bound past the box is first recomputed from the terms
    near_one = half * NovikovElement.monomial(lat, 1, (1 - _BOX // 2,))
    assert (near_one * near_one).terms == {(2,): 1}
    # the inverse's chain of steps would leave the box before its cutoff
    unit = NovikovElement(lat, {(0,): 1, (2**29,): 1})
    with pytest.raises(ExpansionLimitError, match=r"^inverse below weight %d may reach coordinate" % 2**31):
        unit.invert(2**31)
    assert unit.invert(2**30 + 1).terms == {(0,): 1, (2**29,): -1, (2**30,): 1}

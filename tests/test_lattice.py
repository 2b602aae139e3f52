import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from novtorsion import DimensionMismatchError, Lattice
from novtorsion.lattice import g_add, g_neg

from support import odd_lattice, weight_lattices


def test_weight_examples():
    assert Lattice(1, [1], [0]).weight((3,)) == 3
    assert Lattice(2, [1, Fraction(1, 2)], [0, 0]).weight((1, -2)) == 0
    assert Lattice(2, [Fraction(2, 3), 5], [0, 0]).weight((3, 1)) == 7
    w = odd_lattice().weight(("1", 1))
    assert w == Fraction(1, 21) and type(w) is Fraction


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
            bound = lat._scaled_ceil(w)
            assert isinstance(bound, int)
            for g in grid:
                assert (lat._scaled_weight(g) < bound) == (lat.weight(g) < w)
        # a term exactly at the cutoff weight is not below it
        assert lat._scaled_weight(c) >= lat._scaled_ceil(lat.weight(c))

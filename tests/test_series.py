import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from novtorsion import (
    AmbiguousLeadingTermError,
    DimensionMismatchError,
    LatticeMismatchError,
    NotInvertibleError,
    NovikovElement,
)
from novtorsion.lattice import g_add, g_neg
from novtorsion.series import _min_cutoff, divide

from support import (
    k1_lattice,
    k2_lattice,
    rand_coeff,
    rand_coords,
    rand_unit,
    tie_lattice,
    weight_lattices,
)

LAT = k1_lattice()
ONE = NovikovElement.one(LAT)
Z = NovikovElement.monomial(LAT, 1, (1,))


def gen(k):
    return NovikovElement.monomial(LAT, 1, (k,))


def test_monomial_examples():
    assert NovikovElement.monomial(LAT, 1, (0,)) == ONE
    assert NovikovElement.monomial(LAT, 0, (3,)).is_zero
    m = NovikovElement.monomial(LAT, -2, (1,))
    assert m.terms == {(1,): Fraction(-2)}
    assert m.is_exact


def test_add_examples():
    assert (ONE + Z) + (ONE - Z) == 2 * ONE
    a = ONE + gen(2)
    assert a + NovikovElement.zero(LAT) == a
    lhs = NovikovElement(LAT, {(0,): 1, (2,): 1}, cutoff=3)
    rhs = NovikovElement(LAT, {(3,): 1}, cutoff=4)
    out = lhs + rhs
    assert out.terms == {(0,): 1, (2,): 1}
    assert out.cutoff == 3


def test_mul_examples():
    assert (ONE + Z) * (ONE + Z) == ONE + 2 * Z + gen(2)
    assert (ONE + Z) * (ONE - Z) == ONE - gen(2)
    a = NovikovElement.monomial(LAT, Fraction(2, 3), (1,))
    b = NovikovElement.monomial(LAT, Fraction(3, 5), (-4,))
    assert a * b == NovikovElement.monomial(LAT, Fraction(2, 5), (-3,))


def test_mul_cutoff_rule():
    trunc = NovikovElement(LAT, {(0,): 1, (1,): 1}, cutoff=2)
    out = (ONE + Z) * trunc
    assert out.cutoff == 2
    assert out.terms == {(0,): 1, (1,): 2}
    # min support weight of the exact factor shifts the unknown region
    out2 = gen(3) * trunc
    assert out2.cutoff == 5
    assert out2.terms == {(3,): 1, (4,): 1}


def test_zero_times_unknown_is_exact_zero():
    trunc = NovikovElement(LAT, {(0,): 1}, cutoff=2)
    assert (0 * trunc).is_exact
    assert (0 * trunc).is_zero


def test_leading_term_examples():
    a = 3 * gen(-1) + 2 * ONE + 5 * Z
    lt = a.leading_term()
    assert lt.coefficient == 3 and lt.element == (-1,)
    assert NovikovElement.zero(LAT).leading_term() is None
    for u in (ONE + Z, ONE - Z):
        lt = u.leading_term()
        assert lt.coefficient == 1 and lt.element == (0,)


def test_leading_term_ambiguity():
    lat = tie_lattice()
    a = NovikovElement(lat, {(1, 0): 1, (0, 1): -1})
    with pytest.raises(AmbiguousLeadingTermError):
        a.leading_term()
    assert len(a.leading_slice()) == 2


def test_invert_examples():
    inv = (ONE - Z).invert(4)
    assert inv.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    assert inv.cutoff == 4
    m = NovikovElement.monomial(LAT, 2, (5,))
    assert m.invert() == NovikovElement.monomial(LAT, Fraction(1, 2), (-5,))
    inv2 = (ONE + Z).invert(3)
    assert inv2.terms == {(0,): 1, (1,): -1, (2,): 1}
    assert inv2.cutoff == 3


def test_invert_truncated_input_caps_result():
    # inverting an element only known below weight 3 cannot certify more
    a = (ONE - Z).truncate(3)
    inv = a.invert(10)
    assert inv.cutoff == 3
    assert (a * inv).agree_below(ONE)
    single = NovikovElement(LAT, {(1,): 2}, cutoff=4)
    inv2 = single.invert(10)
    assert inv2.cutoff is not None
    assert (single * inv2).agree_below(ONE)


def test_invert_errors():
    with pytest.raises(NotInvertibleError):
        NovikovElement.zero(LAT).invert(4)
    with pytest.raises(ValueError):
        (ONE + Z).invert()
    lat = tie_lattice()
    with pytest.raises(AmbiguousLeadingTermError):
        NovikovElement(lat, {(1, 0): 1, (0, 1): 1}).invert(4)


def test_in_lambda0():
    lat = k2_lattice()  # c1 = (0, 1)
    a = NovikovElement(lat, {(0, 0): 1, (3, 0): 1})
    assert a.in_lambda0()
    b = NovikovElement.monomial(lat, 1, (0, 2))
    assert not b.in_lambda0()
    assert NovikovElement.zero(lat).in_lambda0()


def test_lattice_mismatch():
    other = k2_lattice()
    with pytest.raises(LatticeMismatchError):
        ONE + NovikovElement.one(other)


def test_agree_below():
    a = (ONE - Z).invert(4)
    b = (ONE - Z).invert(6)
    assert a.agree_below(b)
    assert not a.agree_below(b + gen(2))
    assert a.agree_below(b + gen(5))  # difference above the common cutoff


def test_format_round_values():
    assert str(ONE - Z) == "1 - 1*g(1)"
    assert str(NovikovElement.zero(LAT)) == "0"
    trunc = NovikovElement(LAT, {(0,): Fraction(3, 2)}, cutoff=Fraction(5, 2))
    assert str(trunc) == "3/2 @cutoff=5/2"


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
terms1 = st.lists(st.tuples(st.tuples(st.integers(-3, 3)), coeffs), max_size=4)


def element1(terms):
    return NovikovElement(LAT, terms)


@settings(max_examples=80, deadline=None)
@given(terms1, terms1, terms1)
def test_ring_axioms(ta, tb, tc):
    a, b, c = element1(ta), element1(tb), element1(tc)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a


@settings(max_examples=60, deadline=None)
@given(terms1, terms1)
def test_min_weight_additive(ta, tb):
    a, b = element1(ta), element1(tb)
    if not a.is_zero and not b.is_zero:
        assert (a * b).min_weight() == a.min_weight() + b.min_weight()


def test_invert_is_right_inverse_below_cutoff():
    rng = random.Random(7)
    for _ in range(60):
        u = rand_unit(rng, LAT)
        w = Fraction(rng.randint(2, 30))
        prod = u * u.invert(w)
        assert prod.agree_below(ONE, w)


def test_leading_term_multiplicative():
    rng = random.Random(11)
    lat = k2_lattice()
    for _ in range(100):
        a = rand_unit(rng, lat)
        b = rand_unit(rng, lat)
        la, lb, lab = a.leading_term(), b.leading_term(), (a * b).leading_term()
        assert lab.coefficient == la.coefficient * lb.coefficient
        assert lab.element == tuple(x + y for x, y in zip(la.element, lb.element))


def test_divide_exact_by_monomial():
    q = divide(ONE - gen(2), Z, None)
    assert q.is_exact
    assert q == gen(-1) - Z


def test_divide_requires_cutoff():
    with pytest.raises(ValueError):
        divide(ONE, ONE + Z, None)
    out = divide(ONE, ONE + Z, Fraction(5))
    assert out.agree_below((ONE + Z).invert(5))


def geometric_inverse(a, target_cutoff=None):
    """Reference inverse: the alternating geometric series in r, each power a
    full truncated product, for a = c*g*(1 + r)."""
    lt = a.leading_term()
    if lt is None:
        raise NotInvertibleError("cannot invert an element with no known terms")
    inv_monomial = NovikovElement.monomial(a.lattice, 1 / lt.coefficient, g_neg(lt.element))
    if len(a.terms) == 1 and a.is_exact:
        return inv_monomial
    target = Fraction(target_cutoff)
    inner_target = target + a.lattice.weight(lt.element)
    one = NovikovElement.one(a.lattice)
    r = (inv_monomial * a) - one
    acc = power = one
    while power.terms:
        power = (power * (-r)).truncate(inner_target)
        acc = acc + power
    return (acc * inv_monomial).truncate(target)


def rand_invertible(rng, lat):
    """A unit whose lead is usually away from the identity, with heavier terms
    that may tie with each other and sometimes a cutoff a little above the lead."""
    lead = rand_coords(rng, lat, 2)
    while not any(lead) and rng.random() < 0.8:
        lead = rand_coords(rng, lat, 2)
    lead_w = lat.weight(lead)
    terms = [(lead, rand_coeff(rng))]
    for _ in range(rng.randint(0, 3)):
        step = rand_coords(rng, lat, 2)
        while lat.weight(step) <= 0:
            step = rand_coords(rng, lat, 2)
        terms.append((tuple(x + y for x, y in zip(lead, step)), rand_coeff(rng)))
    cutoff = None
    if rng.random() < 0.4:
        cutoff = lead_w + Fraction(rng.randint(1, 12), rng.choice([1, 2, 3]))
    return NovikovElement(lat, terms, cutoff)


def test_invert_matches_geometric_series_reference():
    rng = random.Random(23)
    lattices = [LAT, k2_lattice(), tie_lattice()]
    for case in range(600):
        lat = lattices[case % 3]
        a = rand_invertible(rng, lat)
        target = Fraction(rng.randint(-4, 40), 2)
        want = geometric_inverse(a, target)
        got = a.invert(target)
        assert got.terms == want.terms, (a, target)
        assert got.cutoff == want.cutoff, (a, target)
        if a.is_exact and len(a.terms) == 1:
            assert a.invert() == geometric_inverse(a)


# -- integer weights and the trusted constructor --------------------------------

LATTICE_IDS = ["k1", "k2", "tie", "odd"]


def reference_terms(lat, pairs, cutoff):
    """Merge (g, c) pairs and keep the nonzero ones with weight < cutoff,
    compared as Fractions through Lattice.weight."""
    merged = {}
    for g, c in pairs:
        merged[g] = merged.get(g, 0) + c
    return {g: c for g, c in merged.items() if c and (cutoff is None or lat.weight(g) < cutoff)}


def reference_mul_cutoff(lat, a, b):
    bounds = []
    if b.cutoff is not None and a.terms:
        bounds.append(min(map(lat.weight, a.terms)) + b.cutoff)
    if a.cutoff is not None and b.terms:
        bounds.append(a.cutoff + min(map(lat.weight, b.terms)))
    if a.cutoff is not None and b.cutoff is not None:
        bounds.append(a.cutoff + b.cutoff)
    return min(bounds, default=None)


def rand_operand(rng, lat, truncated):
    """Up to four random terms; a truncated operand is cut at the weight of a
    random element or half a unit past it, so cuts land exactly on weights."""
    terms = [(rand_coords(rng, lat), rand_coeff(rng)) for _ in range(rng.randint(1, 4))]
    cutoff = None
    if truncated:
        cutoff = lat.weight(rand_coords(rng, lat)) + rng.choice([0, 0, Fraction(1, 2)])
    return NovikovElement(lat, terms, cutoff)


@pytest.mark.parametrize("lat", weight_lattices(), ids=LATTICE_IDS)
def test_cutoff_drops_the_term_at_its_weight(lat):
    grid = list(itertools.product(range(-2, 3), repeat=lat.rank))
    full = NovikovElement(lat, {g: 1 for g in grid})
    for c in grid:
        for w in (lat.weight(c), lat.weight(c) + Fraction(1, 2)):
            expected = {g: 1 for g in grid if lat.weight(g) < w}
            assert NovikovElement(lat, full.terms, w).terms == expected
            assert full.truncate(w).terms == expected
            assert (full + NovikovElement.zero(lat, w)).terms == expected
            assert full.agree_below(NovikovElement(lat, expected), w)
        assert c not in full.truncate(lat.weight(c)).terms


@pytest.mark.parametrize("lat", weight_lattices(), ids=LATTICE_IDS)
def test_internal_results_match_public_constructor(lat):
    rng = random.Random(8)
    for case in range(80):
        a = rand_operand(rng, lat, case % 2 == 1)
        b = rand_operand(rng, lat, case % 4 >= 2)
        w = lat.weight(rand_coords(rng, lat)) + rng.choice([0, Fraction(1, 3)])
        cut = _min_cutoff(a.cutoff, b.cutoff)
        pairs = [(g_add(g, h), c * d) for g, c in a.terms.items() for h, d in b.terms.items()]
        assert (a + b).terms == reference_terms(lat, [*a.terms.items(), *b.terms.items()], cut)
        assert (a - b).terms == reference_terms(
            lat, [*a.terms.items(), *((g, -c) for g, c in b.terms.items())], cut
        )
        assert (a * b).cutoff == reference_mul_cutoff(lat, a, b)
        assert (a * b).terms == reference_terms(lat, pairs, (a * b).cutoff)
        assert a.truncate(w).terms == reference_terms(lat, a.terms.items(), _min_cutoff(a.cutoff, w))
        results = [a + b, a - b, a * b, -a, 3 * a, a.truncate(w)]
        u = rand_invertible(rng, lat)
        if len(u.leading_slice()) == 1:
            target = -u.min_weight() + Fraction(rng.randint(1, 4), 4)
            results.append(u.invert(target))
        for r in results:
            assert r == NovikovElement(lat, r.terms, r.cutoff)
            assert all(type(c) is Fraction for c in r.terms.values())
        if a.terms:
            assert a.support() == sorted(a.terms, key=lambda g: (lat.weight(g), g))
            assert a.min_weight() == min(map(lat.weight, a.terms))


def test_public_constructor_still_validates_and_coerces():
    lat = k2_lattice()
    with pytest.raises(DimensionMismatchError):
        NovikovElement(lat, {(1,): 1})
    with pytest.raises(DimensionMismatchError):
        NovikovElement(lat, [((1, 0, 0), 1)])
    e = NovikovElement(lat, [(("1", 0), 3), ((0, 1), "1/2"), ((1.0, 0), "-1")], cutoff="5/2")
    assert e.terms == {(1, 0): Fraction(2), (0, 1): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in e.terms.values())
    assert all(type(x) is int for g in e.terms for x in g)
    assert e.cutoff == Fraction(5, 2) and type(e.cutoff) is Fraction

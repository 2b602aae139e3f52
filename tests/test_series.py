import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from novtorsion import (
    AmbiguousLeadingTermError,
    LatticeMismatchError,
    NotInvertibleError,
    NovikovElement,
)
from novtorsion.lattice import g_neg
from novtorsion.series import divide

from support import k1_lattice, k2_lattice, rand_coeff, rand_coords, rand_unit, tie_lattice

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

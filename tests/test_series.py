import copy
import itertools
import math
import pickle
import random
import sys
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
from novtorsion.series import _INVERT_LIMIT, ExpansionLimitError, divide

from support import (
    fraction_constructions,
    k1_lattice,
    k2_lattice,
    rand_coeff,
    rand_coords,
    rand_unit,
    ref_min,
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
    # a factor with no known terms bounds the product by its cutoff; an
    # exact zero factor makes the product an exact zero; the fractional
    # parts of cutoffs off the weight grid add and carry
    zero, z2, z3 = NovikovElement.zero(LAT), NovikovElement.zero(LAT, 2), NovikovElement.zero(LAT, 3)
    half, two_thirds = NovikovElement.zero(LAT, Fraction(1, 2)), NovikovElement.zero(LAT, Fraction(2, 3))
    cases = [
        (z2, z3, 5),
        (z2, ONE + Z, 2),
        (zero, z2, None),
        (z2, NovikovElement(LAT, {(1,): 1, (2,): 3}, cutoff=4), 3),
        (half, half, 1),
        (two_thirds, two_thirds, Fraction(4, 3)),
        (half, z3, Fraction(7, 2)),
    ]
    for a, b, cutoff in cases:
        for out in (a * b, b * a):
            assert out.is_zero and out.cutoff == cutoff
            assert out == NovikovElement.zero(LAT, cutoff)


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


def test_invert_stops_at_the_term_budget():
    u = ONE - Z
    with pytest.raises(ExpansionLimitError, match="^inverse below weight 100001 needs more than %d terms$" % _INVERT_LIMIT):
        u.invert(_INVERT_LIMIT + 1)
    # a cutoff at or below the leading weight needs no terms at all
    assert u.invert(0).is_zero and u.invert(-5).cutoff == -5


def test_invert_refuses_denominators_past_the_print_limit():
    u = ONE - Fraction(1, 3) * Z  # steps of weight 1 over d = 3: 3^k below weight k + 1
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("no limit on printed ints")
    weight = int(limit / math.log10(3)) + 2
    with pytest.raises(ExpansionLimitError, match=r"^inverse below weight %d needs \d+-digit denominators" % weight):
        u.invert(weight)
    assert (ONE - Z).invert(weight).cutoff == weight  # d = 1 never reaches it
    assert u.invert(100).terms[(99,)] == Fraction(1, 3**99)


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


def test_divide_without_cutoff_raises_the_invert_error():
    with pytest.raises(ValueError, match="^target_cutoff is required unless the element is a pure monomial$"):
        divide(ONE, ONE + Z)


def test_divide_zero_still_checks_the_divisor():
    zero = NovikovElement.zero(LAT)
    assert divide(zero, ONE + Z) == zero
    with pytest.raises(NotInvertibleError):
        divide(zero, zero)
    with pytest.raises(NotInvertibleError):
        divide(zero, zero, 5)
    lat = tie_lattice()
    tied = NovikovElement.monomial(lat, 1, (1, 0)) + NovikovElement.monomial(lat, 1, (0, 1))
    with pytest.raises(AmbiguousLeadingTermError):
        divide(NovikovElement.zero(lat), tied, 5)


@pytest.mark.parametrize(
    "op",
    [
        lambda: ONE + 1,
        lambda: 1 + ONE,
        lambda: ONE - 1,
        lambda: 1 - ONE,
        lambda: ONE + Fraction(1, 2),
        lambda: ONE.agree_below(1),
    ],
    ids=["elt+int", "int+elt", "elt-int", "int-elt", "elt+fraction", "agree_below-int"],
)
def test_scalar_add_sub_and_compare_raise(op):
    with pytest.raises(TypeError):
        op()


def test_sub_and_mul_check_the_lattice():
    other = NovikovElement.one(k2_lattice())
    with pytest.raises(LatticeMismatchError):
        ONE - other
    with pytest.raises(LatticeMismatchError):
        ONE * other


def test_scalars_act_through_mul_only():
    assert (ONE == 1) is False
    assert (ONE != 1) is True
    assert 2 * ONE == NovikovElement.monomial(LAT, 2, (0,))
    assert ONE * Fraction(1, 2) == NovikovElement.monomial(LAT, Fraction(1, 2), (0,))


def test_min_weight_of_an_empty_element_mul_by_a_non_scalar_and_repr():
    assert NovikovElement.zero(LAT).min_weight() is None
    assert NovikovElement.zero(LAT, cutoff=2).min_weight() is None
    with pytest.raises(TypeError):
        ONE * "x"
    assert repr(ONE - Z) == "<NovikovElement 1 - 1*g(1)>"
    assert repr(Z.truncate(3)) == "<NovikovElement 1*g(1) @cutoff=3>"


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
    lattices = weight_lattices()
    for case in range(800):
        lat = lattices[case % 4]
        a = rand_invertible(rng, lat)
        target = Fraction(rng.randint(-4, 40), 2)
        want = geometric_inverse(a, target)
        got = a.invert(target)
        assert got.terms == want.terms, (a, target)
        assert got.cutoff == want.cutoff, (a, target)
        if a.is_exact and len(a.terms) == 1:
            assert a.invert() == geometric_inverse(a)


def test_invert_scaling_exponent_is_the_longest_chain():
    # 1 + r with r = 1/6*g(1) + 5/14*g(2): g(4) is reached by chains of 2,
    # 3 and 4 steps, and its coefficient needs the fourth power of r's
    # denominator 42, not the square that the shortest chain would give.
    u = NovikovElement(LAT, {(0,): 2, (1,): Fraction(1, 3), (2,): Fraction(5, 7)})
    assert u.invert(5).coefficient((4,)) == Fraction(6259, 127008)
    for a in (u, u.truncate(6), u.truncate(Fraction(9, 2))):
        for target in (5, Fraction(11, 2), 12):
            want = geometric_inverse(a, target)
            got = a.invert(target)
            assert got.terms == want.terms, (a, target)
            assert got.cutoff == want.cutoff, (a, target)


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


def rand_cutoff(rng, lat):
    """The weight of a random element or half a unit past it, so cuts land
    exactly on weights."""
    return lat.weight(rand_coords(rng, lat)) + rng.choice([0, 0, Fraction(1, 2)])


def rand_operand(rng, lat, truncated):
    """Up to four random terms, cut at ``rand_cutoff`` when truncated."""
    terms = [(rand_coords(rng, lat), rand_coeff(rng)) for _ in range(rng.randint(1, 4))]
    return NovikovElement(lat, terms, rand_cutoff(rng, lat) if truncated else None)


def rand_operand_of_kind(rng, lat, kind):
    """Kind 0-3: exact or truncated (bit 0), with random terms or with no
    known terms at all (bit 1: ``zero(lat)`` or ``zero(lat, w)``)."""
    if kind & 2:
        return NovikovElement.zero(lat, rand_cutoff(rng, lat) if kind & 1 else None)
    return rand_operand(rng, lat, bool(kind & 1))


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
    for case in range(320):  # 20 cases for each of the 4 x 4 operand kinds
        a = rand_operand_of_kind(rng, lat, case % 4)
        b = rand_operand_of_kind(rng, lat, case // 4 % 4)
        w = lat.weight(rand_coords(rng, lat)) + rng.choice([0, Fraction(1, 3)])
        cut = ref_min(a.cutoff, b.cutoff)
        pairs = [(g_add(g, h), c * d) for g, c in a.terms.items() for h, d in b.terms.items()]
        assert (a + b).terms == reference_terms(lat, [*a.terms.items(), *b.terms.items()], cut)
        assert (a - b).terms == reference_terms(
            lat, [*a.terms.items(), *((g, -c) for g, c in b.terms.items())], cut
        )
        assert (a * b).cutoff == reference_mul_cutoff(lat, a, b)
        assert (a * b).terms == reference_terms(lat, pairs, (a * b).cutoff)
        assert a.truncate(w).terms == reference_terms(lat, a.terms.items(), ref_min(a.cutoff, w))
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


@pytest.mark.parametrize("lat", weight_lattices(), ids=LATTICE_IDS)
def test_results_are_in_lowest_terms(lat):
    rng = random.Random(14)
    for case in range(80):
        a = rand_operand(rng, lat, case % 2 == 1)
        b = rand_operand(rng, lat, case % 4 >= 2)
        c = rand_operand(rng, lat, False)
        q = rand_coeff(rng)
        w = lat.weight(rand_coords(rng, lat)) + rng.choice([0, Fraction(1, 3)])
        results = [a + b, a - b, a - a, a * b, q * a, a * q, 0 * a, 2 * a, -a, a.truncate(w)]
        u = rand_invertible(rng, lat)
        if len(u.leading_slice()) == 1:
            results += [u.invert(-u.min_weight() + Fraction(rng.randint(1, 8), 2))]
        for r in results:
            assert r._den > 0 and 0 not in r._num.values()
            assert math.gcd(r._den, *r._num.values()) == 1
        assert (a - a)._den == 1 and (0 * a)._den == 1
        # equal values built by different routes are equal term for term
        exact_a, exact_b = NovikovElement(lat, a.terms), NovikovElement(lat, b.terms)
        lhs, rhs = (exact_a * exact_b) * c, exact_a * (exact_b * c)
        assert (lhs._num, lhs._den) == (rhs._num, rhs._den)
        assert a + a == 2 * a == a * Fraction(4, 3) * Fraction(3, 2)
        assert (a * q) * (1 / q) == a
        cut = ref_min(a.cutoff, b.cutoff)
        assert (a + b) - b == (a if cut is None else a.truncate(cut))


def test_terms_is_a_read_only_view():
    e = NovikovElement(LAT, {(0,): 1, (1,): Fraction(1, 2)})
    view = e.terms
    assert view == {(0,): 1, (1,): Fraction(1, 2)} and e.terms is view
    with pytest.raises(TypeError):
        view[(2,)] = Fraction(1)
    with pytest.raises(TypeError):
        del view[(0,)]
    with pytest.raises(AttributeError):
        e.terms = {}
    copy = dict(view)
    copy[(0,)] = Fraction(5)
    assert e == NovikovElement(LAT, {(0,): 1, (1,): Fraction(1, 2)})
    assert str(e) == "1 + 1/2*g(1)" and e.coefficient((0,)) == 1


def test_elements_copy_and_pickle_before_and_after_reading_terms():
    k2 = k2_lattice()
    elements = [
        NovikovElement(LAT, {(1,): 2, (3,): Fraction(1, 3)}),
        NovikovElement(LAT, {(1,): 2}, "17/2"),
        NovikovElement(k2, {(0, 0): 1, (1, -1): Fraction(-5, 2)}, Fraction(17, 3)),
    ]
    for e in elements:
        for read_terms in (False, True):
            if read_terms:
                assert e.terms
            for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
                assert twin == e and twin.cutoff == e.cutoff and str(twin) == str(e)
                assert twin.terms == e.terms and (twin * e).agree_below(e * e)


def test_truncated_products_and_sums_build_no_fraction(monkeypatch):
    k2 = k2_lattice()
    operands = [
        NovikovElement(k2, {(0, 0): 2, (1, 0): Fraction(1, 3), (-1, 1): 5}, Fraction(17, 3)),  # off the 1/71 grid
        NovikovElement(k2, {(0, 0): Fraction(3, 4), (2, -1): -1}, 4),
        NovikovElement(k2, {(1, 1): 1}, Fraction(7, 2)),
        NovikovElement.zero(k2, Fraction(9, 2)),
        NovikovElement.zero(k2, 3),
    ]
    # only two factors with no known terms, and cutoffs off the grid, add two
    # fractional parts (test_mul_cutoff_rule)
    pairs = [(a, b) for a in operands for b in operands if a._num or b._num or not (a._cf or b._cf)]
    want = [(a * b, a + b, a - b) for a, b in pairs]
    built = fraction_constructions(monkeypatch)
    got = [(a * b, a + b, a - b) for a, b in pairs]
    got += [(-a, 3 * a, a * 0) for a in operands]
    assert built == []
    monkeypatch.undo()
    assert got[: len(want)] == want and len(pairs) == 22


# -- the cutoff rule against a Fraction reference --------------------------------------

CUTOFF_LATTICES = [k1_lattice(), k2_lattice(), tie_lattice()]


def ref_mul(lat, a, b):
    """(terms, cutoff) of the product of two (terms, cutoff) pairs: unknown
    terms start at one factor's least known weight plus the other's cutoff,
    or at the sum of the two cutoffs."""
    (ta, ca), (tb, cb) = a, b
    least = lambda terms: min(map(lat.weight, terms))
    cutoff = ref_min(
        least(ta) + cb if ta and cb is not None else None,
        ca + least(tb) if tb and ca is not None else None,
        ca + cb if ca is not None and cb is not None else None,
    )
    pairs = [(g_add(g, h), c * d) for g, c in ta.items() for h, d in tb.items()]
    return reference_terms(lat, pairs, cutoff), cutoff


def ref_invert(lat, a, target):
    """(terms, cutoff) of a.invert(target) for a = c*g0*(1 + r): the sum of
    (-r)^k below the lower of r's cutoff and target + weight(g0), shifted
    back by g0; an exact monomial inverts exactly."""
    (g0, c), *rest = sorted(a.terms.items(), key=lambda t: lat.weight(t[0]))
    if not rest and a.is_exact:
        return {g_neg(g0): 1 / c}, None
    w0 = lat.weight(g0)
    r = {g_add(g, g_neg(g0)): -d / c for g, d in rest}
    bound = ref_min(target + w0, None if a.cutoff is None else a.cutoff - w0)
    power = total = {lat.identity(): Fraction(1)}
    while power:
        power = reference_terms(lat, [(g_add(g, h), x * y) for g, x in power.items() for h, y in r.items()], bound)
        total = reference_terms(lat, [*total.items(), *power.items()], None)
    terms = {g_add(g, g_neg(g0)): x / c for g, x in reference_terms(lat, total.items(), bound).items()}
    return terms, ref_min(target, None if a.cutoff is None else a.cutoff - 2 * w0)


@st.composite
def ref_cutoffs(draw, lat):
    """The weight of a small element plus an offset on or off the 1/D grid."""
    g = draw(st.tuples(*[st.integers(-3, 3)] * lat.rank))
    offsets = [0, Fraction(1, lat._den), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3 * lat._den)]
    return lat.weight(g) + draw(st.sampled_from(offsets))


@st.composite
def ref_operands(draw, lat):
    """Up to four terms, exact or cut, so often with no known terms left."""
    coords = st.tuples(*[st.integers(-3, 3)] * lat.rank)
    terms = draw(st.lists(st.tuples(coords, coeffs), max_size=4))
    return NovikovElement(lat, terms, draw(st.none() | ref_cutoffs(lat)))


@st.composite
def ref_units(draw, lat):
    """A lead and up to three heavier terms, exact or cut above the lead."""
    lead = draw(st.tuples(*[st.integers(-2, 2)] * lat.rank))
    terms = [(lead, draw(coeffs.filter(bool)))]
    for step, c in draw(st.lists(st.tuples(st.tuples(*[st.integers(-1, 2)] * lat.rank), coeffs), max_size=3)):
        if lat.weight(step) > 0:
            terms.append((g_add(lead, step), c))
    offsets = [Fraction(1, lat._den), Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 2), 4]
    cutoff = draw(st.none() | st.sampled_from(offsets).map(lambda x: lat.weight(lead) + x))
    return NovikovElement(lat, terms, cutoff)


def assert_matches(got, want):
    terms, cutoff = want
    assert dict(got.terms) == terms and got.cutoff == cutoff
    assert cutoff is None or type(got.cutoff) is Fraction


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cutoff_rule_matches_a_fraction_reference(data):
    lat = data.draw(st.sampled_from(CUTOFF_LATTICES))
    a, b = data.draw(ref_operands(lat)), data.draw(ref_operands(lat))
    u = data.draw(ref_units(lat))
    q = data.draw(coeffs)
    w, target = data.draw(ref_cutoffs(lat)), data.draw(ref_cutoffs(lat))
    ta, tb, cut = dict(a.terms), dict(b.terms), ref_min(a.cutoff, b.cutoff)
    for got in (a + b, b + a):
        assert_matches(got, (reference_terms(lat, [*ta.items(), *tb.items()], cut), cut))
    assert_matches(a - b, (reference_terms(lat, [*ta.items(), *((g, -c) for g, c in tb.items())], cut), cut))
    for got in (a * b, b * a):
        assert_matches(got, ref_mul(lat, (ta, a.cutoff), (tb, b.cutoff)))
    for got in (q * a, a * q):
        assert_matches(got, ({g: q * c for g, c in ta.items() if q}, a.cutoff if q else None))
    assert_matches(a.truncate(w), (reference_terms(lat, ta.items(), ref_min(a.cutoff, w)), ref_min(a.cutoff, w)))
    assert_matches(u.invert(target), ref_invert(lat, u, target))
    if a.is_exact and a.is_zero:
        assert divide(a, u, target) is a
    else:
        floor = min(map(lat.weight, ta)) if ta else a.cutoff
        inverse = ref_invert(lat, u, target - floor)
        assert_matches(divide(a, u, target), ref_mul(lat, (ta, a.cutoff), inverse))

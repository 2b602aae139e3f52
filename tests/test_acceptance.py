"""Acceptance suite: one check per shipped guarantee, with pinned budgets.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is fixed here, not configurable.
"""

import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from novtorsion import (
    ChainMap,
    NovikovElement,
    document_from_complex,
    milnor_torsion,
    parse_document,
    relabel_lifts,
    render_document,
)
from novtorsion.cli import EXIT_INDETERMINATE, EXIT_OK, EXIT_PARSE, EXIT_USAGE, EXIT_VALIDATE, main
from novtorsion.linalg import mat_mul
from novtorsion.torsion import milnor_torsion_unit
from novtorsion.torus import run_example

from support import (
    CUT,
    compose,
    dense,
    elementary_word,
    graded_transition_class,
    iso_map,
    k1_lattice,
    k2_lattice,
    permute_bases,
    perturb_by_homotopy,
    pivot_names,
    rand_element,
    rand_unit,
    random_acyclic,
    scramble,
)
from torus_oracle import d2lam, lam

DATA = os.path.join(os.path.dirname(__file__), "data")
LAT = k1_lattice()
ONE = NovikovElement.one(LAT)


def _report(n, label, detail=""):
    print("ACCEPTANCE %d (%s): PASS %s" % (n, label, detail))


def test_criterion_1_torus_end_to_end():
    t0 = time.monotonic()
    report = run_example()
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, "pipeline took %.1fs, budget is 30s" % elapsed

    orbits = report.orbits
    assert len(orbits) == 2
    for o in orbits:
        assert o.det_gap > 1e-6
    assert sorted(o.cz_index for o in orbits) == [1, 2]

    arcs = report.counts
    assert len(arcs) == 2
    assert len({arc.winding for arc in arcs}) == 2

    for convention, sign in (("plus", 1), ("minus", -1)):
        cplx = report.complexes[convention]
        entry = cplx.differentials[1].live[0][0]
        lat = cplx.lattice
        assert entry == NovikovElement.one(lat) + NovikovElement.monomial(lat, sign, (1,))
        cls = report.torsions[convention]
        assert not cls.trivial
        assert cls.leading_coefficient == 1
    _report(1, "torus reproduction end to end", "in %.1fs" % elapsed)


def test_criterion_2_monodromy_closed_form(torus_report):
    for o in torus_report.orbits:
        s = torus_report.system
        a = np.array([[0.0, -lam(s, o.x)], [-d2lam(s, o.x), 0.0]])
        gap = np.abs(o.monodromy - expm(a)).max()
        assert gap < 1e-6, "monodromy differs from closed form by %g" % gap
    _report(2, "monodromy matches constant-matrix exponential at 1e-6")


def _suite_cocycle(rng):
    a_e, _, _ = elementary_word(rng, LAT, 2, 2)
    a_o, _, _ = elementary_word(rng, LAT, 2, 2)
    b_e, _, _ = elementary_word(rng, LAT, 2, 2)
    b_o, _, _ = elementary_word(rng, LAT, 2, 2)
    from novtorsion import basis_change_class

    t1 = basis_change_class(a_e, a_o, LAT, CUT)
    t2 = basis_change_class(b_e, b_o, LAT, CUT)
    t3 = basis_change_class(mat_mul(b_e, a_e), mat_mul(b_o, a_o), LAT, CUT)
    assert t3 == t1 * t2


def _suite_block_triangular(rng):
    from novtorsion import basis_change_class
    from novtorsion.linalg import as_matrix

    zero = NovikovElement.zero(LAT)
    parts = {}
    for parity in (0, 1):
        a, _, _ = elementary_word(rng, LAT, 2, 2)
        b, _, _ = elementary_word(rng, LAT, 2, 2)
        c = [[rand_element(rng, LAT, 1) for _ in range(2)] for _ in range(2)]
        top = [list(ra) + rc for ra, rc in zip(dense(a), c)]
        bot = [[zero] * 2 + list(rb) for rb in dense(b)]
        parts[parity] = (as_matrix(top + bot), a, b)
    whole = basis_change_class(parts[0][0], parts[1][0], LAT, CUT)
    first = basis_change_class(parts[0][1], parts[1][1], LAT, CUT)
    second = basis_change_class(parts[0][2], parts[1][2], LAT, CUT)
    assert whole == first * second


def _suite_base_change(rng):
    cplx, _ = random_acyclic(rng, LAT, pairs=2, length=2)
    rebased, _, _, dets = scramble(rng, cplx, 2)
    t_cls = graded_transition_class(cplx, dets)
    assert milnor_torsion_unit(rebased, CUT) * t_cls == milnor_torsion_unit(cplx, CUT)


def _suite_ses_additivity(rng):
    from test_torsion import _extension

    a, _ = random_acyclic(rng, LAT, pairs=1, length=2)
    b, _ = random_acyclic(rng, LAT, pairs=1, length=2)
    total = _extension(rng, a, b)
    assert milnor_torsion_unit(total, CUT) == milnor_torsion_unit(a, CUT) * milnor_torsion_unit(b, CUT)


def _suite_rel_base_dependence(rng):
    from novtorsion import relative_torsion
    from novtorsion.linalg import mat_mul as mm

    c1, _ = random_acyclic(rng, LAT, pairs=1, length=2)
    f, c2, _ = iso_map(rng, c1)
    new1, tr1, _, dets1 = scramble(rng, c1, 2)
    new2, _, inv2, dets2 = scramble(rng, c2, 2)
    mats = {d: mm(inv2[d], mm(f.block(d), tr1[d])) for d in c1.degrees()}
    f_new = ChainMap(new1, new2, mats)
    t1 = graded_transition_class(c1, dets1).to_whitehead()
    t2 = graded_transition_class(c2, dets2).to_whitehead()
    assert relative_torsion(f_new, CUT) * t2 == relative_torsion(f, CUT) * t1


def _suite_homotopy_invariance(rng):
    from novtorsion import homotopy_equivalent, relative_torsion

    c1, _ = random_acyclic(rng, LAT, pairs=1, length=2)
    f, _, _ = iso_map(rng, c1)
    g, h = perturb_by_homotopy(rng, f)
    assert homotopy_equivalent(f, g, h)
    assert relative_torsion(f, CUT) == relative_torsion(g, CUT)


def _suite_composition(rng):
    from novtorsion import relative_torsion

    c1, _ = random_acyclic(rng, LAT, pairs=1, length=2)
    f, c2, _ = iso_map(rng, c1)
    g, _, _ = iso_map(rng, c2)
    f, _ = perturb_by_homotopy(rng, f)
    gf = compose(g, f)
    assert relative_torsion(gf, CUT) == relative_torsion(f, CUT) * relative_torsion(g, CUT)


def _suite_acyclic_difference(rng):
    from novtorsion import relative_torsion

    c1, _ = random_acyclic(rng, LAT, pairs=1, length=2)
    f, c2, _ = iso_map(rng, c1)
    f, _ = perturb_by_homotopy(rng, f)
    assert relative_torsion(f, CUT) * milnor_torsion(c1, CUT) == milnor_torsion(c2, CUT)


def _suite_pivot_independence(rng):
    """Whether the permuted bases moved the pivot columns: at 5 pairs and
    words of length 10 they move often, so the invariance is tested."""
    cplx, _ = random_acyclic(rng, LAT, pairs=5, length=10)
    permuted = permute_bases(rng, cplx)
    assert milnor_torsion(permuted, CUT) == milnor_torsion(cplx, CUT)
    return pivot_names(permuted) != pivot_names(cplx)


def _suite_lift_relabeling(rng):
    cplx, _ = random_acyclic(rng, LAT, pairs=2, length=2)
    shifts = {d: tuple((rng.randint(-2, 2),) for _ in range(cplx.rank(d))) for d in cplx.degrees()}
    assert milnor_torsion(relabel_lifts(cplx, shifts), CUT) == milnor_torsion(cplx, CUT)


def test_criterion_3_torsion_property_suite():
    suites = [
        ("cocycle rule", _suite_cocycle),
        ("block-triangular additivity", _suite_block_triangular),
        ("base change of torsion", _suite_base_change),
        ("short-exact-sequence additivity", _suite_ses_additivity),
        ("relative torsion base dependence", _suite_rel_base_dependence),
        ("homotopy invariance", _suite_homotopy_invariance),
        ("composition additivity", _suite_composition),
        ("acyclic difference formula", _suite_acyclic_difference),
        ("pivot-choice independence", _suite_pivot_independence),
        ("lift-relabeling invariance", _suite_lift_relabeling),
    ]
    t0 = time.monotonic()
    outcomes = {}
    for i, (label, fn) in enumerate(suites):
        rng = random.Random(1000 + i)
        outcomes[label] = [fn(rng) for _ in range(200)]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "property suite took %.1fs, budget is 60s" % elapsed
    moved = sum(outcomes["pivot-choice independence"])
    assert moved >= 50, "pivot columns moved in only %d of 200 permuted complexes" % moved
    _report(3, "torsion calculus identities, 200 cases each", "in %.1fs, pivots moved in %d" % (elapsed, moved))


def test_criterion_4_novikov_arithmetic():
    rng = random.Random(77)
    lat2 = k2_lattice()
    for _ in range(200):
        a = rand_element(rng, LAT, 3)
        b = rand_element(rng, LAT, 3)
        c = rand_element(rng, LAT, 3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a
    for _ in range(200):
        u = rand_unit(rng, LAT)
        w = Fraction(rng.randint(1, 50))
        assert (u * u.invert(w)).agree_below(ONE, w)
    for _ in range(200):
        a = rand_unit(rng, lat2)
        b = rand_unit(rng, lat2)
        la, lb, lab = a.leading_term(), b.leading_term(), (a * b).leading_term()
        assert lab.coefficient == la.coefficient * lb.coefficient
        assert lab.element == tuple(x + y for x, y in zip(la.element, lb.element))
    _report(4, "ring axioms, inverses below weight 50, multiplicative leading terms")


def test_criterion_5_acyclicity_parity(torus_report):
    rng = random.Random(88)
    for _ in range(100):
        cplx, _ = random_acyclic(rng, LAT, pairs=rng.randint(1, 3), length=2)
        even, odd = cplx.euler_parity()
        assert even == odd
    assert torus_report.complexes["minus"].euler_parity() == (1, 1)
    _report(5, "acyclic complexes have balanced parity counts, 100 cases")


def _random_document(rng):
    lat = rng.choice([k1_lattice, k2_lattice])()
    cplx, _ = random_acyclic(rng, lat, pairs=rng.randint(1, 2), length=2)
    maps = {}
    if rng.random() < 0.5:
        one = NovikovElement.one(lat)
        mats = {
            d: tuple(
                tuple(one if i == j else NovikovElement.zero(lat) for j in range(cplx.rank(d)))
                for i in range(cplx.rank(d))
            )
            for d in cplx.degrees()
        }
        maps["ident"] = ChainMap(cplx, cplx, mats)
    return document_from_complex(cplx, maps)


def test_criterion_6_cli_and_format(capsys):
    rng = random.Random(99)
    for _ in range(50):
        doc = _random_document(rng)
        text = render_document(doc)
        again = parse_document(text)
        assert again == doc
        assert render_document(again) == text

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    code, out = run("torsion", os.path.join(DATA, "two_term.cplx"))
    assert code == EXIT_OK
    assert "torsion: 1 - 1*g(1)" in out
    assert "trivial: false" in out

    code, _ = run("torsion", os.path.join(DATA, "missing_file.cplx"))
    assert code == EXIT_USAGE
    code, _ = run("torsion", os.path.join(DATA, "bad_parse.cplx"))
    assert code == EXIT_PARSE
    code, _ = run("validate", os.path.join(DATA, "bad_square.cplx"))
    assert code == EXIT_VALIDATE
    code, _ = run("torsion", os.path.join(DATA, "not_acyclic.cplx"))
    assert code == EXIT_VALIDATE
    code, _ = run("torsion", os.path.join(DATA, "ambiguous.cplx"))
    assert code == EXIT_INDETERMINATE
    _report(6, "format round-trip on 50 documents and CLI exit categories")

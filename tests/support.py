"""Shared builders for randomized algebra tests.

Random acyclic complexes are built as direct sums of two-term models with
unit differential entries and then rewritten in scrambled bases via words
of elementary column operations, so every expected torsion value comes
straight from the construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from novtorsion import BasedComplex, ChainMap, Lattice, NovikovElement, rebase
from novtorsion.linalg import as_matrix, identity, mat_add, mat_mul, mat_sub, zeros
from novtorsion.series import divide
from novtorsion.torsion import BasisChangeClass

CUT = Fraction(24)


def k1_lattice() -> Lattice:
    return Lattice(1, [1], [0])


def k2_lattice() -> Lattice:
    # second weight chosen so small supports never tie in weight
    return Lattice(2, [1, Fraction(113, 71)], [0, 1])


def tie_lattice() -> Lattice:
    return Lattice(2, [1, 1], [0, 0])


def odd_lattice() -> Lattice:
    # negative weight, odd denominators: scaled weights over D = 21
    return Lattice(2, [Fraction(-2, 3), Fraction(5, 7)], [0, 0])


def weight_lattices() -> list[Lattice]:
    """k1, k2, the tie lattice and the odd lattice, for weight-order tests."""
    return [k1_lattice(), k2_lattice(), tie_lattice(), odd_lattice()]


def rand_coords(rng: random.Random, lat: Lattice, bound: int = 2):
    return tuple(rng.randint(-bound, bound) for _ in range(lat.rank))


def rand_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


def rand_element(rng: random.Random, lat: Lattice, max_terms: int = 3) -> NovikovElement:
    terms = [(rand_coords(rng, lat), rand_coeff(rng)) for _ in range(rng.randint(0, max_terms))]
    return NovikovElement(lat, terms)


def rand_unit(rng: random.Random, lat: Lattice, pm_one: bool = False, max_extra: int = 2) -> NovikovElement:
    """Exact unit: signed leading monomial plus strictly heavier terms."""
    lead_g = rand_coords(rng, lat, 1)
    lead_c = rng.choice([1, -1]) if pm_one else rand_coeff(rng)
    u = NovikovElement.monomial(lat, lead_c, lead_g)
    lead_w = lat.weight(lead_g)
    for _ in range(rng.randint(0, max_extra)):
        g = rand_coords(rng, lat, 2)
        if lat.weight(g) > lead_w:
            u = u + NovikovElement.monomial(lat, rand_coeff(rng), g)
    return u


def elementary_word(rng: random.Random, lat: Lattice, n: int, length: int = 3):
    """Invertible transition built from elementary ops, with exact inverse."""
    t = identity(lat, n)
    tinv = identity(lat, n)
    one = NovikovElement.one(lat)
    zero = NovikovElement.zero(lat)
    for _ in range(length):
        kind = rng.choice(["add", "swap", "scale"]) if n > 1 else "scale"
        e = [[one if i == j else zero for j in range(n)] for i in range(n)]
        einv = [[one if i == j else zero for j in range(n)] for i in range(n)]
        if kind == "add":
            i, j = rng.sample(range(n), 2)
            lam = rand_element(rng, lat, 2)
            e[i][j] = lam
            einv[i][j] = -lam
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            e[i][i] = e[j][j] = zero
            e[i][j] = e[j][i] = one
            einv[i][i] = einv[j][j] = zero
            einv[i][j] = einv[j][i] = one
        else:
            i = rng.randrange(n)
            c = rng.choice([1, -1])
            g = rand_coords(rng, lat, 1)
            e[i][i] = NovikovElement.monomial(lat, c, g)
            einv[i][i] = NovikovElement.monomial(lat, Fraction(1, c), tuple(-x for x in g))
        t = mat_mul(t, as_matrix(e))
        tinv = mat_mul(as_matrix(einv), tinv)
    return t, tinv


def diag_model(rng: random.Random, lat: Lattice, pairs: int = 2, pm_one: bool = False):
    """Direct sum of two-term complexes; returns (complex, expected unit class).

    Pair i spans degrees (d_i, d_i + 1) with a unit entry u_i; the torsion
    is the product of u_i for odd d_i divided by the product for even d_i.
    """
    modules: dict[int, list[str]] = {}
    placements = []
    for i in range(pairs):
        d = rng.randint(0, 2)
        u = rand_unit(rng, lat, pm_one=pm_one)
        src = "p%da" % i
        tgt = "p%db" % i
        modules.setdefault(d, []).append(src)
        modules.setdefault(d + 1, []).append(tgt)
        placements.append((d, src, tgt, u))
    pos = {}
    for d, names in modules.items():
        for idx, name in enumerate(names):
            pos[name] = (d, idx)
    diffs = {}
    for d in modules:
        nsrc = len(modules[d])
        ntgt = len(modules.get(d + 1, ()))
        if nsrc and ntgt:
            diffs[d] = [[NovikovElement.zero(lat)] * nsrc for _ in range(ntgt)]
    num = NovikovElement.one(lat)
    den = NovikovElement.one(lat)
    for d, src, tgt, u in placements:
        diffs[d][pos[tgt][1]][pos[src][1]] = u
        if d % 2:
            num = num * u
        else:
            den = den * u
    diffs = {d: as_matrix(m) for d, m in diffs.items() if any(e.terms for row in m for e in row)}
    cplx = BasedComplex(lat, {d: tuple(v) for d, v in modules.items()}, diffs, None)
    expected = BasisChangeClass.from_unit(divide(num, den, CUT))
    return cplx, expected


def scramble(rng: random.Random, cplx: BasedComplex, length: int = 3):
    """Rebase by random elementary words; returns (new complex, transitions, inverses)."""
    transitions = {}
    inverses = {}
    for d in cplx.degrees():
        t, tinv = elementary_word(rng, cplx.lattice, cplx.rank(d), length)
        transitions[d] = t
        inverses[d] = tinv
    return rebase(cplx, transitions, inverses), transitions, inverses


def graded_transition_class(cplx: BasedComplex, transitions) -> BasisChangeClass:
    """Class of a per-degree base change: det(even blocks) / det(odd blocks)."""
    from novtorsion.linalg import determinant

    num = NovikovElement.one(cplx.lattice)
    den = NovikovElement.one(cplx.lattice)
    for d, t in transitions.items():
        det = determinant(cplx.lattice, t)
        if d % 2 == 0:
            num = num * det
        else:
            den = den * det
    return BasisChangeClass.from_unit(divide(num, den, CUT))


def random_acyclic(rng: random.Random, lat: Lattice, pairs: int = 2, pm_one: bool = False, length: int = 3):
    """Scrambled acyclic complex with its expected torsion class."""
    model, expected = diag_model(rng, lat, pairs, pm_one=pm_one)
    scrambled, transitions, _ = scramble(rng, model, length)
    correction = graded_transition_class(model, transitions)
    expected = BasisChangeClass.from_unit(
        divide(expected.representative, correction.representative, CUT)
    )
    return scrambled, expected


def iso_map(rng: random.Random, cplx: BasedComplex, length: int = 2):
    """Identity map onto a rebased copy; returns (f, target, transitions)."""
    target, transitions, inverses = scramble(rng, cplx, length)
    mats = {d: inverses[d] for d in cplx.degrees() if cplx.rank(d)}
    return ChainMap(cplx, target, mats), target, transitions


def rand_degree_drop(rng: random.Random, f_source: BasedComplex, f_target: BasedComplex):
    """Random degree -1 blocks from the source to the target."""
    blocks = {}
    for d in f_source.degrees():
        rows = f_target.rank(f_source.shift(d, -1))
        cols = f_source.rank(d)
        if rows and cols and rng.random() < 0.9:
            blocks[d] = as_matrix(
                [[rand_element(rng, f_source.lattice, 2) for _ in range(cols)] for _ in range(rows)]
            )
    return blocks


def perturb_by_homotopy(rng: random.Random, f: ChainMap):
    """Chain map g = f - (d2 H + H d1); returns (g, H)."""
    src, tgt = f.source, f.target
    lat = src.lattice
    h = rand_degree_drop(rng, src, tgt)

    def h_block(d):
        mat = h.get(d)
        if mat is None:
            return zeros(lat, tgt.rank(src.shift(d, -1)), src.rank(d))
        return mat

    mats = {}
    for d in set(src.degrees()) | set(tgt.degrees()):
        below, above = src.shift(d, -1), src.shift(d, 1)
        delta = mat_add(
            mat_mul(tgt.differential(below), h_block(d)),
            mat_mul(h_block(above), src.differential(d)),
        )
        mats[d] = mat_sub(f.block(d), delta)
    return ChainMap(src, tgt, mats), h


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    degrees = set(f.source.degrees()) | set(g.target.degrees())
    return ChainMap(f.source, g.target, {d: mat_mul(g.block(d), f.block(d)) for d in degrees})

"""Shared builders for randomized algebra tests, and the torus report check.

Random acyclic complexes are built as direct sums of two-term models with
unit differential entries and then rewritten in scrambled bases via words
of elementary column operations, so every expected torsion value comes
straight from the construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from novtorsion import BasedComplex, ChainMap, Lattice, NovikovElement, rebase
from novtorsion.linalg import _from_entries, as_matrix, mat_add, mat_mul, mat_sub, select_column_pivots, zeros
from novtorsion.series import divide
from novtorsion.torsion import BasisChangeClass

CUT = Fraction(24)


def ref_min(*cutoffs):
    """The Fraction reference for the cutoff rule: the least given cutoff,
    None (exact) standing for no bound, and None when all are None."""
    return min((c for c in cutoffs if c is not None), default=None)


def fraction_constructions(monkeypatch) -> list:
    """Record every Fraction built from now on (through the constructor, or
    through ``_from_coprime_ints``, which newer Pythons use for results)."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(lambda cls, n, d: built.append((n, d)) or coprime(n, d)))
    return built


def dense(m) -> tuple[tuple[NovikovElement, ...], ...]:
    """The rows of matrix ``m`` as dense tuples, the exact zero off its live entries."""
    z = NovikovElement.zero(m.lattice)
    return tuple(tuple(row.get(j, z) for j in range(m.ncols)) for row in m.live)


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


def rand_unit(
    rng: random.Random, lat: Lattice, pm_one: bool = False, max_extra: int = 2, tail=None
) -> NovikovElement:
    """Unit: signed leading monomial plus strictly heavier terms.

    Exact unless ``tail`` is given; then everything at weight >= lead + tail
    is forgotten.  The random draws do not depend on ``tail``.
    """
    lead_g = rand_coords(rng, lat, 1)
    lead_c = rng.choice([1, -1]) if pm_one else rand_coeff(rng)
    u = NovikovElement.monomial(lat, lead_c, lead_g)
    lead_w = lat.weight(lead_g)
    for _ in range(rng.randint(0, max_extra)):
        g = rand_coords(rng, lat, 2)
        if lat.weight(g) > lead_w:
            u = u + NovikovElement.monomial(lat, rand_coeff(rng), g)
    return u if tail is None else u.truncate(lead_w + tail)


def _add_multiple(vecs, dst, src, factor):
    """``vecs[dst] += vecs[src] * factor`` on live entries, dropping exact zeros."""
    out = vecs[dst]
    for k, e in vecs[src].items():
        v = out[k] + e * factor if k in out else e * factor
        if v.is_zero and v.is_exact:
            out.pop(k, None)
        else:
            out[k] = v


def elementary_word(rng: random.Random, lat: Lattice, n: int, length: int = 3):
    """Invertible transition built from elementary ops, with its exact
    inverse and determinant; returns (t, tinv, det).

    Each op is a column operation on the live entries of t, kept by column,
    and a row operation on those of tinv: t E and E^-1 tinv without a dense
    product.  An add has determinant 1, a swap -1 and a scale its monomial,
    so ``det`` comes from the construction and not from linalg.determinant.
    """
    one = NovikovElement.one(lat)
    cols = [{i: one} for i in range(n)]  # t by columns
    rows = [{i: one} for i in range(n)]  # tinv by rows
    det = one
    for _ in range(length):
        kind = rng.choice(["add", "swap", "scale"]) if n > 1 else "scale"
        if kind == "add":
            i, j = rng.sample(range(n), 2)
            lam = rand_element(rng, lat, 2)
            _add_multiple(cols, j, i, lam)
            _add_multiple(rows, i, j, -lam)
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            cols[i], cols[j] = cols[j], cols[i]
            rows[i], rows[j] = rows[j], rows[i]
            det = -det
        else:
            i = rng.randrange(n)
            c = rng.choice([1, -1])
            g = rand_coords(rng, lat, 1)
            m = NovikovElement.monomial(lat, c, g)
            minv = NovikovElement.monomial(lat, Fraction(1, c), tuple(-x for x in g))
            cols[i] = {k: e * m for k, e in cols[i].items()}
            rows[i] = {k: minv * e for k, e in rows[i].items()}
            det = det * m
    t_rows: list[dict] = [{} for _ in range(n)]
    for j, col in enumerate(cols):
        for i, e in col.items():
            t_rows[i][j] = e
    return _from_entries(lat, n, t_rows), _from_entries(lat, n, rows), det


def diag_model(rng: random.Random, lat: Lattice, pairs: int = 2, pm_one: bool = False, tail=None):
    """Direct sum of two-term complexes; returns (complex, expected unit class).

    Pair i spans degrees (d_i, d_i + 1) with a unit entry u_i; the torsion
    is the product of u_i for odd d_i divided by the product for even d_i.
    ``tail`` truncates each u_i above its lead (see ``rand_unit``).
    """
    modules: dict[int, list[str]] = {}
    placements = []
    for i in range(pairs):
        d = rng.randint(0, 2)
        u = rand_unit(rng, lat, pm_one=pm_one, tail=tail)
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
    """Rebase by random elementary words; returns (new complex, transitions,
    inverses, determinants), each a dict by degree."""
    transitions, inverses, dets = {}, {}, {}
    for d in cplx.degrees():
        transitions[d], inverses[d], dets[d] = elementary_word(rng, cplx.lattice, cplx.rank(d), length)
    return rebase(cplx, transitions, inverses), transitions, inverses, dets


def graded_transition_class(cplx: BasedComplex, dets) -> BasisChangeClass:
    """Class of a per-degree base change from its determinants by degree,
    as ``scramble`` returns them: det(even blocks) / det(odd blocks)."""
    num = NovikovElement.one(cplx.lattice)
    den = NovikovElement.one(cplx.lattice)
    for d, det in dets.items():
        if d % 2 == 0:
            num = num * det
        else:
            den = den * det
    return BasisChangeClass.from_unit(divide(num, den, CUT))


def random_acyclic(
    rng: random.Random, lat: Lattice, pairs: int = 2, pm_one: bool = False, length: int = 3, tail=None
):
    """Scrambled acyclic complex with its expected torsion class."""
    model, expected = diag_model(rng, lat, pairs, pm_one=pm_one, tail=tail)
    scrambled, _, _, dets = scramble(rng, model, length)
    correction = graded_transition_class(model, dets)
    expected = BasisChangeClass.from_unit(
        divide(expected.representative, correction.representative, CUT)
    )
    return scrambled, expected


def permute_bases(rng: random.Random, cplx: BasedComplex) -> BasedComplex:
    """Rebase by a random permutation of every degree's basis, each generator
    keeping its name.  A permutation has determinant +-1, so neither torsion
    class may move; only the pivots that the reduction meets first change."""
    lat, one = cplx.lattice, NovikovElement.one(cplx.lattice)
    transitions, inverses, modules = {}, {}, {}
    for d in cplx.degrees():
        names = cplx.generators(d)
        n = len(names)
        perm = rng.sample(range(n), n)  # new vector k is old vector perm[k]
        transitions[d] = _from_entries(lat, n, ({perm.index(i): one} for i in range(n)))
        inverses[d] = _from_entries(lat, n, ({i: one} for i in perm))
        modules[d] = tuple(names[i] for i in perm)
    rebased = rebase(cplx, transitions, inverses)
    return BasedComplex(cplx.lattice, modules, rebased.differentials, cplx.modulus)


def pivot_names(cplx: BasedComplex) -> tuple[frozenset, frozenset]:
    """The generators, by name, whose columns select_column_pivots takes in
    the parity differentials d0 and d1: the columns of the torsion's minors."""
    names0, names1, d0, d1 = cplx.collapse()
    return tuple(
        frozenset(names[j] for j in select_column_pivots(cplx.lattice, d).columns)
        for names, d in ((names0, d0), (names1, d1))
    )


def iso_map(rng: random.Random, cplx: BasedComplex, length: int = 2):
    """Identity map onto a rebased copy; returns (f, target, transitions)."""
    target, transitions, inverses, _ = scramble(rng, cplx, length)
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


def rand_sparse_entry(rng: random.Random, lat: Lattice) -> NovikovElement:
    """Mostly exact zeros, else a zero known below a cutoff, a unit
    truncated above its lead, or a small exact element."""
    roll = rng.random()
    if roll < 0.45:
        return NovikovElement.zero(lat)
    if roll < 0.55:
        return NovikovElement.zero(lat, cutoff=rng.randint(0, 6))
    if roll < 0.7:
        u = rand_unit(rng, lat)
        return u.truncate(u.min_weight() + rng.randint(1, 4))
    return rand_element(rng, lat, 2)


def rand_sparse_matrix(rng: random.Random, lat: Lattice, nrows: int, ncols: int):
    if not (nrows and ncols):
        return zeros(lat, nrows, ncols)
    return as_matrix([[rand_sparse_entry(rng, lat) for _ in range(ncols)] for _ in range(nrows)])


def not_exact_zero(rows) -> set[tuple[int, int]]:
    return {(i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if not (e.is_zero and e.is_exact)}


def assert_live_record(mat):
    """The record lists, per row and in increasing order, exactly the
    entries that are not exact zeros."""
    assert len(mat.live) == len(mat)
    assert all(list(cols) == sorted(set(cols)) for cols in mat.live)
    assert {(i, j) for i, cols in enumerate(mat.live) for j in cols} == not_exact_zero(dense(mat))


def assert_torus_report(out, golden):
    """torus-example stdout against golden text, line by line; the
    step-halving gaps are round-off, so they are only bounded.  It needs
    neither pytest nor numpy, so CI runs it on the oldest Python too."""
    want = golden.splitlines()
    got = out.splitlines()
    assert len(got) == len(want)
    for line, expected in zip(got, want):
        key, _, value = line.partition(":")
        if key.endswith(" step-halving-gap"):
            assert key == expected.partition(":")[0]
            assert float(value) < 1e-6
        else:
            assert line == expected

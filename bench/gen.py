"""Seeded input generator for the benchmark, independent of the program.

Everything here uses the benchmark's own small Laurent-series arithmetic,
so neither an edit to the program nor to its test helpers can move a
workload: the same seed gives byte-identical inputs (see ``fingerprint``).
The constructions follow the randomized torsion suites: acyclic complexes
are direct sums of two-term pieces with unit entries, rewritten in bases
scrambled by elementary column operations, so each expected torsion class
comes straight from the construction.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Lat:
    """A lattice Z^k with a rational weight and an integer grading map."""

    phi: tuple[Fraction, ...]
    c1: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.phi)

    def weight(self, g) -> Fraction:
        return sum((p * x for p, x in zip(self.phi, g)), Fraction(0))

    def identity(self):
        return (0,) * self.rank


K1 = Lat((Fraction(1),), (0,))
# the second weight keeps small supports from tying in weight
K2 = Lat((Fraction(1), Fraction(113, 71)), (0, 1))


def min_cut(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class Elem:
    """A finite Laurent series known below ``cutoff`` (None: known in full).

    The cutoff rules are the honest weakest-cutoff rules of the text
    format: terms at weight >= cutoff are unknown, never assumed zero.
    """

    __slots__ = ("lat", "terms", "cutoff")

    def __init__(self, lat: Lat, terms=None, cutoff=None):
        self.lat = lat
        self.cutoff = None if cutoff is None else Fraction(cutoff)
        tidy = {}
        for g, c in (terms or {}).items():
            if c and (self.cutoff is None or lat.weight(g) < self.cutoff):
                tidy[g] = Fraction(c)
        self.terms = tidy

    @classmethod
    def mono(cls, lat, coeff, g) -> "Elem":
        return cls(lat, {tuple(g): Fraction(coeff)})

    def min_weight(self):
        return min(self.lat.weight(g) for g in self.terms) if self.terms else None

    def __add__(self, other: "Elem") -> "Elem":
        acc = dict(self.terms)
        for g, c in other.terms.items():
            acc[g] = acc.get(g, 0) + c
        return Elem(self.lat, acc, min_cut(self.cutoff, other.cutoff))

    def __neg__(self) -> "Elem":
        return Elem(self.lat, {g: -c for g, c in self.terms.items()}, self.cutoff)

    def __sub__(self, other: "Elem") -> "Elem":
        return self + (-other)

    def __mul__(self, other: "Elem") -> "Elem":
        acc: dict = {}
        for g, c in self.terms.items():
            for h, d in other.terms.items():
                k = tuple(x + y for x, y in zip(g, h))
                acc[k] = acc.get(k, 0) + c * d
        cut = None
        if other.cutoff is not None and self.terms:
            cut = min_cut(cut, self.min_weight() + other.cutoff)
        if self.cutoff is not None and other.terms:
            cut = min_cut(cut, self.cutoff + other.min_weight())
        if self.cutoff is not None and other.cutoff is not None:
            cut = min_cut(cut, self.cutoff + other.cutoff)
        return Elem(self.lat, acc, cut)

    def truncate(self, bound) -> "Elem":
        return Elem(self.lat, self.terms, min_cut(self.cutoff, Fraction(bound)))

    def lead(self):
        """(coefficient, element) of the unique minimal-weight term."""
        w0 = self.min_weight()
        slice_ = [(g, c) for g, c in self.terms.items() if self.lat.weight(g) == w0]
        if len(slice_) != 1:
            raise ArithmeticError("no unique leading term")
        g, c = slice_[0]
        return c, g

    def normalized(self) -> "Elem":
        """Divided by the signed monomial of its leading term."""
        c, g0 = self.lead()
        sign = 1 if c > 0 else -1
        shift = self.lat.weight(g0)
        terms = {tuple(x - y for x, y in zip(g, g0)): sign * d for g, d in self.terms.items()}
        return Elem(self.lat, terms, None if self.cutoff is None else self.cutoff - shift)

    def agree_below(self, other: "Elem", bound) -> bool:
        """Term-wise equality below ``bound`` (None: everywhere)."""
        w = self.lat.weight
        if bound is None:
            return self.terms == other.terms
        return {g: c for g, c in self.terms.items() if w(g) < bound} == {
            g: c for g, c in other.terms.items() if w(g) < bound
        }

    def text(self) -> str:
        """The element in the document format, as the program renders it."""
        if not self.terms:
            body = "0"
        else:
            parts = []
            for g in sorted(self.terms, key=lambda g: (self.lat.weight(g), g)):
                c = self.terms[g]
                mag = str(abs(c)) if not any(g) else "%s*g(%s)" % (abs(c), ",".join(map(str, g)))
                if not parts:
                    parts.append(("-" + mag) if c < 0 else mag)
                else:
                    parts.append((" - " if c < 0 else " + ") + mag)
            body = "".join(parts)
        if self.cutoff is not None:
            body += " @cutoff=%s" % self.cutoff
        return body


Matrix = list  # list of rows of Elem


def zero(lat) -> Elem:
    return Elem(lat)


def one(lat) -> Elem:
    return Elem.mono(lat, 1, lat.identity())


def mat_mul(a: Matrix, b: Matrix, lat: Lat, nrows: int, inner: int, ncols: int) -> Matrix:
    out = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            acc = zero(lat)
            for k in range(inner):
                if a[i][k].terms or a[i][k].cutoff is not None:
                    if b[k][j].terms or b[k][j].cutoff is not None:
                        acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ident(lat, n) -> Matrix:
    return [[one(lat) if i == j else zero(lat) for j in range(n)] for i in range(n)]


# -- random pieces ------------------------------------------------------------

#: Offsets of a unit's two extra terms above its leading term, one from
#: each group.  They span one cone, at weight 1 or more, so every series
#: expanded to a fixed cutoff has a support of about the same size
#: whatever the seed.
TAIL_OFFSETS = {
    K1: ([(1,), (2,)], [(2,), (3,)]),
    K2: ([(1, 0), (2, 0)], [(0, 1), (1, 1)]),
}

COEFFS = [Fraction(c, d) for c in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]


def rand_coords(rng: random.Random, lat: Lat, bound: int):
    return tuple(rng.randint(-bound, bound) for _ in range(lat.rank))


def shift(lat: Lat, k: int):
    """The monomial g1^k, a shift along the first generator only."""
    return (k,) + (0,) * (lat.rank - 1)


def rand_unit(rng: random.Random, lat: Lat, index: int, tail: Optional[Fraction]) -> Elem:
    """Rational leading constant plus two heavier terms.

    The leading term sits at the identity so that every torsion class
    built from these units leads at weight 0 and is expanded over the
    same weight range; the extra terms' offsets follow ``index``, the
    seed draws the coefficients.  With ``tail`` set the unit is truncated
    at that weight, so it reaches the program with a cutoff.
    """
    g0 = lat.identity()
    terms = {g0: Fraction(rng.choice([1, -1, 2, -2, Fraction(1, 2)]))}
    for k, group in enumerate(TAIL_OFFSETS[lat]):
        off = group[(index + k) % len(group)]
        terms[off] = terms.get(off, 0) + rng.choice(COEFFS)
    u = Elem(lat, terms)
    if tail is not None:
        u = u.truncate(lat.weight(g0) + tail)
    return u


def elementary_word(rng: random.Random, lat: Lat, n: int, length: int):
    """A transition built from elementary operations, with its exact inverse.

    The operations, the positions they touch and their monomials follow a
    fixed pattern, so every seed gives the same supports and about the
    same cost; the seed draws the coefficients and signs.  Additions use
    single signed monomials; swaps and paired rescalings (one basis vector
    by a signed monomial g, another by g^-1) keep the determinant at +-1,
    so the class of every transition is trivial.
    """
    t, tinv = ident(lat, n), ident(lat, n)
    for step in range(length):
        e, einv = ident(lat, n), ident(lat, n)
        i = step % n
        j = (3 * step + 1) % n if n > 1 else i
        if j == i and n > 1:
            j = (i + 1) % n
        kind = "scale" if n == 1 else ("add", "add", "scale", "add", "swap")[step % 5]
        if kind == "add":
            lam = Elem.mono(lat, rng.choice([1, -1, 2, -2]), shift(lat, step % 3 - 1))
            e[i][j], einv[i][j] = lam, -lam
        elif kind == "swap":
            for m in (e, einv):
                m[i][i] = m[j][j] = zero(lat)
                m[i][j] = m[j][i] = one(lat)
        else:
            g = shift(lat, 1 if step % 2 else -1) if n > 1 else lat.identity()
            for k, gk in ((i, g), (j, tuple(-x for x in g))) if n > 1 else ((i, g),):
                c = rng.choice([1, -1])
                e[k][k] = Elem.mono(lat, c, gk)
                einv[k][k] = Elem.mono(lat, c, tuple(-x for x in gk))
        t = mat_mul(t, e, lat, n, n, n)
        tinv = mat_mul(einv, tinv, lat, n, n, n)
    return t, tinv


@dataclass
class Cplx:
    """A Z-graded based complex: names per degree and d[deg] (rows: deg+1)."""

    lat: Lat
    modules: dict[int, list[str]]
    diffs: dict[int, Matrix] = field(default_factory=dict)

    def rank(self, d: int) -> int:
        return len(self.modules.get(d, ()))

    def diff(self, d: int) -> Matrix:
        if d in self.diffs:
            return self.diffs[d]
        return [[zero(self.lat)] * self.rank(d) for _ in range(self.rank(d + 1))]


def _rebase(c: Cplx, trans, invs) -> Cplx:
    diffs = {}
    for d, mat in c.diffs.items():
        n, m = c.rank(d + 1), c.rank(d)
        mat = mat_mul(mat, trans[d], c.lat, n, m, m)
        diffs[d] = mat_mul(invs[d + 1], mat, c.lat, n, n, m)
    return Cplx(c.lat, c.modules, diffs)


def scramble(rng: random.Random, c: Cplx, per_generator: int):
    """Rebase every degree by a word of per_generator * rank operations."""
    trans, invs = {}, {}
    for d in sorted(c.modules):
        n = c.rank(d)
        trans[d], invs[d] = elementary_word(rng, c.lat, n, max(2, per_generator * n))
    return _rebase(c, trans, invs), trans, invs


def acyclic(rng: random.Random, lat: Lat, pairs: int, tail_range=None, spread: int = 3):
    """Scrambled acyclic complex; returns (complex, odd units, even units, tails).

    Pair i spans degrees (i mod spread, i mod spread + 1) with a unit
    entry; the torsion class is the product of the units at odd source
    degree over the product at even source degree, modulo signs and
    monomials.  With ``tail_range`` (in halves) each unit is truncated a
    seed-chosen weight above its leading term.
    """
    modules: dict[int, list[str]] = {}
    placed = []
    tails = []
    for i in range(pairs):
        d = i % spread
        tail = None
        if tail_range is not None:
            tail = Fraction(rng.randint(*tail_range), 2)
            tails.append(tail)
        u = rand_unit(rng, lat, i, tail)
        modules.setdefault(d, []).append("p%da" % i)
        modules.setdefault(d + 1, []).append("p%db" % i)
        placed.append((d, len(modules[d]) - 1, len(modules[d + 1]) - 1, u))
    model = Cplx(lat, modules)
    for d, col, row, u in placed:
        model.diffs.setdefault(d, model.diff(d))[row][col] = u
    scrambled, _, _ = scramble(rng, model, 2)
    odd = [u for d, _, _, u in placed if d % 2]
    even = [u for d, _, _, u in placed if d % 2 == 0]
    return scrambled, odd, even, tails


def iso_and_perturbation(rng: random.Random, c: Cplx):
    """An isomorphism f onto a rebased copy and g = f - (d' H + H d)."""
    target, _, invs = scramble(rng, c, 1)
    f = {d: invs[d] for d in c.modules}
    lat = c.lat
    h = {}
    for d in c.modules:
        rows, cols = target.rank(d - 1), c.rank(d)
        if rows and cols:
            h[d] = [
                [Elem.mono(lat, rng.choice([1, -1]), shift(lat, (r + k) % 3 - 1)) for k in range(cols)]
                for r in range(rows)
            ]

    def hb(d):
        return h.get(d) or [[zero(lat)] * c.rank(d) for _ in range(target.rank(d - 1))]

    g = {}
    for d in c.modules:
        n, m = target.rank(d), c.rank(d)
        left = mat_mul(target.diff(d - 1), hb(d), lat, n, target.rank(d - 1), m)
        right = mat_mul(hb(d + 1), c.diff(d), lat, n, c.rank(d + 1), m)
        g[d] = mat_sub(f[d], [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(left, right)])
    return target, f, g


# -- canonical text -------------------------------------------------------------


def lattice_text(lat: Lat) -> list[str]:
    return [
        "[group]",
        "rank: %d" % lat.rank,
        "phi: %s" % " ".join(map(str, lat.phi)),
        "c1: %s" % " ".join(map(str, lat.c1)),
    ]


def complex_text(c: Cplx) -> str:
    """The complex as a document, in the program's canonical render form."""
    lines = lattice_text(c.lat)
    for d in sorted(c.modules):
        lines += ["", "[module %d]" % d] + list(c.modules[d])
    diff_lines = []
    for d in sorted(c.modules):
        mat = c.diffs.get(d)
        for j, src in enumerate(c.modules[d]):
            if mat is None:
                continue
            items = [
                "(%s)*%s" % (mat[i][j].text(), tgt)
                for i, tgt in enumerate(c.modules.get(d + 1, ()))
                if mat[i][j].terms or mat[i][j].cutoff is not None
            ]
            if items:
                diff_lines.append("%s: %s" % (src, " + ".join(items)))
    if diff_lines:
        lines += ["", "[differential]"] + diff_lines
    return "\n".join(lines) + "\n"


def blocks_text(blocks: dict[int, Matrix]) -> str:
    return "\n".join(
        "%d: %s" % (d, " ; ".join(" , ".join(e.text() for e in row) for row in blocks[d]))
        for d in sorted(blocks)
    )


def fingerprint(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


#: Share of the entries of a banded document that carry an ``@cutoff``.
CUTOFF_SHARE = 0.2


def banded_document(rng: random.Random, n: int, band: int = 3):
    """Two-degree document, n generators per degree, banded differential.

    Returns (text, diagonal).  The differential is lower triangular with a
    nonzero diagonal, so the complex is acyclic with torsion
    1 / prod(diagonal).  The text is in the canonical form, so a
    parse/render round trip reproduces it.
    """
    lat = K2
    lines = lattice_text(lat)
    lines += ["", "[module 0]"] + ["x%d" % j for j in range(n)]
    lines += ["", "[module 1]"] + ["y%d" % i for i in range(n)]
    lines += ["", "[differential]"]
    diagonal = []
    for j in range(n):
        items = []
        for i in range(j, min(n, j + band)):
            terms = {rand_coords(rng, lat, 2): rng.choice(COEFFS) for _ in range(rng.randint(1, 3))}
            e = Elem(lat, terms)
            if rng.random() < CUTOFF_SHARE:
                cut = e.truncate(Fraction(rng.randint(4, 12), 2))
                e = cut if cut.terms else e
            if i == j:
                diagonal.append(e)
            items.append("(%s)*y%d" % (e.text(), i))
        lines.append("x%d: %s" % (j, " + ".join(items)))
    text = "\n".join(lines) + "\n"
    return text, diagonal


_TERM = re.compile(r"\s*([+-]?)\s*(\d+(?:/\d+)?)(?:\*g\(([-\d,]*)\))?\s*")


def parse_elem(text: str, lat: Lat, cutoff=None) -> Elem:
    """Inverse of ``Elem.text``, for reading answers the program printed."""
    body, _, cut = text.strip().partition(" @cutoff=")
    if cut:
        cutoff = Fraction(cut)
    terms: dict = {}
    if body != "0":
        pos = 0
        while pos < len(body):
            m = _TERM.match(body, pos)
            if not m or m.end() == pos:
                raise ValueError("unreadable element %r" % text)
            g = tuple(int(x) for x in m.group(3).split(",")) if m.group(3) else lat.identity()
            terms[g] = terms.get(g, 0) + (-1 if m.group(1) == "-" else 1) * Fraction(m.group(2))
            pos = m.end()
    return Elem(lat, terms, cutoff)

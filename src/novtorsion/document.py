"""Line-oriented text format for lattices, complexes and chain maps.

A document holds one lattice, one graded complex and optionally named
degree-zero endomorphisms of it.  Blocks are introduced by headers::

    [group]             rank, phi, c1 and an optional even grading modulus
    [module <degree>]   one generator name per line
    [differential]      lines  <source>: (<element>)*<target> + ...
    [map <name>]        same line shape, targets in the source's degree

Element literals are sums of ``coeff*g(a1,...,ak)`` terms with exact
rational coefficients; a term supported at the group identity is written
as a bare rational, and a trailing ``@cutoff=p/q`` marks a truncated
element.  ``0`` denotes the zero element or an empty line image.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .complexes import BasedComplex, ChainMap
from .lattice import Lattice
from .linalg import Matrix, as_matrix
from .series import NovikovElement

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*$")
_HEADER_RE = re.compile(r"\[\s*([a-z]+)(?:\s+(\S+))?\s*\]$")
_TERM_RE = re.compile(r"(\d+(?:\s*/\s*\d+)?)\s*(?:\*\s*g\(\s*([^)]*?)\s*\))?")

Entry = tuple[NovikovElement, str]


class DocumentParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__("line %d: %s" % (line, message))


@dataclass
class ComplexDocument:
    lattice: Lattice
    modules: dict[int, tuple[str, ...]]
    differential: dict[str, tuple[Entry, ...]] = field(default_factory=dict)
    maps: dict[str, dict[str, tuple[Entry, ...]]] = field(default_factory=dict)
    modulus: Optional[int] = None


def _positions(modules: dict[int, tuple[str, ...]]) -> dict[str, tuple[int, int]]:
    """Generator name -> (degree, index within its module)."""
    return {name: (d, i) for d, names in modules.items() for i, name in enumerate(names)}


def _parse_rational(text: str, line: int, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise DocumentParseError(line, "invalid rational %r in %s" % (text.strip(), what))


def parse_element(text: str, lattice: Lattice, line: int) -> NovikovElement:
    body = text.strip()
    cutoff = None
    if "@cutoff=" in body:
        body, _, tail = body.partition("@cutoff=")
        cutoff = _parse_rational(tail, line, "cutoff")
        body = body.strip()
    if body == "0":
        return NovikovElement.zero(lattice, cutoff)
    terms = []
    pos = 0
    first = True
    n = len(body)
    while pos < n:
        while pos < n and body[pos].isspace():
            pos += 1
        if pos >= n:
            break
        sign = 1
        if body[pos] in "+-":
            sign = -1 if body[pos] == "-" else 1
            pos += 1
            while pos < n and body[pos].isspace():
                pos += 1
        elif not first:
            raise DocumentParseError(line, "expected + or - between terms in %r" % text.strip())
        m = _TERM_RE.match(body, pos)
        if not m:
            raise DocumentParseError(line, "malformed term at %r" % body[pos : pos + 20])
        try:
            coeff = Fraction(m.group(1).replace(" ", ""))
        except ZeroDivisionError:
            raise DocumentParseError(line, "zero denominator in %r" % m.group(1))
        if m.group(2) is None:
            coords = lattice.identity()
        else:
            raw = m.group(2).strip()
            parts = [p.strip() for p in raw.split(",")] if raw else []
            try:
                coords = tuple(int(p) for p in parts)
            except ValueError:
                raise DocumentParseError(line, "invalid coordinates %r" % m.group(2))
            if len(coords) != lattice.rank:
                raise DocumentParseError(
                    line,
                    "element has %d coordinates, lattice rank is %d" % (len(coords), lattice.rank),
                )
        terms.append((coords, sign * coeff))
        pos = m.end()
        first = False
    if first:
        raise DocumentParseError(line, "empty element literal")
    return NovikovElement(lattice, terms, cutoff)


def _split_items(text: str, line: int) -> list[str]:
    items = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise DocumentParseError(line, "unbalanced parentheses")
        if ch == "+" and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise DocumentParseError(line, "unbalanced parentheses")
    items.append("".join(cur))
    return items


def parse_lincomb(text: str, lattice: Lattice, line: int) -> tuple[Entry, ...]:
    body = text.strip()
    if body == "0":
        return ()
    entries = []
    for item in _split_items(body, line):
        item = item.strip()
        if not item.startswith("("):
            raise DocumentParseError(line, "expected (element)*generator, got %r" % item)
        depth = 0
        close = -1
        for i, ch in enumerate(item):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close < 0:
            raise DocumentParseError(line, "unbalanced parentheses in %r" % item)
        rest = item[close + 1 :].strip()
        if not rest.startswith("*"):
            raise DocumentParseError(line, "expected '*' after element in %r" % item)
        target = rest[1:].strip()
        if not _NAME_RE.match(target):
            raise DocumentParseError(line, "invalid generator name %r" % target)
        elt = parse_element(item[1:close], lattice, line)
        entries.append((elt, target))
    return tuple(entries)


def parse(text: str) -> ComplexDocument:
    lattice: Optional[Lattice] = None
    group_raw: dict[str, tuple[int, str]] = {}
    group_done = False
    modules: dict[int, list[str]] = {}
    gen_line: dict[str, int] = {}
    position: dict[str, tuple[int, int]] = {}
    differential: dict[str, tuple[Entry, ...]] = {}
    maps: dict[str, dict[str, tuple[Entry, ...]]] = {}
    modulus: Optional[int] = None

    section = None
    current_degree = None
    current_map = None
    line_no = 0

    def finish_group(line_no):
        nonlocal lattice, modulus, group_done
        if group_done:
            return
        if "rank" not in group_raw:
            raise DocumentParseError(line_no, "group block is missing 'rank'")
        ln, raw = group_raw["rank"]
        try:
            rank = int(raw)
        except ValueError:
            raise DocumentParseError(ln, "invalid rank %r" % raw)
        phis = []
        c1s = []
        if "phi" in group_raw:
            ln, raw = group_raw["phi"]
            phis = [_parse_rational(p, ln, "phi") for p in raw.split()]
        if "c1" in group_raw:
            ln, raw = group_raw["c1"]
            try:
                c1s = [int(p) for p in raw.split()]
            except ValueError:
                raise DocumentParseError(ln, "invalid c1 entries %r" % raw)
        if len(phis) != rank or len(c1s) != rank:
            raise DocumentParseError(
                line_no, "phi and c1 must each list %d entries" % rank
            )
        if "modulus" in group_raw:
            ln, raw = group_raw["modulus"]
            try:
                modulus = int(raw)
            except ValueError:
                raise DocumentParseError(ln, "invalid modulus %r" % raw)
            if modulus < 2 or modulus % 2:
                raise DocumentParseError(ln, "modulus must be even and >= 2")
        lattice = Lattice(rank, phis, c1s)
        group_done = True

    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            m = _HEADER_RE.match(line)
            if not m:
                raise DocumentParseError(line_no, "malformed block header %r" % line)
            kind, arg = m.group(1), m.group(2)
            if kind == "group":
                if group_done or group_raw:
                    raise DocumentParseError(line_no, "duplicate [group] block")
                section = "group"
                continue
            finish_group(line_no)
            if kind == "module":
                if arg is None:
                    raise DocumentParseError(line_no, "[module] header needs a degree")
                try:
                    current_degree = int(arg)
                except ValueError:
                    raise DocumentParseError(line_no, "invalid degree %r" % arg)
                if modulus is not None and not 0 <= current_degree < modulus:
                    raise DocumentParseError(
                        line_no, "degree %d outside Z_%d" % (current_degree, modulus)
                    )
                modules.setdefault(current_degree, [])
                section = "module"
            elif kind == "differential":
                if arg is not None:
                    raise DocumentParseError(line_no, "[differential] takes no argument")
                section = "differential"
            elif kind == "map":
                if arg is None or not _NAME_RE.match(arg):
                    raise DocumentParseError(line_no, "[map] header needs a valid name")
                if arg in maps:
                    raise DocumentParseError(line_no, "duplicate map %r" % arg)
                current_map = arg
                maps[arg] = {}
                section = "map"
            else:
                raise DocumentParseError(line_no, "unknown block kind %r" % kind)
            continue
        if section == "group":
            key, sep, value = line.partition(":")
            key = key.strip()
            if not sep or key not in ("rank", "phi", "c1", "modulus"):
                raise DocumentParseError(line_no, "unknown group field %r" % line)
            if key in group_raw:
                raise DocumentParseError(line_no, "duplicate group field %r" % key)
            group_raw[key] = (line_no, value.strip())
        elif section == "module":
            name = line
            if not _NAME_RE.match(name):
                raise DocumentParseError(line_no, "invalid generator name %r" % name)
            if name in gen_line:
                raise DocumentParseError(
                    line_no, "duplicate generator %r (first declared on line %d)" % (name, gen_line[name])
                )
            gen_line[name] = line_no
            position[name] = (current_degree, len(modules[current_degree]))
            modules[current_degree].append(name)
        elif section in ("differential", "map"):
            src, sep, rhs = line.partition(":")
            src = src.strip()
            if not sep:
                raise DocumentParseError(line_no, "expected '<generator>: <image>'")
            if src not in gen_line:
                raise DocumentParseError(line_no, "undeclared generator %r" % src)
            entries = parse_lincomb(rhs, lattice, line_no)
            src_degree = position[src][0]
            seen_targets = set()
            for elt, target in entries:
                if target not in gen_line:
                    raise DocumentParseError(line_no, "undeclared generator %r" % target)
                if target in seen_targets:
                    raise DocumentParseError(line_no, "generator %r appears twice" % target)
                seen_targets.add(target)
                t_degree = position[target][0]
                if section == "differential":
                    want = src_degree + 1 if modulus is None else (src_degree + 1) % modulus
                    if t_degree != want:
                        raise DocumentParseError(
                            line_no,
                            "differential image of %r must live in degree %d, %r is in degree %d"
                            % (src, want, target, t_degree),
                        )
                else:
                    if t_degree != src_degree:
                        raise DocumentParseError(
                            line_no,
                            "map image of %r must stay in degree %d, %r is in degree %d"
                            % (src, src_degree, target, t_degree),
                        )
            book = differential if section == "differential" else maps[current_map]
            if src in book:
                raise DocumentParseError(line_no, "duplicate image line for %r" % src)
            book[src] = entries
        else:
            raise DocumentParseError(line_no, "content before any block header: %r" % line)
    finish_group(max(line_no, 1))
    return ComplexDocument(
        lattice=lattice,
        modules={d: tuple(names) for d, names in modules.items() if names},
        differential={k: v for k, v in differential.items() if v},
        maps={m: {k: v for k, v in body.items() if v} for m, body in maps.items()},
        modulus=modulus,
    )


def _render_lincomb(position: dict[str, tuple[int, int]], entries) -> str:
    ordered = sorted(entries, key=lambda e: position[e[1]])
    return " + ".join("(%s)*%s" % (elt, tgt) for elt, tgt in ordered)


def render(doc: ComplexDocument) -> str:
    position = _positions(doc.modules)
    lines = ["[group]", "rank: %d" % doc.lattice.rank]
    lines.append("phi: %s" % " ".join(str(p) for p in doc.lattice.phi))
    lines.append("c1: %s" % " ".join(str(c) for c in doc.lattice.c1))
    if doc.modulus is not None:
        lines.append("modulus: %d" % doc.modulus)
    for d in sorted(doc.modules):
        lines.append("")
        lines.append("[module %d]" % d)
        lines.extend(doc.modules[d])
    diff_lines = []
    for d in sorted(doc.modules):
        for name in doc.modules[d]:
            entries = doc.differential.get(name)
            if entries:
                diff_lines.append("%s: %s" % (name, _render_lincomb(position, entries)))
    if diff_lines:
        lines.append("")
        lines.append("[differential]")
        lines.extend(diff_lines)
    for map_name in sorted(doc.maps):
        body = doc.maps[map_name]
        lines.append("")
        lines.append("[map %s]" % map_name)
        for d in sorted(doc.modules):
            for name in doc.modules[d]:
                entries = body.get(name)
                if entries:
                    lines.append("%s: %s" % (name, _render_lincomb(position, entries)))
    return "\n".join(lines) + "\n"


def _place(doc: ComplexDocument, images: dict[str, tuple[Entry, ...]], step: int) -> dict[int, Matrix]:
    """Matrices of ``images`` from each degree d into degree d + step.

    Column j of the degree-d matrix holds the image of the j-th degree-d
    generator; degrees where no generator has an image are left out.
    """
    position = _positions(doc.modules)
    z = NovikovElement.zero(doc.lattice)
    mats = {}
    for d, names in doc.modules.items():
        if not any(images.get(name) for name in names):
            continue
        t = d + step if doc.modulus is None else (d + step) % doc.modulus
        rows = [[z] * len(names) for _ in doc.modules.get(t, ())]
        for j, src in enumerate(names):
            for elt, tgt in images.get(src, ()):
                rows[position[tgt][1]][j] = elt
        mats[d] = as_matrix(rows, len(names))
    return mats


def build_complex(doc: ComplexDocument) -> BasedComplex:
    diffs = _place(doc, doc.differential, 1)
    return BasedComplex(doc.lattice, dict(doc.modules), diffs, doc.modulus)


def build_chain_map(doc: ComplexDocument, name: str, cplx: Optional[BasedComplex] = None) -> ChainMap:
    """A named endomorphism of the document's complex, as a chain map."""
    if name not in doc.maps:
        raise KeyError("no map named %r in document" % name)
    if cplx is None:
        cplx = build_complex(doc)
    return ChainMap(cplx, cplx, _place(doc, doc.maps[name], 0))


def document_from_complex(cplx: BasedComplex, maps: Optional[dict[str, ChainMap]] = None) -> ComplexDocument:
    differential: dict[str, tuple[Entry, ...]] = {}
    for d, mat in cplx.differentials.items():
        t = cplx.shift(d, 1)
        sources = cplx.generators(d)
        targets = cplx.generators(t)
        for j, src in enumerate(sources):
            entries = []
            for i, tgt in enumerate(targets):
                e = mat[i][j]
                if e.terms or e.cutoff is not None:
                    entries.append((e, tgt))
            if entries:
                differential[src] = tuple(entries)
    map_blocks: dict[str, dict[str, tuple[Entry, ...]]] = {}
    for name, f in (maps or {}).items():
        if f.source != cplx or f.target != cplx:
            raise ValueError("documents can only carry endomorphisms of their complex")
        body: dict[str, tuple[Entry, ...]] = {}
        for d, mat in f.matrices.items():
            gens = cplx.generators(d)
            for j, src in enumerate(gens):
                entries = []
                for i, tgt in enumerate(gens):
                    e = mat[i][j]
                    if e.terms or e.cutoff is not None:
                        entries.append((e, tgt))
                if entries:
                    body[src] = tuple(entries)
        map_blocks[name] = body
    return ComplexDocument(
        lattice=cplx.lattice,
        modules=dict(cplx.modules),
        differential=differential,
        maps=map_blocks,
        modulus=cplx.modulus,
    )

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
element.  ``0`` denotes the zero element or an empty line image.  A line
whose first non-blank character is ``#`` is a comment; there are no
trailing comments, so ``#`` anywhere else is part of the line.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .complexes import BasedComplex, ChainMap, shift_degree
from .lattice import Lattice
from .linalg import Matrix, _from_entries
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


class ComplexDocument:
    __slots__ = ("lattice", "modules", "differential", "maps", "modulus")

    def __init__(
        self,
        lattice: Lattice,
        modules: dict[int, tuple[str, ...]],
        differential: dict[str, tuple[Entry, ...]] | None = None,
        maps: dict[str, dict[str, tuple[Entry, ...]]] | None = None,
        modulus: int | None = None,
    ):
        self.lattice, self.modules, self.modulus = lattice, modules, modulus
        self.differential = {} if differential is None else differential
        self.maps = {} if maps is None else maps

    def __eq__(self, other):
        if not isinstance(other, ComplexDocument):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None


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
            coeff = Fraction("".join(m.group(1).split()))
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
    try:
        return NovikovElement(lattice, terms, cutoff)
    except ValueError as exc:  # a coordinate outside the lattice's box
        raise DocumentParseError(line, str(exc)) from None


def _split_items(text: str, line: int) -> list[tuple[int, int, int]]:
    """Spans ``(start, close, end)`` of the items between top-level ``+`` signs.

    ``close`` indexes the ``)`` that ends the item's first parenthesis, or is
    -1 when the item has none.  Every item is balanced, so an item that
    starts with ``(`` always has its ``close``.
    """
    spans = []
    depth = start = 0
    close = -1
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise DocumentParseError(line, "unbalanced parentheses")
            if depth == 0 and close < 0:
                close = i
        elif ch == "+" and depth == 0:
            spans.append((start, close, i))
            start, close = i + 1, -1
    if depth != 0:
        raise DocumentParseError(line, "unbalanced parentheses")
    spans.append((start, close, len(text)))
    return spans


def parse_lincomb(text: str, lattice: Lattice, line: int) -> tuple[Entry, ...]:
    body = text.strip()
    if body == "0":
        return ()
    entries = []
    for start, close, end in _split_items(body, line):
        item = body[start:end].strip()
        if not item.startswith("("):
            raise DocumentParseError(line, "expected (element)*generator, got %r" % item)
        rest = body[close + 1 : end].strip()
        if not rest.startswith("*"):
            raise DocumentParseError(line, "expected '*' after element in %r" % item)
        target = rest[1:].strip()
        if not _NAME_RE.match(target):
            raise DocumentParseError(line, "invalid generator name %r" % target)
        elt = parse_element(body[body.index("(", start) + 1 : close], lattice, line)
        entries.append((elt, target))
    return tuple(entries)


def _group(fields: dict[str, tuple[int, str]], line_no: int) -> tuple[Lattice, int | None]:
    """Lattice and grading modulus of a ``[group]`` block.

    ``fields`` maps each field to its (line, value); a missing field or a
    length mismatch is reported at ``line_no``, where the block ended.
    """
    if "rank" not in fields:
        raise DocumentParseError(line_no, "group block is missing 'rank'")
    ln, raw = fields["rank"]
    try:
        rank = int(raw)
    except ValueError:
        raise DocumentParseError(ln, "invalid rank %r" % raw)
    if rank < 0:
        raise DocumentParseError(ln, "rank must be non-negative")
    ln, raw = fields.get("phi", (line_no, ""))
    phis = [_parse_rational(p, ln, "phi") for p in raw.split()]
    ln, raw = fields.get("c1", (line_no, ""))
    try:
        c1s = [int(p) for p in raw.split()]
    except ValueError:
        raise DocumentParseError(ln, "invalid c1 entries %r" % raw)
    if len(phis) != rank or len(c1s) != rank:
        raise DocumentParseError(line_no, "phi and c1 must each list %d entries" % rank)
    modulus = None
    if "modulus" in fields:
        ln, raw = fields["modulus"]
        try:
            modulus = int(raw)
        except ValueError:
            raise DocumentParseError(ln, "invalid modulus %r" % raw)
        if modulus < 2 or modulus % 2:
            raise DocumentParseError(ln, "modulus must be even and >= 2")
    return Lattice(rank, phis, c1s), modulus


#: Blocks of image lines: the degree shift from a source to its targets, and
#: the message for a target in another degree.
_IMAGE_RULES = {
    "differential": (1, "differential image of %r must live in degree %d, %r is in degree %d"),
    "map": (0, "map image of %r must stay in degree %d, %r is in degree %d"),
}


def parse(text: str) -> ComplexDocument:
    lattice: Lattice | None = None
    modulus: int | None = None
    fields: dict[str, tuple[int, str]] = {}
    declared: dict[str, tuple[int, int]] = {}  # generator -> (line, degree)
    modules: dict[int, list[str]] = {}
    differential: dict[str, tuple[Entry, ...]] = {}
    maps: dict[str, dict[str, tuple[Entry, ...]]] = {}
    section = degree = book = None
    line_no = 0
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            m = _HEADER_RE.match(line)
            if not m:
                raise DocumentParseError(line_no, "malformed block header %r" % line)
            previous, (section, arg) = section, m.groups()
            if section == "group":
                if lattice is not None or previous == "group":
                    raise DocumentParseError(line_no, "duplicate [group] block")
            elif lattice is None:
                lattice, modulus = _group(fields, line_no)
            if arg is not None and section in ("group", "differential"):
                raise DocumentParseError(line_no, "[%s] takes no argument" % section)
            if section == "module":
                if arg is None:
                    raise DocumentParseError(line_no, "[module] header needs a degree")
                try:
                    degree = int(arg)
                except ValueError:
                    raise DocumentParseError(line_no, "invalid degree %r" % arg)
                if modulus is not None and not 0 <= degree < modulus:
                    raise DocumentParseError(line_no, "degree %d outside Z_%d" % (degree, modulus))
                modules.setdefault(degree, [])
            elif section == "differential":
                book = differential
            elif section == "map":
                if arg is None or not _NAME_RE.match(arg):
                    raise DocumentParseError(line_no, "[map] header needs a valid name")
                if arg in maps:
                    raise DocumentParseError(line_no, "duplicate map %r" % arg)
                book = maps[arg] = {}
            elif section != "group":
                raise DocumentParseError(line_no, "unknown block kind %r" % section)
        elif section == "group":
            key, sep, value = line.partition(":")
            key = key.strip()
            if not sep or key not in ("rank", "phi", "c1", "modulus"):
                raise DocumentParseError(line_no, "unknown group field %r" % line)
            if key in fields:
                raise DocumentParseError(line_no, "duplicate group field %r" % key)
            fields[key] = (line_no, value.strip())
        elif section == "module":
            if not _NAME_RE.match(line):
                raise DocumentParseError(line_no, "invalid generator name %r" % line)
            if line in declared:
                raise DocumentParseError(
                    line_no, "duplicate generator %r (first declared on line %d)" % (line, declared[line][0])
                )
            declared[line] = (line_no, degree)
            modules[degree].append(line)
        elif section in _IMAGE_RULES:
            step, rule = _IMAGE_RULES[section]
            src, sep, rhs = line.partition(":")
            src = src.strip()
            if not sep:
                raise DocumentParseError(line_no, "expected '<generator>: <image>'")
            if src not in declared:
                raise DocumentParseError(line_no, "undeclared generator %r" % src)
            entries = parse_lincomb(rhs, lattice, line_no)
            want = shift_degree(declared[src][1], step, modulus)
            seen = set()
            for _, target in entries:
                if target not in declared:
                    raise DocumentParseError(line_no, "undeclared generator %r" % target)
                if target in seen:
                    raise DocumentParseError(line_no, "generator %r appears twice" % target)
                seen.add(target)
                if declared[target][1] != want:
                    raise DocumentParseError(line_no, rule % (src, want, target, declared[target][1]))
            if src in book:
                raise DocumentParseError(line_no, "duplicate image line for %r" % src)
            book[src] = entries
        else:
            raise DocumentParseError(line_no, "content before any block header: %r" % line)
    if lattice is None:
        lattice, modulus = _group(fields, max(line_no, 1))
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
        lines += ["", "[module %d]" % d, *doc.modules[d]]
    order = [name for d in sorted(doc.modules) for name in doc.modules[d]]
    blocks = [("[differential]", doc.differential)]
    blocks += [("[map %s]" % name, doc.maps[name]) for name in sorted(doc.maps)]
    for header, images in blocks:
        body = ["%s: %s" % (name, _render_lincomb(position, images[name])) for name in order if images.get(name)]
        # An empty [differential] block is left out; an empty map still names itself.
        if body or header != "[differential]":
            lines += ["", header, *body]
    return "\n".join(lines) + "\n"


def _place(doc: ComplexDocument, images: dict[str, tuple[Entry, ...]], step: int) -> dict[int, Matrix]:
    """Matrices of ``images`` from each degree d into degree d + step.

    Column j of the degree-d matrix holds the image of the j-th degree-d
    generator; degrees where no generator has an image are left out.
    """
    position = _positions(doc.modules)
    mats = {}
    for d, names in doc.modules.items():
        if not any(images.get(name) for name in names):
            continue
        t = shift_degree(d, step, doc.modulus)
        rows: list[dict[int, NovikovElement]] = [{} for _ in doc.modules.get(t, ())]
        for j, src in enumerate(names):
            for elt, tgt in images.get(src, ()):
                rows[position[tgt][1]][j] = elt
        mats[d] = _from_entries(doc.lattice, len(names), rows)
    return mats


def build_complex(doc: ComplexDocument) -> BasedComplex:
    diffs = _place(doc, doc.differential, 1)
    return BasedComplex(doc.lattice, dict(doc.modules), diffs, doc.modulus)


def build_chain_map(doc: ComplexDocument, name: str, cplx: BasedComplex | None = None) -> ChainMap:
    """A named endomorphism of the document's complex, as a chain map."""
    if name not in doc.maps:
        raise KeyError("no map named %r in document" % name)
    if cplx is None:
        cplx = build_complex(doc)
    return ChainMap(cplx, cplx, _place(doc, doc.maps[name], 0))


def _images(cplx: BasedComplex, mats: dict[int, Matrix], step: int) -> dict[str, tuple[Entry, ...]]:
    """Inverse of ``_place``: the image line of each source generator.

    An entry is kept when it is nonzero or carries a cutoff; generators
    whose column keeps no entry get no line.
    """
    images: dict[str, list[Entry]] = {}
    for d, mat in mats.items():
        sources = cplx.generators(d)
        for row, tgt in zip(mat.live, cplx.generators(cplx.shift(d, step))):
            for j, e in row.items():
                images.setdefault(sources[j], []).append((e, tgt))
    return {src: tuple(entries) for src, entries in images.items()}


def document_from_complex(cplx: BasedComplex, maps: dict[str, ChainMap] | None = None) -> ComplexDocument:
    map_blocks: dict[str, dict[str, tuple[Entry, ...]]] = {}
    for name, f in (maps or {}).items():
        if f.source != cplx or f.target != cplx:
            raise ValueError("documents can only carry endomorphisms of their complex")
        map_blocks[name] = _images(cplx, f.matrices, 0)
    return ComplexDocument(
        lattice=cplx.lattice,
        modules=dict(cplx.modules),
        differential=_images(cplx, cplx.differentials, 1),
        maps=map_blocks,
        modulus=cplx.modulus,
    )

"""Line-oriented text format for lattices, complexes and chain maps.

A document holds one lattice, one graded complex and optionally named
degree-zero endomorphisms of it; in memory it is ``ComplexDocument(complex,
maps)``, the ``BasedComplex`` and a name -> ``ChainMap`` dict of its
endomorphisms.  Blocks are introduced by headers::

    [group]             rank, phi, c1 and an optional even grading modulus
    [module <degree>]   one generator name per line
    [differential]      lines  <source>: (<element>)*<target> + ...
    [map <name>]        same line shape, targets in the source's degree

Element literals are sums of ``coeff*g(a1,...,ak)`` terms with exact
rational coefficients; a term supported at the group identity is written
as a bare rational, and a trailing ``@cutoff=p/q`` marks a truncated
element.  ``0`` denotes the zero element or an empty line image.  A line
whose first non-blank character is ``#`` is a comment; there are no
trailing comments, so ``#`` anywhere else is part of the line.  Rendering
drops exact-zero entries such as ``(0)*c``; a truncated zero stays.  The
text rules, shared with the command line's flags: a line ends at LF, CR LF
or CR only, and a number is an ASCII numeral without an underscore.  A
coefficient, ``phi`` entry or cutoff is ``[+-]?[0-9]+(/[0-9]+)?``, never a
decimal or exponent form, and a module degree, like a coordinate, lies in
the box ``|d| < 2**31``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .complexes import BasedComplex, ChainMap, shift_degree
from .lattice import _BOX, Lattice, _ReadOnly
from .linalg import Matrix, _from_entries, _is_live
from .series import NovikovElement

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*$")
_HEADER_RE = re.compile(r"\[\s*([a-z]+)(?:\s+(\S+))?\s*\]$")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_TERM_RE = re.compile(r"(([0-9]+)(?:\s*/\s*([0-9]+))?)\s*(?:\*\s*g\(\s*([^)]*?)\s*\))?")

Entry = tuple[NovikovElement, str]


class DocumentParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__("line %d: %s" % (line, message))


class ComplexDocument(_ReadOnly):
    __slots__ = _fields = ("complex", "maps")


def _lines(text: str) -> list[str]:
    """The lines of ``text``, at least one, each ending at LF, CR LF or CR; a line end closing the text opens none."""
    return text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")


def _numeral(text: str, read=int):
    """``read`` of stripped ``text``, the rule for every number in text: ValueError on non-ASCII or ``_``, which
    int(), Fraction() and float() read as digits or skip, and what ``read`` raises, as on 4301 digits."""
    if not text.isascii() or "_" in text:
        raise ValueError("%r is not an ASCII numeral" % text)
    return read(text.strip())


def _int(text: str, line: int, what: str, field: str | None = None) -> int:
    """``text`` as an int, else the parse error "invalid <what> <field>" at ``line``; ``field`` defaults to ``text``."""
    try:
        return _numeral(text)
    except ValueError:
        raise DocumentParseError(line, "invalid %s %r" % (what, text if field is None else field)) from None


def _parse_rational(text: str, line: int, what: str) -> Fraction:
    """``text`` in the coefficients' grammar, else the parse error "invalid rational ... in <what>" at ``line``:
    Fraction() would also read a decimal or exponent form, with which a short numeral stands for any size."""
    try:
        if _RATIONAL_RE.fullmatch(text.strip()):
            return _numeral(text, Fraction)
    except (ValueError, ZeroDivisionError):
        pass
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
        coeff, num, den, raw = m.groups()
        num = sign * _int(num, line, "coefficient", coeff)
        den = _int(den, line, "coefficient", coeff) if den else 1
        if not den:
            raise DocumentParseError(line, "zero denominator in %r" % coeff)
        if raw is None:
            coords = lattice.identity()
        else:
            coords = tuple(_int(p, line, "coordinates", raw) for p in raw.split(",")) if raw else ()
            if len(coords) != lattice.rank:
                raise DocumentParseError(
                    line,
                    "element has %d coordinates, lattice rank is %d" % (len(coords), lattice.rank),
                )
        terms.append((coords, num if den == 1 else Fraction(num, den)))
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
    rank = _int(raw, ln, "rank")
    if rank < 0:
        raise DocumentParseError(ln, "rank must be non-negative")
    ln, raw = fields.get("phi", (line_no, ""))
    phis = [_parse_rational(p, ln, "phi") for p in raw.split()]
    ln, raw = fields.get("c1", (line_no, ""))
    c1s = [_int(p, ln, "c1 entries", raw) for p in raw.split()]
    if len(phis) != rank or len(c1s) != rank:
        raise DocumentParseError(line_no, "phi and c1 must each list %d entries" % rank)
    modulus = None
    if "modulus" in fields:
        ln, raw = fields["modulus"]
        modulus = _int(raw, ln, "modulus")
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
    declared: dict[str, tuple[int, int, int]] = {}  # generator -> (line, degree, index in its module)
    modules: dict[int, list[str]] = {}
    # Per image block, None for the differential and else the map's name:
    # source degree -> target index -> {source index: live entry}.
    books: dict[str | None, dict[int, dict[int, dict[int, NovikovElement]]]] = {None: {}}
    filled: set[tuple[str | None, str]] = set()  # (block, source) of every image line
    section = degree = arg = None
    for line_no, raw_line in enumerate(_lines(text), 1):
        line = raw_line.strip()
        if line.startswith("#"):
            continue
        if not raw_line.isascii():
            ch = next(c for c in raw_line if not c.isascii())
            raise DocumentParseError(line_no, "non-ASCII character %r (U+%04X)" % (ch, ord(ch)))
        if not line:
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
                degree = _int(arg, line_no, "degree")
                if not -_BOX < degree < _BOX:
                    raise DocumentParseError(line_no, "degree %d outside |d| < 2**31" % degree)
                if modulus is not None and not 0 <= degree < modulus:
                    raise DocumentParseError(line_no, "degree %d outside Z_%d" % (degree, modulus))
                modules.setdefault(degree, [])
            elif section == "map":
                if arg is None or not _NAME_RE.match(arg):
                    raise DocumentParseError(line_no, "[map] header needs a valid name")
                if arg in books:
                    raise DocumentParseError(line_no, "duplicate map %r" % arg)
                books[arg] = {}
            elif section not in ("group", "differential"):
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
            declared[line] = (line_no, degree, len(modules[degree]))
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
            _, d, j = declared[src]
            want = shift_degree(d, step, modulus)
            seen = set()
            for _, target in entries:
                if target not in declared:
                    raise DocumentParseError(line_no, "undeclared generator %r" % target)
                if target in seen:
                    raise DocumentParseError(line_no, "generator %r appears twice" % target)
                seen.add(target)
                if declared[target][1] != want:
                    raise DocumentParseError(line_no, rule % (src, want, target, declared[target][1]))
            if (arg, src) in filled:
                raise DocumentParseError(line_no, "duplicate image line for %r" % src)
            filled.add((arg, src))
            for elt, target in entries:
                if _is_live(elt):
                    books[arg].setdefault(d, {}).setdefault(declared[target][2], {})[j] = elt
        else:
            raise DocumentParseError(line_no, "content before any block header: %r" % line)
    if lattice is None:
        lattice, modulus = _group(fields, line_no)
    names = {d: tuple(gens) for d, gens in modules.items() if gens}

    def matrices(book, step):
        """The blocks of ``book`` from each degree d into degree d + step."""
        mats = {}
        for d, rows in book.items():
            nrows = len(names[shift_degree(d, step, modulus)])
            mats[d] = _from_entries(lattice, len(names[d]), [rows.get(i, {}) for i in range(nrows)])
        return mats

    cplx = BasedComplex(lattice, names, matrices(books.pop(None), 1), modulus)
    return ComplexDocument(cplx, {name: ChainMap(cplx, cplx, matrices(book, 0)) for name, book in books.items()})


def render(doc: ComplexDocument) -> str:
    cplx = doc.complex
    lines = ["[group]", "rank: %d" % cplx.lattice.rank]
    lines.append("phi: %s" % " ".join(str(p) for p in cplx.lattice.phi))
    lines.append("c1: %s" % " ".join(str(c) for c in cplx.lattice.c1))
    if cplx.modulus is not None:
        lines.append("modulus: %d" % cplx.modulus)
    order = []
    for d in cplx.degrees():
        lines += ["", "[module %d]" % d, *cplx.modules[d]]
        order += cplx.modules[d]
    blocks = [("[differential]", _images(cplx, cplx.differentials, 1))]
    blocks += [("[map %s]" % name, _images(cplx, doc.maps[name].matrices, 0)) for name in sorted(doc.maps)]
    for header, images in blocks:
        body = ["%s: %s" % (name, " + ".join("(%s)*%s" % e for e in images[name])) for name in order if name in images]
        # An empty [differential] block is left out; an empty map still names itself.
        if body or header != "[differential]":
            lines += ["", header, *body]
    return "\n".join(lines) + "\n"


def build_complex(doc: ComplexDocument) -> BasedComplex:
    return doc.complex


def build_chain_map(doc: ComplexDocument, name: str, cplx: BasedComplex | None = None) -> ChainMap:
    """A named endomorphism of the document's complex, as a chain map; given
    ``cplx``, the same blocks as an endomorphism of ``cplx``."""
    if name not in doc.maps:
        raise KeyError("no map named %r in document" % name)
    f = doc.maps[name]
    return f if cplx is None else ChainMap(cplx, cplx, f.matrices)


def _images(cplx: BasedComplex, mats: dict[int, Matrix], step: int) -> dict[str, list[Entry]]:
    """The image line of each source generator of ``mats``, the blocks from
    each degree d into degree d + step, with its live entries in row order.

    Generators whose column has no live entry get no line.
    """
    images: dict[str, list[Entry]] = {}
    for d, mat in mats.items():
        sources = cplx.generators(d)
        for row, tgt in zip(mat.live, cplx.generators(cplx.shift(d, step))):
            for j, e in row.items():
                images.setdefault(sources[j], []).append((e, tgt))
    return images


def document_from_complex(cplx: BasedComplex, maps: dict[str, ChainMap] | None = None) -> ComplexDocument:
    """The document of ``cplx`` and its named endomorphisms ``maps``.

    Raises ValueError on a map of other complexes, and on a degree, generator
    or map name that ``render`` could not write so that ``parse`` reads it back.
    """
    maps = dict(maps or {})
    for f in maps.values():
        if f.source != cplx or f.target != cplx:
            raise ValueError("documents can only carry endomorphisms of their complex")
    for d in cplx.degrees():
        if not -_BOX < d < _BOX:
            raise ValueError("degree %d cannot be written in a document" % d)
    for name in [*maps, *(gen for gens in cplx.modules.values() for gen in gens)]:
        if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
            raise ValueError("name %r cannot be written in a document" % (name,))
    return ComplexDocument(cplx, maps)

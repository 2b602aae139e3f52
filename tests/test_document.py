import json
import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from novtorsion import (
    BasedComplex,
    ChainMap,
    DocumentParseError,
    Lattice,
    NovikovElement,
    build_chain_map,
    build_complex,
    document_from_complex,
    milnor_torsion,
    parse_document,
    render_document,
    whitehead_normalize,
)
from novtorsion.document import parse_element

from support import k1_lattice, random_acyclic

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAT = k1_lattice()
ONE = NovikovElement.one(LAT)
Z = NovikovElement.monomial(LAT, 1, (1,))

TWO_TERM = """
[group]
rank: 1
phi: 1
c1: 0

[module 1]
a

[module 2]
b

[differential]
a: (1 - 1*g(1))*b
"""


def test_parse_two_term_and_torsion():
    doc = parse_document(TWO_TERM)
    cplx = build_complex(doc)
    assert cplx.validate().valid
    cls = milnor_torsion(cplx)
    assert cls == whitehead_normalize(ONE - Z)


def test_undeclared_generator_names_line():
    text = TWO_TERM.replace("(1 - 1*g(1))*b", "(1 - 1*g(1))*ghost")
    with pytest.raises(DocumentParseError) as err:
        parse_document(text)
    assert "ghost" in str(err.value)
    assert err.value.line == 14


def test_coordinate_outside_the_box_names_it():
    text = TWO_TERM.replace("(1 - 1*g(1))*b", "(1 - 1*g(1099511627776))*b")
    with pytest.raises(DocumentParseError) as err:
        parse_document(text)
    assert str(err.value) == "line 14: coordinate 1099511627776 is outside the box |x| < 2**31"
    assert err.value.line == 14


def test_duplicate_generator_rejected():
    text = TWO_TERM.replace("[module 2]\nb", "[module 2]\na")
    with pytest.raises(DocumentParseError) as err:
        parse_document(text)
    assert "duplicate" in str(err.value)


def test_wrong_target_degree_rejected():
    text = """
[group]
rank: 1
phi: 1
c1: 0

[module 0]
a

[module 2]
b

[differential]
a: (1)*b
"""
    with pytest.raises(DocumentParseError) as err:
        parse_document(text)
    assert "degree" in str(err.value)


def test_map_block_keeps_degree():
    text = TWO_TERM + "\n[map h]\na: (1)*b\n"
    with pytest.raises(DocumentParseError):
        parse_document(text)


with open(os.path.join(DATA, "parse_errors.json"), encoding="utf-8") as fh:
    PARSE_ERRORS = json.load(fh)


@pytest.mark.parametrize("case", PARSE_ERRORS, ids=[case["name"] for case in PARSE_ERRORS])
def test_parse_error_line_and_message(case):
    """One malformed document per error the parser can raise, pinned to the
    exact line and message."""
    with pytest.raises(DocumentParseError) as err:
        parse_document(case["text"])
    assert (err.value.line, err.value.message) == (case["line"], case["message"])


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("rank: 1", "rank: 1_0", 3, "invalid rank '1_0'"),
        ("phi: 1\n", "phi: 1_0\n", 4, "invalid rational '1_0' in phi"),
        ("c1: 0", "c1: 0_0", 5, "invalid c1 entries '0_0'"),
        ("c1: 0", "c1: 0\nmodulus: 2_0", 6, "invalid modulus '2_0'"),
        ("[module 1]", "[module 1_0]", 7, "invalid degree '1_0'"),
        ("g(1)", "g(1_0)", 14, "invalid coordinates '1_0'"),
        ("g(1))", "g(1) @cutoff=1_0)", 14, "invalid rational '1_0' in cutoff"),
        ("g(1)", "g(\u0663)", 14, "non-ASCII character '\u0663' (U+0663)"),
        ("[module 1]", "[module \u0661]", 7, "non-ASCII character '\u0661' (U+0661)"),
        ("(1 - ", "(\u0661 - ", 14, "non-ASCII character '\u0661' (U+0661)"),
        ("rank: 1", "rank: 1\u00a0", 3, "non-ASCII character '\\xa0' (U+00A0)"),
    ],
    ids=["rank", "phi", "c1", "modulus", "degree", "coordinates", "cutoff", "coordinate-digit", "degree-digit",
         "coefficient-digit", "no-break-space"],
)
def test_numbers_are_ascii_decimal(old, new, line, message):
    """int() and Fraction() would read 1_0 as 10 and any Unicode decimal digit as
    its ASCII one; a comment may still hold either."""
    with pytest.raises(DocumentParseError) as err:
        parse_document(TWO_TERM.replace(old, new, 1))
    assert (err.value.line, err.value.message) == (line, message)
    assert parse_document("# %s\n%s" % (new.replace("\n", " "), TWO_TERM)) == parse_document(TWO_TERM)


@pytest.mark.parametrize(
    "ch, message",
    [(ch, "invalid generator name %r" % ("a%sc" % ch)) for ch in "\x0b\x0c\x1c\x1d\x1e"]
    + [(ch, "non-ASCII character %r (U+%04X)" % (ch, ord(ch))) for ch in "\x85\u2028\u2029"],
    ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
)
def test_only_lf_cr_lf_and_cr_end_a_line(ch, message):
    """str.splitlines() also breaks at these characters; in a document they
    stay inside their line, in a comment too."""
    with pytest.raises(DocumentParseError) as err:
        parse_document(TWO_TERM.replace("[module 1]\na", "[module 1]\na%sc" % ch))
    assert (err.value.line, err.value.message) == (8, message)
    assert parse_document("# x%s[group]\n%s" % (ch, TWO_TERM)) == parse_document(TWO_TERM)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_crlf_and_cr_line_ends_read_as_lf(end):
    for name in FIXTURES:
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            text = fh.read()
        assert parse_document(text.replace("\n", end)) == parse_document(text), name
    for case in PARSE_ERRORS:
        with pytest.raises(DocumentParseError) as err:
            parse_document(case["text"].replace("\n", end))
        assert (err.value.line, err.value.message) == (case["line"], case["message"]), case["name"]


@pytest.mark.parametrize("coeff", ["7" * 5000, "1/" + "7" * 5000], ids=["numerator", "denominator"])
def test_coefficient_python_will_not_read_is_a_parse_error(coeff):
    """int() refuses a numeral of more than 4300 digits, here as in every other field."""
    with pytest.raises(DocumentParseError) as err:
        parse_document(TWO_TERM.replace("1*g(1))", "%s*g(1))" % coeff))
    assert (err.value.line, err.value.message) == (14, "invalid coefficient %r" % coeff)


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("phi: 1\n", "phi: 1e5000\n", 4, "invalid rational '1e5000' in phi"),
        ("phi: 1\n", "phi: 0.5\n", 4, "invalid rational '0.5' in phi"),
        ("phi: 1\n", "phi: 1/2e3\n", 4, "invalid rational '1/2e3' in phi"),
        ("g(1))", "g(1) @cutoff=1e1000000)", 14, "invalid rational '1e1000000' in cutoff"),
        ("g(1))", "g(1) @cutoff=2.5)", 14, "invalid rational '2.5' in cutoff"),
        ("g(1))", "g(1) @cutoff=-.5)", 14, "invalid rational '-.5' in cutoff"),
        ("g(1))", "g(1) @cutoff=inf)", 14, "invalid rational 'inf' in cutoff"),
    ],
    ids=["phi-exponent", "phi-decimal", "phi-denominator-exponent", "cutoff-exponent", "cutoff-decimal",
         "cutoff-bare-decimal", "cutoff-inf"],
)
def test_phi_and_cutoff_read_the_coefficients_grammar(old, new, line, message):
    """[+-]?[0-9]+(/[0-9]+)? as a coefficient is: Fraction() would read a decimal or
    exponent form, so that 1e5000 parsed and then failed to render."""
    with pytest.raises(DocumentParseError) as err:
        parse_document(TWO_TERM.replace(old, new, 1))
    assert (err.value.line, err.value.message) == (line, message)


def test_phi_and_cutoff_keep_signed_integers_and_fractions():
    doc = parse_document(TWO_TERM.replace("phi: 1\n", "phi: +3/2\n").replace("g(1))", "g(1) @cutoff=-7/2)"))
    assert doc.complex.lattice.phi == (Fraction(3, 2),)
    assert doc.complex.differentials[1].live[0][0].cutoff == Fraction(-7, 2)


def test_module_degrees_lie_in_the_coordinate_box():
    """|d| < 2**31, like a coordinate: a 4300-digit degree used to escape as a bare
    ValueError when its differential's message formatted d + 1."""
    for d in (2**31 - 1, -(2**31) + 1):
        doc = parse_document(TWO_TERM + "\n[module %d]\nc\n" % d)
        assert doc.complex.modules[d] == ("c",)
        assert parse_document(render_document(doc)) == doc
    for d in (2**31, -(2**31), int("9" * 4300)):
        with pytest.raises(DocumentParseError) as err:
            parse_document(TWO_TERM.replace("[module 1]", "[module %d]" % d))
        assert (err.value.line, err.value.message) == (7, "degree %d outside |d| < 2**31" % d)
        with pytest.raises(ValueError, match="^degree %d cannot be written in a document$" % d):
            document_from_complex(BasedComplex(LAT, {d: ("a",)}, {}))


def test_parse_element_reads_ascii_numerals_only():
    """parse() refuses non-ASCII lines; parse_element() reads a numeral by the same rule on its own."""
    for text, message in [
        ("\u0661", "malformed term at '\u0661'"),
        ("1*g(\u0663)", "invalid coordinates '\u0663'"),
        ("1 @cutoff=\u0661", "invalid rational '\u0661' in cutoff"),
    ]:
        with pytest.raises(DocumentParseError) as err:
            parse_element(text, LAT, 3)
        assert (err.value.line, err.value.message) == (3, message)


def test_readme_format_example():
    """The example under README's "File format" parses, round-trips, and
    its complex and map are valid."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    text = re.search(r"^## File format\n.*?^```\n(.*?)^```", readme, re.M | re.S).group(1)
    doc = parse_document(text)
    rendered = render_document(doc)
    assert parse_document(rendered) == doc
    assert render_document(parse_document(rendered)) == rendered
    assert "@cutoff=" in text
    cplx = build_complex(doc)
    assert cplx.validate().valid
    assert build_chain_map(doc, "h", cplx).validate().valid


def test_parser_is_total_on_junk():
    for junk in ("", "[", "[group]\nrank: x", "stuff", "[module one]\n", "[group]\nrank: 1"):
        with pytest.raises(DocumentParseError):
            parse_document(junk)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=120))
def test_parser_never_crashes(text):
    try:
        parse_document(text)
    except DocumentParseError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01 ()*+-/g,@cutoff=[]moduleabc:\n", max_size=160))
def test_parser_never_crashes_on_formatlike_text(text):
    try:
        parse_document(text)
    except DocumentParseError:
        pass


def test_identity_term_forms_agree():
    assert parse_element("1*g(0) - 1*g(1)", LAT, 1) == parse_element("1 - 1*g(1)", LAT, 1)


def test_element_literals():
    lat = Lattice(2, [1, Fraction(1, 2)], [0, 0])
    e = parse_element("1 - 3/2*g(1,-2) @cutoff=7/2", lat, 1)
    assert e.coefficient((0, 0)) == 1
    assert e.coefficient((1, -2)) == Fraction(-3, 2)
    assert e.cutoff == Fraction(7, 2)
    assert parse_element("1\t/\t2", lat, 1) == parse_element("1/2", lat, 1)
    assert parse_element("0", lat, 1).is_zero
    zero_trunc = parse_element("0 @cutoff=3", lat, 1)
    assert zero_trunc.is_zero and zero_trunc.cutoff == 3
    with pytest.raises(DocumentParseError):
        parse_element("1 + + 2", lat, 1)
    with pytest.raises(DocumentParseError):
        parse_element("1*g(1)", lat, 1)
    with pytest.raises(DocumentParseError):
        parse_element("1/0", lat, 1)
    with pytest.raises(DocumentParseError):
        parse_element("1 @cutoff=2/0", lat, 1)


def test_zero_image_line():
    doc = parse_document(TWO_TERM.replace("(1 - 1*g(1))*b", "0"))
    assert doc.complex.differentials == {}
    assert build_complex(doc).homology_ranks().ranks == {1: 1, 2: 1}


def test_render_parse_round_trip_fixed():
    doc = parse_document(TWO_TERM)
    text = render_document(doc)
    assert parse_document(text) == doc
    assert render_document(parse_document(text)) == text


def test_round_trip_with_maps_and_modulus():
    text = """
[group]
rank: 2
phi: 1 1/2
c1: 0 2
modulus: 4

[module 0]
x

[module 1]
y

[differential]
x: (1*g(1,0) @cutoff=5)*y

[map h]
x: (2)*x
y: (1 + 1*g(0,2))*y
"""
    doc = parse_document(text)
    assert doc.complex.modulus == 4
    rendered = render_document(doc)
    assert parse_document(rendered) == doc
    f = build_chain_map(doc, "h")
    assert f.block(0).live[0][0] == 2 * NovikovElement.one(doc.complex.lattice)


def test_document_complex_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        cplx, _ = random_acyclic(rng, LAT, pairs=2)
        doc = document_from_complex(cplx)
        again = build_complex(parse_document(render_document(doc)))
        assert again == cplx


def test_maps_must_exist_and_be_endomorphisms():
    doc = parse_document(TWO_TERM)
    with pytest.raises(KeyError, match="no map named 'nonesuch' in document"):
        build_chain_map(doc, "nonesuch")
    cplx = build_complex(doc)
    other = BasedComplex(LAT, {0: ("a",)}, {}, None)
    with pytest.raises(ValueError, match="^documents can only carry endomorphisms of their complex$"):
        document_from_complex(cplx, {"f": ChainMap(cplx, other, {})})


ZEROS = """
[group]
rank: 1
phi: 1
c1: 0

[module 0]
a
b

[module 1]
c
d

[differential]
a: (0)*c + (1*g(1))*d
b: (0 @cutoff=3)*c
"""


def test_parsed_documents_keep_truncated_zeros_and_drop_exact_ones():
    doc = parse_document(ZEROS)
    d0 = doc.complex.differential(0)
    # the exact zero given for (c <- a) is not live; the truncated zero is
    assert [list(row) for row in d0.live] == [[1], [0]]
    assert d0.live[0][1] == NovikovElement.zero(LAT, cutoff=3)
    rendered = render_document(doc)
    assert rendered.endswith("[differential]\na: (1*g(1))*d\nb: (0 @cutoff=3)*c\n")
    assert parse_document(rendered) == doc
    # documents that differ only by an exact-zero entry are equal
    assert parse_document(ZEROS.replace("(0)*c + ", "")) == doc
    assert parse_document(ZEROS.replace("(0 @cutoff=3)*c", "0")) != doc


FIXTURES = sorted(name for name in os.listdir(DATA) if name.endswith(".cplx") and name != "bad_parse.cplx")


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_documents_round_trip(name):
    """Every parseable fixture renders to text that parses back to the same
    document and renders the same way again."""
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    text = render_document(doc)
    assert parse_document(text) == doc
    assert render_document(parse_document(text)) == text


@pytest.mark.parametrize("bad", ["#b", "a b", "1a", "a:b", "", "[x]", "b\n"])
def test_names_the_format_cannot_write_back_are_refused(bad):
    cplx = BasedComplex(LAT, {0: ("a", bad)}, {})
    with pytest.raises(ValueError, match="^name %s cannot be written in a document$" % re.escape(repr(bad))):
        document_from_complex(cplx)
    single = BasedComplex(LAT, {0: ("a",)}, {})
    with pytest.raises(ValueError, match="^name %s cannot be written in a document$" % re.escape(repr(bad))):
        document_from_complex(single, {bad: ChainMap(single, single, {})})
    doc = document_from_complex(single, {"f": ChainMap(single, single, {})})
    assert parse_document(render_document(doc)) == doc

import copy
import glob
import json
import math
import os
import pickle
import subprocess
import sys
import time

import pytest

from novtorsion.cli import (
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VALIDATE,
    main,
)
from novtorsion.document import build_chain_map, build_complex, parse
from novtorsion.lattice import Lattice
from novtorsion.linalg import select_column_pivots
from novtorsion.series import LeadingTerm, NovikovElement
from novtorsion.torsion import BasisChangeClass, whitehead_normalize

from support import assert_torus_report

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fixture(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def report_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.partition(":")[2].strip()
    return None


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", fixture("two_term.cplx"))
    assert code == EXIT_OK
    assert report_value(out, "status") == "valid"
    assert report_value(out, "certified-cutoff") == "exact"


def test_validate_bad_square(capsys):
    code, out = run(capsys, "validate", fixture("bad_square.cplx"))
    assert code == EXIT_VALIDATE
    assert report_value(out, "status") == "invalid"
    assert "failure:" in out


def test_ranks(capsys):
    code, out = run(capsys, "ranks", fixture("two_term.cplx"))
    assert code == EXIT_OK
    assert report_value(out, "rank 1") == "0"
    assert report_value(out, "rank 2") == "0"
    assert report_value(out, "acyclic") == "true"


def test_torsion_fixture_prints_class(capsys):
    code, out = run(capsys, "torsion", fixture("two_term.cplx"))
    assert code == EXIT_OK
    assert report_value(out, "torsion") == "1 - 1*g(1)"
    assert report_value(out, "trivial") == "false"
    assert report_value(out, "cutoff") == "exact"


def test_torsion_deterministic(capsys):
    _, first = run(capsys, "torsion", fixture("two_term.cplx"))
    _, second = run(capsys, "torsion", fixture("two_term.cplx"))
    assert first == second


def test_parse_failure_exit(capsys):
    code, out = run(capsys, "torsion", fixture("bad_parse.cplx"))
    assert code == EXIT_PARSE
    assert report_value(out, "category") == "parse"
    assert "ghost" in out


@pytest.mark.parametrize("command", ["validate", "torsion"])
def test_non_utf8_file_is_a_parse_failure(capsys, tmp_path, command):
    path = tmp_path / "latin1.cplx"
    path.write_bytes(b"\xff\xfe")
    code, out = run(capsys, command, str(path))
    assert (code, out) == (EXIT_PARSE, "status: error\ncategory: parse\nmessage: line 1: byte 0xff is not valid UTF-8\n")
    # lines are numbered as the parser numbers them, a lone CR ending one too
    path.write_bytes(b"[group]\nrank: 1\rphi: \xe9\n")
    code, out = run(capsys, command, str(path))
    assert code == EXIT_PARSE and report_value(out, "message") == "line 3: byte 0xe9 is not valid UTF-8"


def test_missing_file_is_usage(capsys):
    code, out = run(capsys, "torsion", fixture("never_written.cplx"))
    assert code == EXIT_USAGE
    assert report_value(out, "category") == "usage"


def test_bad_flag_is_usage(capsys):
    code, out = run(capsys, "torsion", fixture("two_term.cplx"), "--cutoff", "nope")
    assert code == EXIT_USAGE


def test_torus_example_rejects_bad_grid_and_tolerance(capsys):
    for flag in ("--grid=0x0", "--grid=-2x4", "--grid=3x0", "--tol=nan", "--tol=0", "--tol=-1", "--tol=inf"):
        code, out = run(capsys, "torus-example", flag)
        assert code == EXIT_USAGE, flag
        assert report_value(out, "category") == "usage", flag
        assert report_value(out, "message").startswith("invalid "), flag


def test_torus_example_rejects_unparsable_grid_and_tolerance(capsys):
    for flag, message in (
        ("--grid=abc", "invalid grid 'abc', expected like 12x6"),
        ("--tol=abc", "invalid tolerance 'abc'"),
    ):
        code, out = run(capsys, "torus-example", flag)
        assert code == EXIT_USAGE, flag
        assert report_value(out, "category") == "usage", flag
        assert report_value(out, "message") == message, flag


@pytest.mark.parametrize(
    "argv, message",
    [
        (("torsion", fixture("two_term.cplx"), "--cutoff", "1_0"), "invalid rational '1_0'"),
        (("torsion", fixture("two_term.cplx"), "--cutoff", "\u0661\u0660"), "invalid rational '\u0661\u0660'"),
        (("torus-example", "--b", "1_0/50"), "invalid rational '1_0/50'"),
        (("torus-example", "--grid", "4_8x2_4"), "invalid grid '4_8x2_4', expected like 12x6"),
        (("torus-example", "--tol", "1_0e-10"), "invalid tolerance '1_0e-10'"),
    ],
    ids=["cutoff-underscore", "cutoff-arabic-indic", "b-underscore", "grid-underscore", "tol-underscore"],
)
def test_number_flags_read_numerals_by_the_file_format_rule(capsys, argv, message):
    """Fraction(), int() and float() would read 1_0 as 10 and any Unicode digit as its ASCII one."""
    code, out = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert report_value(out, "category") == "usage"
    assert report_value(out, "message") == message


def test_5000_digit_coefficient_is_a_parse_error(capsys, tmp_path):
    with open(fixture("two_term.cplx"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "long_coefficient.cplx"
    path.write_text(text.replace("(1 - 1*g(1))", "(1 - %s*g(1))" % ("7" * 5000)), encoding="utf-8")
    code, out = run(capsys, "validate", str(path))
    assert code == EXIT_PARSE
    assert report_value(out, "message") == "line 14: invalid coefficient '%s'" % ("7" * 5000)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("phi: 1", "phi: 1e5000", "line 4: invalid rational '1e5000' in phi"),
        ("g(1))", "g(1) @cutoff=1e1000000)", "line 14: invalid rational '1e1000000' in cutoff"),
    ],
    ids=["phi-exponent", "cutoff-exponent"],
)
def test_exponent_forms_in_a_document_are_parse_errors(capsys, tmp_path, old, new, message):
    with open(fixture("two_term.cplx"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "large.cplx"
    path.write_text(text.replace(old, new), encoding="utf-8")
    code, out = run(capsys, "validate", str(path))
    assert code == EXIT_PARSE
    assert report_value(out, "message") == message


def test_4300_digit_degree_with_a_differential_into_degree_0_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "long_degree.cplx"
    path.write_text("[group]\nrank: 1\nphi: 1\nc1: 0\n\n[module %s]\na\n\n[module 0]\nb\n\n[differential]\na: (1)*b\n" % ("9" * 4300))
    code, out = run(capsys, "validate", str(path))
    assert code == EXIT_PARSE
    assert report_value(out, "message") == "line 6: degree %s outside |d| < 2**31" % ("9" * 4300)


def test_torus_example_grid_without_candidates_is_validate(capsys):
    # the 1x1 grid keeps no seed, so Newton converges to no point
    code, out = run(capsys, "torus-example", "--grid", "1x1")
    assert code == EXIT_VALIDATE
    assert report_value(out, "category") == "validate"
    assert report_value(out, "message") == (
        "the search on the 1x1 grid at tol 1e-10 converged to 0 distinct points from 0 seeds; the closed form has 2 orbits"
    )


def test_torus_example_coarse_grid_short_of_the_orbits_is_validate(capsys):
    # at b = 1/5 the 16x8 grid leads Newton to the index-2 orbit only
    code, out = run(capsys, "torus-example", "--grid", "16x8")
    assert code == EXIT_VALIDATE
    assert report_value(out, "category") == "validate"
    assert report_value(out, "message") == (
        "the search on the 16x8 grid at tol 1e-10 converged to 1 distinct point from 4 seeds; the closed form has 2 orbits"
    )


def test_torus_example_loose_tolerance_is_validate(capsys):
    # at tol 0.5 every seed passes as converged before any Newton step
    code, out = run(capsys, "torus-example", "--tol", "0.5")
    assert code == EXIT_VALIDATE
    assert report_value(out, "category") == "validate"
    assert report_value(out, "message") == (
        "the search on the 48x24 grid at tol 0.5 converged to 16 distinct points from 16 seeds; the closed form has 2 orbits"
    )


def test_torus_example_checks_amplitude_after_parsing_grid_and_tolerance(capsys):
    code, out = run(capsys, "torus-example", "--b", "1/10", "--grid", "2x3", "--tol", "1e-6")
    assert code == EXIT_VALIDATE
    assert report_value(out, "category") == "validate"
    assert report_value(out, "message") == (
        "amplitude b=1/10 outside (1/(2 pi), 1/(pi sqrt 2)) ~ (0.159155, 0.225079)"
    )


def test_torus_example_amplitude_beyond_the_float_range_is_validate(capsys):
    code, out = run(capsys, "torus-example", "--b", "1e400")
    assert code == EXIT_VALIDATE
    assert report_value(out, "category") == "validate"
    assert report_value(out, "message") == (
        "amplitude b=%d outside (1/(2 pi), 1/(pi sqrt 2)) ~ (0.159155, 0.225079)" % 10**400
    )


def test_not_acyclic_is_validate_category(capsys):
    code, out = run(capsys, "torsion", fixture("not_acyclic.cplx"))
    assert code == EXIT_VALIDATE
    assert report_value(out, "category") == "validate"


def test_truncated_rank_shortfall_is_indeterminate(capsys):
    code, out = run(capsys, "torsion", fixture("short_tail.cplx"))
    assert code == EXIT_INDETERMINATE
    assert report_value(out, "category") == "indeterminate"
    assert "below weight 1" in report_value(out, "message")


def test_ranks_on_truncated_shortfall_is_indeterminate(capsys):
    code, out = run(capsys, "ranks", fixture("short_tail.cplx"))
    assert code == EXIT_INDETERMINATE
    assert report_value(out, "category") == "indeterminate"
    assert "below weight 1" in report_value(out, "message")
    for name in ("not_acyclic.cplx", "selfmap.cplx"):
        code, out = run(capsys, "ranks", fixture(name))
        assert code == EXIT_OK
        assert report_value(out, "acyclic") == "false"


def test_reports_match_golden(capsys, monkeypatch):
    """Full stdout and exit code of validate, ranks and torsion on every
    fixture, plus the flagged calls, byte for byte against cli_golden.json."""
    monkeypatch.chdir(ROOT)
    with open(os.path.join(DATA, "cli_golden.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    covered = {case["argv"][1] for case in cases if case["argv"][0] == "validate"}
    assert covered == set(glob.glob("tests/data/*.cplx"))
    for case in cases:
        assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"]), case["argv"]


def test_ambiguous_leading_term_is_indeterminate(capsys):
    code, out = run(capsys, "torsion", fixture("ambiguous.cplx"))
    assert code == EXIT_INDETERMINATE
    assert report_value(out, "category") == "indeterminate"


def test_rel_torsion_selfmap(capsys):
    code, out = run(capsys, "rel-torsion", fixture("selfmap.cplx"), "--map", "double")
    assert code == EXIT_OK
    assert report_value(out, "torsion") == "2 - 1*g(1)"
    assert report_value(out, "trivial") == "false"


def test_rel_torsion_missing_map(capsys):
    code, out = run(capsys, "rel-torsion", fixture("selfmap.cplx"), "--map", "nonesuch")
    assert code == EXIT_USAGE


def test_rel_torsion_without_map_flag_is_usage(capsys):
    code, out = run(capsys, "rel-torsion", fixture("selfmap.cplx"))
    assert code == EXIT_USAGE
    assert report_value(out, "category") == "usage"
    assert "--map" in report_value(out, "message")


def test_rel_torsion_of_a_chain_map_on_a_complex_with_nonzero_square(capsys, tmp_path):
    # the identity commutes with any differential, so the cone's failure is the
    # source's own d^2 and is reported as it is, not as a chain-map failure
    with open(fixture("bad_square.cplx"), encoding="utf-8") as fh:
        text = fh.read() + "\n[map h]\na: (1)*a\nb: (1)*b\nc: (1)*c\n"
    path = tmp_path / "bad_square_map.cplx"
    path.write_text(text, encoding="utf-8")
    code, out = run(capsys, "rel-torsion", str(path), "--map", "h")
    assert code == EXIT_VALIDATE
    assert report_value(out, "category") == "validate"
    expected = "complex does not square to zero: d^2 from degree -1 is nonzero at (s_c <- s_a): 1*g(1)"
    assert report_value(out, "message") == expected


def test_torsion_cutoff_flag_controls_truncation(capsys):
    # even-degree source: the torsion is the inverse series, so it truncates
    code, out = run(capsys, "torsion", fixture("even_source.cplx"), "--cutoff", "6")
    assert code == EXIT_OK
    assert report_value(out, "torsion") == "1 + 1*g(1) + 1*g(2) + 1*g(3) + 1*g(4) + 1*g(5)"
    assert report_value(out, "cutoff") == "6"
    assert report_value(out, "trivial") == "false"


def test_torsion_cutoff_beyond_the_expansion_budget_is_validate(capsys):
    # the inverse series would need 10^400 terms; the budget stops it early
    start = time.perf_counter()
    code, out = run(capsys, "torsion", fixture("even_source.cplx"), "--cutoff", "1e400")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATE
    assert report_value(out, "category") == "validate"
    assert report_value(out, "message") == "inverse below weight %d needs more than 100000 terms" % 10**400


def test_torsion_cutoff_past_printable_denominators_is_validate(capsys, tmp_path):
    # the inverse of 1 - 1/3*g(1) below weight 20000 has denominators 3^19999,
    # more digits than Python prints; the check comes before any expansion
    with open(fixture("even_source.cplx"), encoding="utf-8") as fh:
        text = fh.read().replace("(1 - 1*g(1))", "(1 - 1/3*g(1))")
    path = tmp_path / "third.cplx"
    path.write_text(text, encoding="utf-8")
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not 0 < limit < 9542:
        pytest.skip("3^19999 prints under this interpreter's limit")
    start = time.perf_counter()
    code, out = run(capsys, "torsion", str(path), "--cutoff", "20000")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATE
    assert report_value(out, "message") == "inverse below weight 20000 needs 9542-digit denominators, over the %d that print" % limit
    code, out = run(capsys, "torsion", str(path), "--cutoff", "40")
    assert code == EXIT_OK and report_value(out, "cutoff") == "40"


def test_torsion_with_unprintable_numerators_is_validate(capsys, tmp_path):
    # the inverse of 1 - 7*g(1) has integer coefficients 7^k: past some k
    # they have more digits than Python prints, although d = 1 does not
    with open(fixture("even_source.cplx"), encoding="utf-8") as fh:
        text = fh.read().replace("(1 - 1*g(1))", "(1 - 7*g(1))")
    path = tmp_path / "seven.cplx"
    path.write_text(text, encoding="utf-8")
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not 0 < limit < 5000:
        pytest.skip("7^5999 prints under this interpreter's limit")
    code, out = run(capsys, "torsion", str(path), "--cutoff", "6000")
    assert code == EXIT_VALIDATE and report_value(out, "category") == "validate"
    first = math.ceil(limit / math.log10(7))  # the least k with 7^k >= 10^limit
    expected = "the coefficient at g(%d) has %d digits, over the %d that print" % (first, limit + 1, limit)
    assert report_value(out, "message") == expected


def test_modular_grading_through_cli(capsys):
    code, out = run(capsys, "ranks", fixture("mod_two.cplx"))
    assert code == EXIT_OK
    assert report_value(out, "acyclic") == "true"
    code, out = run(capsys, "torsion", fixture("mod_two.cplx"))
    assert code == EXIT_OK
    assert report_value(out, "torsion") == "1 - 1*g(1)"


def test_torus_example_report(capsys):
    code, out = run(capsys, "torus-example")
    assert code == EXIT_OK
    assert report_value(out, "orbit-count") == "2"
    assert report_value(out, "connecting-count") == "2"
    assert report_value(out, "connecting-labels") == "0,1"
    assert report_value(out, "torsion minus") == "1 - 1*g(1)"
    assert report_value(out, "torsion plus") == "1 + 1*g(1)"
    assert report_value(out, "torsion minus trivial") == "false"
    assert {report_value(out, "orbit 0 index"), report_value(out, "orbit 1 index")} == {"1", "2"}
    assert "begin-document minus" in out
    assert "o1: (1 - 1*g(1))*o2" in out


def test_torus_example_matches_golden(capsys):
    """Full torus-example stdout at the default b = 1/5 against torus_golden.txt."""
    code, out = run(capsys, "torus-example")
    assert code == EXIT_OK
    with open(fixture("torus_golden.txt"), encoding="utf-8") as fh:
        assert_torus_report(out, fh.read())


with open(fixture("torus_golden_amplitudes.json"), encoding="utf-8") as fh:
    TORUS_GOLDEN = json.load(fh)


@pytest.mark.parametrize("b", sorted(TORUS_GOLDEN))
def test_torus_example_matches_golden_at_benchmark_amplitudes(capsys, b):
    """The other amplitudes the torus benchmark runs, against torus_golden_amplitudes.json."""
    code, out = run(capsys, "torus-example", "--b", b)
    assert code == EXIT_OK
    assert_torus_report(out, TORUS_GOLDEN[b])


# The tests below run a fresh interpreter: other test modules import numpy
# and the torus module, so in this process both are loaded already.

TORUS_NAMES = (
    "TorusSystem",
    "assemble_floer",
    "conley_zehnder",
    "count_connecting",
    "find_orbits",
    "run_example",
    "torus_torsion",
)

FRESH_IMPORT = """
import sys
import {module}
import novtorsion

loaded = {{"numpy", "novtorsion.torus", "dataclasses", "inspect"}} & set(sys.modules)
assert not loaded, loaded
names = {names!r}
found = {{name: getattr(novtorsion, name) for name in names}}
from novtorsion import complexes, torus
for name in names:
    assert found[name] is getattr(torus, name), name
for name in ("ProfileError", "OrbitSearchError", "DegenerateEndpointError"):
    assert getattr(torus, name) is getattr(complexes, name), name
assert set(names) <= set(dir(novtorsion)), dir(novtorsion)
try:
    novtorsion.nonexistent
except AttributeError as exc:
    assert str(exc) == "module 'novtorsion' has no attribute 'nonexistent'", exc
else:
    raise AssertionError("novtorsion.nonexistent resolved")
"""


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("module", ["novtorsion.cli", "novtorsion"])
def test_import_loads_no_numpy_torus_dataclasses_or_inspect(module):
    proc = fresh_python("-c", FRESH_IMPORT.format(module=module, names=TORUS_NAMES))
    assert proc.returncode == 0, proc.stderr


def test_torus_import_loads_no_dataclasses():
    probe = "import sys, novtorsion.torus; loaded = {'numpy', 'dataclasses', 'inspect'} & set(sys.modules); assert not loaded, loaded"
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr


NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import novtorsion.torus
from novtorsion import cli
sys.exit(cli.main(["torus-example"]))
"""


def test_torus_example_runs_without_numpy():
    proc = fresh_python("-c", NO_NUMPY)
    assert proc.returncode == EXIT_OK, proc.stderr
    with open(fixture("torus_golden.txt"), encoding="utf-8") as fh:
        assert_torus_report(proc.stdout, fh.read())


READ_ONLY_FIELDS = {
    "Lattice": "rank",
    "LeadingTerm": "coefficient",
    "PivotSelection": "pivots",
    "Matrix": "ncols",
    "ValidationReport": "valid",
    "RanksReport": "ranks",
    "BasedComplex": "modulus",
    "ChainMap": "matrices",
    "BasisChangeClass": "representative",
    "WhiteheadClass": "representative",
    "ComplexDocument": "complex",
    "TorusSystem": "b",
    "Arc": "sign",
    "PeriodicOrbit": "monodromy",
    "TorusReport": "orbits",
}


def read_only_record(name, request):
    """An instance of the record class ``name``, built from the fixtures;
    the torus records come from the session's ``torus_report``."""
    with open(fixture("two_term.cplx"), encoding="utf-8") as fh:
        cplx = build_complex(parse(fh.read()))
    with open(fixture("selfmap.cplx"), encoding="utf-8") as fh:
        doc = parse(fh.read())
    d = cplx.differentials[1]
    unit = d.live[0][0]
    return {
        "Lattice": lambda: cplx.lattice,
        "LeadingTerm": unit.leading_term,
        "PivotSelection": lambda: select_column_pivots(cplx.lattice, d),
        "Matrix": lambda: d,
        "ValidationReport": cplx.validate,
        "RanksReport": cplx.homology_ranks,
        "BasedComplex": lambda: cplx,
        "ChainMap": lambda: build_chain_map(doc, "double"),
        "BasisChangeClass": lambda: BasisChangeClass.from_unit(unit),
        "WhiteheadClass": lambda: whitehead_normalize(unit),
        "ComplexDocument": lambda: doc,
        "TorusSystem": lambda: request.getfixturevalue("torus_report").system,
        "Arc": lambda: request.getfixturevalue("torus_report").counts[0],
        "PeriodicOrbit": lambda: request.getfixturevalue("torus_report").orbits[0],
        "TorusReport": lambda: request.getfixturevalue("torus_report"),
    }[name]()


@pytest.mark.parametrize("name,field", READ_ONLY_FIELDS.items())
def test_records_are_read_only(name, field, request):
    record = read_only_record(name, request)
    assert type(record).__name__ == name
    value = getattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot delete field %r" % field):
        delattr(record, field)
    assert getattr(record, field) is value


def hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", READ_ONLY_FIELDS)
def test_records_compare_print_copy_and_pickle_by_their_fields(name, request):
    record = read_only_record(name, request)
    values = [getattr(record, f) for f in record._fields]
    rebuilt = type(record)(*values)
    assert rebuilt == record
    assert record != tuple(values) and not record == tuple(values)
    assert rebuilt == type(record)(**dict(zip(record._fields, values)))
    if all(map(hashable, values)):
        assert hash(rebuilt) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert repr(record) == "%s(%s)" % (name, ", ".join("%s=%r" % (f, v) for f, v in zip(record._fields, values)))
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record


def test_records_print_as_their_dataclasses_did():
    from novtorsion.torus import TorusSystem

    lattice = Lattice(2, [1, "1/2"], [0, 0])
    assert repr(lattice) == "Lattice(rank=2, phi=(Fraction(1, 1), Fraction(1, 2)), c1=(0, 0))"
    assert repr(whitehead_normalize(NovikovElement.one(lattice))) == "WhiteheadClass(representative=<NovikovElement 1>)"
    assert repr(TorusSystem()) == "TorusSystem(b=Fraction(1, 5))"


def test_record_fields_must_each_be_given_once():
    fields = "coefficient, element"
    assert LeadingTerm(element=(0,), coefficient=1) == LeadingTerm(1, (0,))
    for args, kwargs in [((1,), {}), ((1, (0,)), {"sign": 1}), ((1, (0,), 2), {}), ((1,), {"coefficient": 1})]:
        with pytest.raises(TypeError, match="LeadingTerm takes each of the fields %s once" % fields):
            LeadingTerm(*args, **kwargs)


@pytest.mark.parametrize(
    "argv,stdout",
    [
        (
            ["torus-example", "--b", "1/10"],
            "status: error\ncategory: validate\n"
            "message: amplitude b=1/10 outside (1/(2 pi), 1/(pi sqrt 2)) ~ (0.159155, 0.225079)\n",
        ),
        (
            ["torsion", "tests/data/selfmap.cplx"],
            "status: error\ncategory: validate\n"
            "message: homology is nonzero: ranks 0/0 on modules of rank 1/0\n",
        ),
        (
            ["torus-example", "--grid", "1x1"],
            "status: error\ncategory: validate\n"
            "message: the search on the 1x1 grid at tol 1e-10 converged to 0 distinct points from 0 seeds;"
            " the closed form has 2 orbits\n",
        ),
    ],
    ids=["amplitude", "selfmap", "grid"],
)
def test_error_paths_in_a_fresh_interpreter(argv, stdout):
    proc = fresh_python("-m", "novtorsion.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_VALIDATE, stdout, "")

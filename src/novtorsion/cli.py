"""Command line entry points.

Commands read the text document format and print line-oriented
``key: value`` reports; every report carries the certification cutoff it
relied on.  Exit codes: 0 success, 1 usage (bad invocation, missing file),
2 parse failure, 3 validation failure (including non-acyclicity and bad
profile parameters), 4 indeterminate arithmetic (ambiguous leading terms,
uncertifiable pivots, degenerate endpoints).  Flags read numbers by the
file format's rule, ``document._numeral``: ASCII, without an underscore.
"""

from __future__ import annotations

import argparse
import math
from fractions import Fraction

from .complexes import ComplexStructureError, DegenerateEndpointError, NotAcyclicError, OrbitSearchError, ProfileError
from .document import DocumentParseError, _lines, _numeral, document_from_complex, parse, render
from .linalg import IndeterminatePivotError, ShapeError
from .series import AmbiguousLeadingTermError, DEFAULT_CUTOFF, ExpansionLimitError, NotInvertibleError, format_element
from .torsion import milnor_torsion, relative_torsion

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_INDETERMINATE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _rational(text: str) -> Fraction:
    try:
        return _numeral(text, Fraction)
    except (ValueError, ZeroDivisionError):
        raise _UsageError("invalid rational %r" % text)


def _grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = map(_numeral, text.lower().split("x"))
    except ValueError:
        raise _UsageError("invalid grid %r, expected like 12x6" % text)
    if nx < 1 or ny < 1:
        raise _UsageError("invalid grid %r, both counts must be at least 1" % text)
    return nx, ny


def _tolerance(text: str) -> float:
    try:
        tol = _numeral(text, float)
    except ValueError:
        raise _UsageError("invalid tolerance %r" % text)
    if not 0 < tol < math.inf:
        raise _UsageError("invalid tolerance %r, expected a finite positive number" % text)
    return tol


def _build_parser() -> _Parser:
    parser = _Parser(prog="novtorsion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check shapes and that the differential squares to zero")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("ranks", help="homology ranks per degree")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ranks)

    p = sub.add_parser("torsion", help="torsion of an acyclic complex")
    p.add_argument("file")
    p.add_argument("--cutoff", type=_rational, default=DEFAULT_CUTOFF)
    p.set_defaults(func=_cmd_torsion)

    p = sub.add_parser("rel-torsion", help="torsion of a named self chain map")
    p.add_argument("file")
    p.add_argument("--map", required=True, dest="map_name")
    p.add_argument("--cutoff", type=_rational, default=DEFAULT_CUTOFF)
    p.set_defaults(func=_cmd_rel_torsion)

    p = sub.add_parser("torus-example", help="run the torus pipeline end to end")
    p.add_argument("--b", type=_rational, default=Fraction(1, 5))
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--cutoff", type=_rational, default=DEFAULT_CUTOFF)
    p.add_argument("--grid", type=_grid, default=(48, 24))
    p.set_defaults(func=_cmd_torus)
    return parser


def _load(path: str):
    """The parsed document at ``path``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _UsageError("cannot read %s: %s" % (path, exc.strerror or exc))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_lines(data[: exc.start].decode("utf-8") + "."))  # "." holds the bad byte's place
        raise DocumentParseError(line, "byte 0x%02x is not valid UTF-8" % data[exc.start]) from None
    return parse(text)


def _emit(lines):
    for line in lines:
        print(line)


def _cutoff_str(cutoff) -> str:
    return "exact" if cutoff is None else str(cutoff)


def _cmd_validate(args) -> int:
    report = _load(args.file).complex.validate()
    lines = ["file: %s" % args.file]
    lines.append("status: %s" % ("valid" if report.valid else "invalid"))
    lines.append("certified-cutoff: %s" % _cutoff_str(report.cutoff))
    for failure in report.failures:
        lines.append("failure: %s" % failure)
    _emit(lines)
    return EXIT_OK if report.valid else EXIT_VALIDATE


def _cmd_ranks(args) -> int:
    report = _load(args.file).complex.homology_ranks()
    lines = ["file: %s" % args.file]
    for d in sorted(report.ranks):
        lines.append("rank %d: %d" % (d, report.ranks[d]))
    lines.append("acyclic: %s" % ("true" if report.acyclic else "false"))
    lines.append("certified-cutoff: %s" % _cutoff_str(report.cutoff))
    _emit(lines)
    return EXIT_OK


def _torsion_lines(label, cls, prefix=""):
    """Report lines of a torsion class; ``prefix`` leads every key but the first."""
    return [
        "%s: %s" % (label, format_element(cls.representative, cutoff_suffix=False)),
        "%strivial: %s" % (prefix, "true" if cls.trivial else "false"),
        "%scutoff: %s" % (prefix, _cutoff_str(cls.cutoff)),
        "%sleading-coefficient: %s" % (prefix, cls.leading_coefficient),
    ]


def _cmd_torsion(args) -> int:
    cplx = _load(args.file).complex
    lines = ["file: %s" % args.file]
    cls = milnor_torsion(cplx, args.cutoff)
    lines.extend(_torsion_lines("torsion", cls))
    _emit(lines)
    return EXIT_OK


def _cmd_rel_torsion(args) -> int:
    maps = _load(args.file).maps
    if args.map_name not in maps:
        raise _UsageError("document has no map named %r" % args.map_name)
    f = maps[args.map_name]
    try:
        cls = relative_torsion(f, args.cutoff)  # the cone's d^2 = 0 decides the chain-map condition
    except ComplexStructureError:
        report = f.validate()  # only to name the map and a source degree
        if not report.valid:
            raise ComplexStructureError("map %r is not a chain map: %s" % (args.map_name, report.failures[0]))
        raise
    lines = ["file: %s" % args.file, "map: %s" % args.map_name]
    lines.extend(_torsion_lines("torsion", cls))
    _emit(lines)
    return EXIT_OK


def _cmd_torus(args) -> int:
    from .torus import run_example  # only this command compiles torus.py, about 5 ms without a bytecode cache
    report = run_example(b=args.b, tol=args.tol, cutoff=args.cutoff, grid=args.grid)
    lines = [
        "b: %s" % report.system.b,
        "grid: %dx%d" % report.grid,
        "search-steps: %d" % report.search_steps,
        "refine-steps: %d" % report.refine_steps,
        "newton-tol: %g" % args.tol,
        "orbit-count: %d" % len(report.orbits),
    ]
    for i, orbit in enumerate(report.orbits):
        m = orbit.monodromy
        lines.append("orbit %d x: %.9f" % (i, orbit.x))
        lines.append("orbit %d y: %.9f" % (i, orbit.y))
        lines.append("orbit %d index: %d" % (i, orbit.cz_index))
        lines.append("orbit %d det-gap: %.9f" % (i, orbit.det_gap))
        lines.append(
            "orbit %d monodromy: %.9f %.9f %.9f %.9f" % (i, m[0][0], m[0][1], m[1][0], m[1][1])
        )
        lines.append("orbit %d step-halving-gap: %.3e" % (i, orbit.richardson_gap))
    lines.append("connecting-count: %d" % len(report.counts))
    lines.append("connecting-labels: %s" % ",".join(str(arc.winding) for arc in report.counts))
    for convention in ("plus", "minus"):
        cplx = report.complexes[convention]
        low = min(cplx.differentials)
        entry = cplx.differentials[low].live[0][0]  # 1 + z or 1 - z, never an exact zero
        lines.append("differential %s: %s" % (convention, entry))
        label = "torsion " + convention
        lines.extend(_torsion_lines(label, report.torsions[convention], label + " "))
    _emit(lines)
    for convention in ("plus", "minus"):
        print("begin-document %s" % convention)
        print("# sign-convention: %s" % convention)
        print(render(document_from_complex(report.complexes[convention])), end="")
        print("end-document")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        _emit(["status: error", "category: usage", "message: %s" % exc])
        return EXIT_USAGE
    except DocumentParseError as exc:
        _emit(["status: error", "category: parse", "message: %s" % exc])
        return EXIT_PARSE
    except (ComplexStructureError, NotAcyclicError, ProfileError, OrbitSearchError, ShapeError, ExpansionLimitError) as exc:
        _emit(["status: error", "category: validate", "message: %s" % exc])
        return EXIT_VALIDATE
    except (
        IndeterminatePivotError,
        AmbiguousLeadingTermError,
        NotInvertibleError,
        DegenerateEndpointError,
    ) as exc:
        _emit(["status: error", "category: indeterminate", "message: %s" % exc])
        return EXIT_INDETERMINATE


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()

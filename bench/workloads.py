"""The four workloads: their fixed op lists, the calls each op times, and
the check on every answer.

An op is one user-visible job.  A pass runs every op of a workload once,
in order, from a single client that waits for each answer before it sends
the next (closed loop).  Only the call into the program is timed; the
check runs after it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import gen
from novtorsion import (
    ChainMap,
    Lattice,
    NovikovElement,
    build_complex,
    document_from_complex,
    milnor_torsion,
    parse_document,
    relative_torsion,
    render_document,
    run_example,
)
from novtorsion.linalg import IndeterminatePivotError
from novtorsion.series import AmbiguousLeadingTermError, NotInvertibleError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Errors that are the program's honest "cannot certify" answer.
INDETERMINATE = (IndeterminatePivotError, AmbiguousLeadingTermError, NotInvertibleError)


@dataclass
class Outcome:
    ok: bool
    indeterminate: bool = False
    exact: Optional[bool] = None  # None when the answer is not a torsion class
    margin: Optional[Fraction] = None  # certified cutoff minus leading weight
    note: str = ""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    honest: tuple = ()
    data: dict = field(default_factory=dict)
    starts_interpreter: bool = False  # the call runs a fresh interpreter


def run_op(op: Op, clock: Callable[[], float] = time.perf_counter) -> tuple[float, Outcome]:
    """Time one call and check its answer; every error becomes an outcome."""
    t0 = clock()
    try:
        result = op.call()
    except op.honest as exc:
        return clock() - t0, Outcome(True, indeterminate=True, note=type(exc).__name__)
    except Exception as exc:  # counted as a failed op, never raised
        return clock() - t0, Outcome(False, note="%s: %s" % (type(exc).__name__, exc))
    elapsed = clock() - t0
    try:
        return elapsed, op.check(result)
    except Exception as exc:  # a malformed answer fails its check
        return elapsed, Outcome(False, note="check %s: %s" % (type(exc).__name__, exc))


# -- conversions between the generator and the program --------------------------


def program_lattice(lat: gen.Lat) -> Lattice:
    return Lattice(lat.rank, lat.phi, lat.c1)


def program_matrix(mat, lattice: Lattice):
    return tuple(tuple(NovikovElement(lattice, e.terms, e.cutoff) for e in row) for row in mat)


def program_complex(c: gen.Cplx):
    return build_complex(parse_document(gen.complex_text(c)))


def answer(cls, lat: gen.Lat) -> gen.Elem:
    """The program's torsion class as a benchmark series."""
    rep = cls.representative
    return gen.Elem(lat, rep.terms, rep.cutoff)


def lead_weight(a: gen.Elem) -> Fraction:
    return a.min_weight() if a.terms else Fraction(0)


def torsion_outcome(ok: bool, answers, note: str = "") -> Outcome:
    cuts = [a.cutoff - lead_weight(a) for a in answers if a.cutoff is not None]
    return Outcome(ok, exact=not cuts, margin=min(cuts) if cuts else None, note=note)


# -- torsion-exact and torsion-truncated ---------------------------------------------

#: (operation, lattice, degree spread, pairs) and instances per pass.
#: Spread 3 places the two-term pieces over degrees 0..3, giving
#: block-sparse parity matrices; spread 1 puts them all in one degree, so
#: one scrambled block fills the parity matrix.  The cost of one instance
#: varies by 10-30% with the seed, and truncated instances of some shapes
#: (relative k1 pairs 3, k2 pairs 3 and up) cost 0.5x to 2x as much from
#: one seed to the next.  So the median and the tail each fall in the
#: middle of a large group of steady cost, on exact and on truncated
#: inputs, and the unsteady shapes are few and far from both: 30 cheap
#: ops; the median group of 32 (k1 pairs 8, relative k1 pairs 2); 6
#: between; the tail group of 12 (k1 pairs 12); 4 dearer ops, so that the
#: tail (the 11th dearest op of a pass) is about the 7th dearest of the
#: tail group.
TORSION_MIX = (
    [(("milnor", "k1", 3, p), k) for p, k in ((2, 6), (4, 6), (6, 2))]
    + [(("milnor", "k1", 1, p), k) for p, k in ((3, 6), (4, 6), (6, 4))]
    + [(("milnor", "k1", 3, 8), 16), (("relative", "k1", 3, 2), 16)]
    + [(("milnor", "k1", 3, 10), 4), (("milnor", "k2", 3, 2), 2)]
    + [(("milnor", "k1", 3, 12), 12)]
    + [(("milnor", "k1", 3, 14), 1), (("relative", "k1", 3, 4), 1), (("relative", "k2", 3, 2), 1), (("milnor", "k2", 3, 4), 1)]
)
TORSION_SHAPES = [shape for shape, k in TORSION_MIX for _ in range(k)]

LATTICES = {"k1": gen.K1, "k2": gen.K2}

#: Truncation weight above each unit's leading term, in halves: 8 to 16.
#: Shorter tails leave most answers uncertified; the traced run probes them.
TAIL_RANGE = (16, 32)


def torsion_case(seed: int, index: int, shape, tail_range=None) -> dict:
    """Generated inputs of one torsion op, with what its check needs.

    With ``tail_range`` (in halves) every unit is truncated that far above
    its leading term.
    """
    kind, lat_name, spread, pairs = shape
    lat = LATTICES[lat_name]
    rng = random.Random(seed * 1000 + index)
    cplx, odd, even, tails = gen.acyclic(rng, lat, pairs, tail_range, spread=spread)
    case = {"kind": kind, "lat": lat, "spread": spread, "pairs": pairs, "cplx": cplx, "odd": odd, "even": even, "tails": tails}
    texts = [gen.complex_text(cplx)]
    if kind == "relative":
        target, f, g = gen.iso_and_perturbation(rng, cplx)
        case.update(target=target, f=f, g=g)
        texts += [gen.complex_text(target), gen.blocks_text(f), gen.blocks_text(g)]
    case["texts"] = texts
    return case


def _product(lat, units) -> gen.Elem:
    acc = gen.one(lat)
    for u in units:
        acc = acc * u
    return acc


def milnor_check(case) -> Callable[[object], Outcome]:
    """The answer times the even units equals the odd units, below its cutoff.

    With truncated units the answer may not claim a cutoff above the
    weakest unit's, since nothing beyond it is known.
    """
    lat = case["lat"]
    num = _product(lat, case["odd"]).normalized()
    den = _product(lat, case["even"]).normalized()
    ideal = min(case["tails"]) if case["tails"] else None

    def check(cls) -> Outcome:
        a = answer(cls, lat)
        if ideal is not None and (a.cutoff is None or a.cutoff > ideal):
            return torsion_outcome(False, [a], "cutoff %s beyond the inputs' %s" % (a.cutoff, ideal))
        return torsion_outcome((a * den).agree_below(num, a.cutoff), [a])

    return check


def relative_check(case) -> Callable[[object], Outcome]:
    """The iso map has trivial torsion, and so has its homotopy perturbation."""
    lat = case["lat"]
    one = gen.one(lat)

    def check(pair) -> Outcome:
        af, ag = (answer(cls, lat) for cls in pair)
        ok = af.agree_below(one, af.cutoff) and ag.agree_below(one, ag.cutoff)
        bound = gen.min_cut(af.cutoff, ag.cutoff)
        return torsion_outcome(ok and af.agree_below(ag, bound), [af, ag])

    return check


def convert_torsion(cases: list) -> dict:
    """Hand the generated cases to the program: complexes through the text
    format, chain maps through their constructor."""
    for case in cases:
        lattice = program_lattice(case["lat"])
        case["program"] = program_complex(case["cplx"])
        if case["kind"] == "relative":
            target = program_complex(case["target"])
            for key in ("f", "g"):
                mats = {d: program_matrix(m, lattice) for d, m in case[key].items()}
                case[key] = ChainMap(case["program"], target, mats)
    return {"cases": cases, "texts": [t for c in cases for t in c["texts"]]}


def build_torsion(seed: int, truncated: bool) -> dict:
    tails = TAIL_RANGE if truncated else None
    return convert_torsion([torsion_case(seed, i, s, tails) for i, s in enumerate(TORSION_SHAPES)])


def torsion_ops(inputs: dict) -> list[Op]:
    ops = []
    for case in inputs["cases"]:
        name = "%s/k%d/s%d/p%d" % (case["kind"], case["lat"].rank, case["spread"], case["pairs"])
        if case["kind"] == "milnor":
            cplx = case["program"]
            ops.append(Op(name, lambda c=cplx: milnor_torsion(c), milnor_check(case), INDETERMINATE, case))
        else:
            f, g = case["f"], case["g"]
            call = lambda f=f, g=g: (relative_torsion(f), relative_torsion(g))
            ops.append(Op(name, call, relative_check(case), INDETERMINATE, case))
    return ops


# -- torus -------------------------------------------------------------------------

AMPLITUDES = [Fraction(17, 100), Fraction(9, 50), Fraction(1, 5), Fraction(21, 100), Fraction(11, 50)]
TORUS_TORSION = {"plus": {(0,): 1, (1,): 1}, "minus": {(0,): 1, (1,): -1}}


def closed_form_monodromy(b: float, x: float):
    """expm(A) for the co-moving linearization A = [[0, -lam], [-lam'', 0]].

    In coordinates s = y - t the flow is autonomous, the orbits are its
    equilibria (s = 0, lam'(x) = -1), and the monodromy is expm(A).
    """
    c2 = math.cos(2 * math.pi * x)
    p = -(1.0 + b * c2)
    q = (2 * math.pi) ** 2 * b * c2
    k = p * q
    r = math.sqrt(abs(k))
    if k > 0:
        ch, sh = math.cosh(r), math.sinh(r) / r
    elif k < 0:
        ch, sh = math.cos(r), math.sin(r) / r
    else:
        ch, sh = 1.0, 1.0
    return ((ch, sh * p), (sh * q, ch))


def closed_form_gap(b: float, orbit) -> float:
    exp_a = closed_form_monodromy(b, orbit.x)
    gap = max(abs(orbit.monodromy[i][j] - exp_a[i][j]) for i in range(2) for j in range(2))
    equilibrium = abs(1.0 - 2 * math.pi * b * math.sin(2 * math.pi * orbit.x))
    return max(gap, equilibrium)


def torus_check(b: Fraction) -> Callable[[object], Outcome]:
    def check(report) -> Outcome:
        orbits = report.orbits
        notes = []
        if sorted(o.cz_index for o in orbits) != [1, 2]:
            notes.append("indices %s" % [o.cz_index for o in orbits])
        if any(not o.det_gap > 1e-6 for o in orbits):
            notes.append("degenerate orbit")
        if any(closed_form_gap(float(b), o) > 1e-6 for o in orbits):
            notes.append("monodromy differs from expm(A)")
        answers = []
        for convention, want in TORUS_TORSION.items():
            a = answer(report.torsions[convention], gen.K1)
            answers.append(a)
            if a.cutoff is not None or a.terms != want:
                notes.append("torsion %s is %s" % (convention, a.text()))
        return torsion_outcome(not notes, answers, "; ".join(notes))

    return check


def build_torus(seed: int) -> dict:
    k = seed % len(AMPLITUDES)
    amps = AMPLITUDES[k:] + AMPLITUDES[:k]
    return {"amplitudes": amps, "texts": [str(b) for b in amps]}


def torus_ops(inputs: dict) -> list[Op]:
    return [
        Op("torus/b=%s" % b, lambda b=b: run_example(b), torus_check(b), (), {"b": b})
        for b in inputs["amplitudes"]
    ]


# -- documents ----------------------------------------------------------------------

DOC_SIZES = (250, 500, 1000, 2000)
SMALL_DOC_SIZES = (8, 12)
CLI_COMMANDS = ("validate", "ranks", "torsion")
FIXTURES = BENCH / "fixtures"


def round_trip(text: str):
    cplx = build_complex(parse_document(text))
    report = cplx.validate()
    return report.valid, render_document(document_from_complex(cplx))


def round_trip_check(text: str) -> Callable[[object], Outcome]:
    def check(result) -> Outcome:
        valid, out = result
        return Outcome(valid and out == text, note="" if out == text else "render differs from input")

    return check


def run_python(args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the program from this checkout."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_cli(argv) -> subprocess.CompletedProcess:
    return run_python(["-m", "novtorsion.cli", *argv])


def interpreter_seconds() -> float:
    """Wall time of a fresh interpreter that does nothing, started as the
    CLI ops start theirs."""
    t0 = time.perf_counter()
    run_python(["-c", "pass"])
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Import time of the program in a fresh interpreter, timed inside it."""
    probe = "import time; t = time.perf_counter(); import novtorsion; print(time.perf_counter() - t)"
    return float(run_python(["-c", probe]).stdout.split()[-1])


def report_value(out: str, key: str) -> Optional[str]:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.partition(":")[2].strip()
    return None


def cli_check(code: int, key: str, value: str) -> Callable[[object], Outcome]:
    def check(proc) -> Outcome:
        got = (proc.returncode, report_value(proc.stdout, key))
        return Outcome(got == (code, value), note="" if got == (code, value) else "got %s" % (got,))

    return check


def banded_torsion_check(diagonal) -> Callable[[object], Outcome]:
    """Lower-triangular d from even degree: torsion = 1 / prod(diagonal)."""
    den = _product(gen.K2, diagonal).normalized()
    cuts = [e.cutoff - lead_weight(e) for e in diagonal if e.cutoff is not None]
    ideal = min(cuts) if cuts else None

    def check(proc) -> Outcome:
        if proc.returncode == 4 and report_value(proc.stdout, "category") == "indeterminate":
            return Outcome(True, indeterminate=True, note="exit 4")
        if proc.returncode != 0:
            return Outcome(False, note="exit %d" % proc.returncode)
        cut = report_value(proc.stdout, "cutoff")
        a = gen.parse_elem(report_value(proc.stdout, "torsion"), gen.K2, None if cut == "exact" else Fraction(cut))
        if ideal is not None and (a.cutoff is None or a.cutoff > ideal):
            return torsion_outcome(False, [a], "cutoff beyond the inputs'")
        return torsion_outcome((a * den).agree_below(gen.one(gen.K2), a.cutoff), [a])

    return check


def build_documents(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    big = {n: gen.banded_document(rng, n)[0] for n in DOC_SIZES}
    small = {}
    workdir.mkdir(parents=True, exist_ok=True)
    for n in SMALL_DOC_SIZES:
        text, diagonal = gen.banded_document(rng, n)
        path = workdir / ("banded_%d.cplx" % n)
        path.write_text(text)
        small[n] = (path, text, diagonal)
    texts = list(big.values()) + [s[1] for s in small.values()]
    return {"big": big, "small": small, "texts": texts}


def documents_ops(inputs: dict) -> list[Op]:
    ops = [
        Op("roundtrip/n%d" % n, lambda t=t: round_trip(t), round_trip_check(t), (), {"n": n, "text": t})
        for n, t in inputs["big"].items()
    ]
    expected = json.loads((FIXTURES / "expected.json").read_text())
    for fixture, commands in expected.items():
        path = str(FIXTURES / fixture)
        for command, (code, key, value) in commands.items():
            head, *rest = command.split()
            argv = [head, path, *rest]
            ops.append(
                Op(
                    "cli/%s/%s" % (command, fixture),
                    lambda a=argv: run_cli(a),
                    cli_check(code, key, value),
                    data={"argv": argv},
                    starts_interpreter=True,
                )
            )
    for n, (path, _, diagonal) in inputs["small"].items():
        checks = {
            "validate": cli_check(0, "status", "valid"),
            "ranks": cli_check(0, "acyclic", "true"),
            "torsion": banded_torsion_check(diagonal),
        }
        for command in CLI_COMMANDS:
            argv = [command, str(path)]
            call = lambda a=argv: run_cli(a)
            ops.append(Op("cli/%s/banded_%d" % (command, n), call, checks[command], data={"argv": argv}, starts_interpreter=True))
    return ops


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed, workdir) -> inputs, with their texts under "texts"
    ops: Callable  # inputs -> list[Op]


WORKLOADS = {
    "torus": Workload(lambda seed, wd: build_torus(seed), torus_ops),
    "torsion-exact": Workload(lambda seed, wd: build_torsion(seed, False), torsion_ops),
    "torsion-truncated": Workload(lambda seed, wd: build_torsion(seed, True), torsion_ops),
    "documents": Workload(build_documents, documents_ops),
}

"""Traced run: per-layer numbers, timed from the benchmark's own code.

The workload's ops first run untraced, then are replayed as calls into
the public functions of each layer (``src/novtorsion/<layer>.py``); the
difference in wall time is the tracing overhead.  Ring operations
(``NovikovElement.__mul__``, ``invert`` and ``divide``) are counted by
wrappers installed only while ops are replayed.  A fixed sweep then times
each layer by size up to its failure boundary and fills in every layer the
workload's own ops do not reach, so each traced run reports every metric.

A public function that a later version of the program no longer has is
reported absent (its metrics read -1) instead of stopping the run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import statistics
import time
import types
from collections import Counter, defaultdict
from fractions import Fraction

import gen
import workloads as W

DET_SIZES = (2, 4, 6, 8, 10, 12, 14)
DET_BOUNDARY = (15, 16)
PIVOT_SIZES = (8, 16, 24)
CLI_MAIN = ("validate", "ranks", "torsion", "rel-torsion")
TORUS_STAGES = ("check", "find_orbits", "conley_zehnder", "count_connecting", "assemble_floer", "torus_torsion")

#: Every per-layer metric with its unit.  A suffix says how the samples
#: recorded under the name without it are reduced: .calls (count),
#: .busy_s (sum), .p50_s and .s (median), .failed (errors raised).
PER_LAYER = (
    [("series.%s.%s" % (f, m), u) for f in ("mul", "invert", "divide") for m, u in (("calls", "count"), ("busy_s", "s"), ("p50_s", "s"))]
    + [("series.format.busy_s", "s"), ("series.result_terms.max", "count"), ("series.coeff_bits.max", "bits")]
    + [("linalg.determinant.n%d.s" % n, "s") for n in DET_SIZES]
    + [("linalg.determinant.busy_s", "s"), ("linalg.determinant.failed", "count")]
    + [("linalg.select_column_pivots.n%d.s" % n, "s") for n in PIVOT_SIZES]
    + [("linalg.select_column_pivots.busy_s", "s"), ("linalg.select_column_pivots.failed", "count")]
    + [("complexes.%s.busy_s" % f, "s") for f in ("validate", "collapse", "homology_ranks", "mapping_cone")]
    + [
        ("torsion.%s.%s" % (f, m), u)
        for f in ("milnor_torsion", "relative_torsion")
        for m, u in (("calls", "count"), ("busy_s", "s"), ("p50_s", "s"), ("failed", "count"))
    ]
    + [("torsion.whitehead_normalize.busy_s", "s"), ("torsion.indeterminate", "count"), ("torsion.not_acyclic", "count")]
    + [("document.%s.n%d.s" % (f, n), "s") for f in ("parse", "build_complex", "document_from_complex", "render") for n in W.DOC_SIZES]
    + [("cli.import_s", "s"), ("cli.subprocess.p50_s", "s")]
    + [("cli.main.%s.p50_s" % c, "s") for c in CLI_MAIN]
    + [("cli.failed", "count")]
    + [("torus.%s.s" % s, "s") for s in TORUS_STAGES]
    + [("torus.monodromy.steps256.s", "s"), ("torus.monodromy.steps2048.s", "s")]
    + [("torus.orbits.found", "count"), ("torus.step_halving_gap.max", "1"), ("torus.closed_form_gap.max", "1")]
    + [("trace.overhead_s", "s")]
)

#: Plain counts, reported as recorded.
COUNTS = ("torsion.indeterminate", "torsion.not_acyclic", "cli.failed")


def coeff_bits(e) -> int:
    terms = getattr(e, "terms", {})
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values()), default=0)


def _get(owner, attr):
    return owner.get(attr) if isinstance(owner, dict) else owner.__dict__.get(attr)


def _put(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Call records by name: durations, errors, counts and maxima."""

    def __init__(self):
        self.times = defaultdict(list)
        self.failed = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.absent = set()
        self._undo = []

    def fn(self, module: str, name: str):
        """A public function of a layer, or None (recorded absent)."""
        found = getattr(importlib.import_module("novtorsion." + module), name, None)
        if found is None:
            self.absent.add("%s.%s" % (module, name))
        return found

    def call(self, name: str, fn, *args, **kwargs):
        """Time one call; an error counts as failed and propagates."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[name] += 1
            raise
        finally:
            self.times[name].append(time.perf_counter() - t0)

    def at_most(self, name: str, value):
        self.maxima[name] = max(self.maxima[name], value)

    def _wrap(self, owner, attr: str, name: str, bits: bool):
        orig = _get(owner, attr)
        if orig is None:
            self.absent.add(name)
            return
        tracer = self

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.times[name].append(time.perf_counter() - t0)
            tracer.at_most("series.result_terms.max", len(getattr(result, "terms", ())))
            if bits:
                tracer.at_most("series.coeff_bits.max", coeff_bits(result))
            return result

        _put(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    @contextlib.contextmanager
    def ring_counters(self):
        """Count ring operations wherever the program makes them."""
        cls = importlib.import_module("novtorsion.series").NovikovElement
        self._wrap(cls, "__mul__", "series.mul", False)
        self._wrap(cls, "__rmul__", "series.mul", False)
        self._wrap(cls, "invert", "series.invert", True)
        self._wrap(vars(importlib.import_module("novtorsion.series")), "divide", "series.divide", True)
        torsion = vars(importlib.import_module("novtorsion.torsion"))
        if "divide" in torsion:  # torsion calls divide through its own import
            self._wrap(torsion, "divide", "series.divide", True)
        try:
            yield
        finally:
            for owner, attr, orig in reversed(self._undo):
                _put(owner, attr, orig)
            self._undo.clear()


# -- torsion ------------------------------------------------------------------------


def replay_milnor(tr: Tracer, cplx, cutoff):
    """milnor_torsion step by step, as its docstring states.

    validate, collapse, pivots of d0 and d1, the transition columns (image
    columns, then standard vectors), two determinants, divide, normalize.
    Returns None when a function it needs is absent.
    """
    pivots = tr.fn("linalg", "select_column_pivots")
    determinant = tr.fn("linalg", "determinant")
    normalize = tr.fn("torsion", "whitehead_normalize")
    series = importlib.import_module("novtorsion.series")
    if None in (pivots, determinant, normalize, tr.fn("series", "divide")):
        return None
    lattice = cplx.lattice
    report = tr.call("complexes.validate", cplx.validate)
    names0, names1, d0, d1 = tr.call("complexes.collapse", cplx.collapse)
    n0, n1 = len(names0), len(names1)
    sel0 = tr.call("linalg.select_column_pivots", pivots, lattice, d0, ncols=n0)
    sel1 = tr.call("linalg.select_column_pivots", pivots, lattice, d1, ncols=n1)
    if n0 - sel0.rank != sel1.rank or n1 - sel1.rank != sel0.rank:
        return None
    zero, one = series.NovikovElement.zero(lattice), series.NovikovElement.one(lattice)

    def standard(n, j):
        return [one if i == j else zero for i in range(n)]

    def matrix(cols):
        return tuple(tuple(col[i] for col in cols) for i in range(len(cols)))

    even = [[d1[i][j] for i in range(n0)] for j in sel1.columns] + [standard(n0, j) for j in sel0.columns]
    odd = [[d0[i][j] for i in range(n1)] for j in sel0.columns] + [standard(n1, j) for j in sel1.columns]
    det_even = tr.call("linalg.determinant", determinant, lattice, matrix(even))
    det_odd = tr.call("linalg.determinant", determinant, lattice, matrix(odd))
    tr.at_most("series.coeff_bits.max", max(coeff_bits(det_even), coeff_bits(det_odd)))
    rep = series.divide(det_even, det_odd, cutoff)  # counted by the ring wrappers
    certify = [c for c in (report.cutoff, sel0.cutoff, sel1.cutoff) if c is not None]
    if certify:
        rep = rep.truncate(min(certify))
    return tr.call("torsion.whitehead_normalize", normalize, rep)


def _replayed(replay):
    """The replayed class, or None when the replay stops on an error.

    The op's own call then decides the outcome, so an error is counted
    once, by the op.
    """
    try:
        return replay()
    except Exception:  # the op's own call reports it
        return None


def op_class(tr: Tracer, name: str, fn, arg, replayed, mismatches: list, label: str):
    """The op's own answer, formatted as the CLI prints it and compared
    with the replayed one."""
    cls = tr.call(name, fn, arg)
    series = importlib.import_module("novtorsion.series")
    t0 = time.perf_counter()
    series.format_element(cls.representative, cutoff_suffix=False)
    tr.times["series.format"].append(time.perf_counter() - t0)
    if replayed is not None and not replayed == cls:
        mismatches.append(label)
    return cls


def replay_torsion_op(tr: Tracer, op, mismatches: list) -> W.Outcome:
    case = op.data
    cutoff = importlib.import_module("novtorsion.series").DEFAULT_CUTOFF
    try:
        if case["kind"] == "milnor":
            cplx = case["program"]
            replayed = _replayed(lambda: replay_milnor(tr, cplx, cutoff))
            return op.check(op_class(tr, "torsion.milnor_torsion", W.milnor_torsion, cplx, replayed, mismatches, op.name))
        cone = tr.fn("complexes", "mapping_cone")
        answers = []
        for f in (case["f"], case["g"]):
            replayed = None
            if cone is not None:
                c = tr.call("complexes.mapping_cone", cone, f)
                replayed = _replayed(lambda: replay_milnor(tr, c, cutoff))
            answers.append(op_class(tr, "torsion.relative_torsion", W.relative_torsion, f, replayed, mismatches, op.name))
        return op.check(tuple(answers))
    except W.INDETERMINATE as exc:
        tr.counts["torsion.indeterminate"] += 1
        return W.Outcome(True, indeterminate=True, note=type(exc).__name__)
    except Exception as exc:  # counted as a failed op; the run goes on
        if type(exc).__name__ == "NotAcyclicError":
            tr.counts["torsion.not_acyclic"] += 1
        return W.Outcome(False, note="%s: %s" % (type(exc).__name__, exc))


# -- torus --------------------------------------------------------------------------


def replay_torus_op(tr: Tracer, b) -> W.Outcome:
    """run_example stage by stage, plus single-point monodromy integrations."""
    torus = importlib.import_module("novtorsion.torus")
    system = torus.TorusSystem(b)
    tr.call("torus.check", system.check)
    orbits = tr.call("torus.find_orbits", torus.find_orbits, system)
    for orbit in orbits:
        tr.call("torus.conley_zehnder", torus.conley_zehnder, orbit.variational_path)
        for steps in (256, 2048):
            tr.call("torus.monodromy.steps%d" % steps, torus.monodromy, system, (orbit.x, orbit.y), steps)
        tr.at_most("torus.step_halving_gap.max", orbit.richardson_gap)
        tr.at_most("torus.closed_form_gap.max", W.closed_form_gap(float(b), orbit))
    tr.times["torus.orbits.found"].append(len(orbits))
    counts = tr.call("torus.count_connecting", torus.count_connecting, system)
    torsions = {}
    for convention in ("plus", "minus"):
        cplx = tr.call("torus.assemble_floer", torus.assemble_floer, system, convention, orbits, counts)
        torsions[convention] = tr.call("torus.torus_torsion", torus.torus_torsion, system, convention, cplx)
    return W.torus_check(b)(types.SimpleNamespace(orbits=orbits, torsions=torsions))


# -- documents and cli ------------------------------------------------------------------


def replay_round_trip(tr: Tracer, n: int, text: str) -> W.Outcome:
    doc_mod = importlib.import_module("novtorsion.document")
    doc = tr.call("document.parse.n%d" % n, doc_mod.parse, text)
    cplx = tr.call("document.build_complex.n%d" % n, doc_mod.build_complex, doc)
    report = tr.call("complexes.validate", cplx.validate)
    back = tr.call("document.document_from_complex.n%d" % n, doc_mod.document_from_complex, cplx)
    out = tr.call("document.render.n%d" % n, doc_mod.render, back)
    return W.Outcome(report.valid and out == text, note="" if out == text else "render differs")


def replay_cli_op(tr: Tracer, op, mismatches: list) -> W.Outcome:
    """The command through a subprocess, as the op runs it, then in process
    through cli.main, then its layers one by one."""
    argv = op.data["argv"]
    outcomes = [op.check(tr.call("cli.subprocess", W.run_cli, argv))]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call("cli.main.%s" % argv[0], tr.fn("cli", "main"), list(argv))
    outcomes.append(op.check(types.SimpleNamespace(returncode=code, stdout=buf.getvalue())))
    tr.counts["cli.failed"] += sum(not o.ok for o in outcomes)
    doc_mod = importlib.import_module("novtorsion.document")
    try:
        with open(argv[1], encoding="utf-8") as fh:
            doc = doc_mod.parse(fh.read())
        cplx = doc_mod.build_complex(doc)
        if argv[0] == "validate":
            tr.call("complexes.validate", cplx.validate)
        elif argv[0] == "ranks":
            tr.call("complexes.homology_ranks", cplx.homology_ranks)
        elif argv[0] == "torsion":
            cutoff = importlib.import_module("novtorsion.series").DEFAULT_CUTOFF
            replayed = _replayed(lambda: replay_milnor(tr, cplx, cutoff))
            op_class(tr, "torsion.milnor_torsion", W.milnor_torsion, cplx, replayed, mismatches, op.name)
        else:
            f = doc_mod.build_chain_map(doc, argv[3], cplx)
            op_class(tr, "torsion.relative_torsion", W.relative_torsion, f, None, mismatches, op.name)
    except W.INDETERMINATE:
        tr.counts["torsion.indeterminate"] += 1
    except Exception:  # several fixtures are invalid inputs on purpose
        pass
    return min(outcomes, key=lambda o: o.ok)


# -- sweeps ------------------------------------------------------------------------------


def sweep_linalg(tr: Tracer, seed: int):
    """determinant on dense integer matrices, n = 2..16, and pivot
    selection on banded rank-2 matrices (bandwidth 2), n = 8..24.

    Sizes 15 and 16 are past the determinant's 14x14 cap; the ShapeError
    they raise is counted in linalg.determinant.failed.
    """
    rng = random.Random(seed)
    determinant = tr.fn("linalg", "determinant")
    if determinant is not None:
        series = importlib.import_module("novtorsion.series")
        lattice = W.program_lattice(gen.K1)
        for n in DET_SIZES + DET_BOUNDARY:
            rows = tuple(
                tuple(series.NovikovElement.monomial(lattice, rng.choice([-2, -1, 1, 2]), (0,)) for _ in range(n))
                for _ in range(n)
            )
            t0 = time.perf_counter()
            try:
                tr.call("linalg.determinant", determinant, lattice, rows)
            except Exception:  # counted in linalg.determinant.failed
                continue
            tr.times["linalg.determinant.n%d" % n].append(time.perf_counter() - t0)
    pivots = tr.fn("linalg", "select_column_pivots")
    if pivots is not None:
        for n in PIVOT_SIZES:
            cplx = W.build_complex(W.parse_document(gen.banded_document(rng, n, band=2)[0]))
            d0 = cplx.collapse()[2]
            t0 = time.perf_counter()
            try:
                tr.call("linalg.select_column_pivots", pivots, cplx.lattice, d0, ncols=n)
            except Exception:  # counted in linalg.select_column_pivots.failed
                continue
            tr.times["linalg.select_column_pivots.n%d" % n].append(time.perf_counter() - t0)


#: Small exact ops, short-tailed truncated ops (most end uncertified) and
#: complexes with 15 and 16 generators per parity, past the determinant cap.
PROBE_SHAPES = [
    (("milnor", "k1", 3, 4), None),
    (("milnor", "k2", 3, 4), None),
    (("relative", "k1", 3, 2), None),
    (("milnor", "k1", 3, 6), (2, 6)),
    (("milnor", "k1", 1, 4), (2, 6)),
    (("milnor", "k1", 3, 15), None),
    (("milnor", "k1", 3, 16), None),
]


def sweep_torsion(tr: Tracer, seed: int, mismatches: list):
    cases = [W.torsion_case(seed, 900 + i, shape, tails) for i, (shape, tails) in enumerate(PROBE_SHAPES)]
    for op in W.torsion_ops(W.convert_torsion(cases)):
        replay_torsion_op(tr, op, mismatches)


def sweep_cli(tr: Tracer, mismatches: list):
    """Each CLI command the workload's ops did not run, on a fixture."""
    two_term = str(W.FIXTURES / "two_term.cplx")
    calls = [
        (["validate", two_term], W.cli_check(0, "status", "valid")),
        (["ranks", two_term], W.cli_check(0, "acyclic", "true")),
        (["torsion", two_term], W.cli_check(0, "torsion", "1 - 1*g(1)")),
        (["rel-torsion", str(W.FIXTURES / "selfmap.cplx"), "--map", "double"], W.cli_check(0, "torsion", "2 - 1*g(1)")),
    ]
    for argv, check in calls:
        if not tr.times.get("cli.main.%s" % argv[0]):
            replay_cli_op(tr, W.Op("cli/" + argv[0], None, check, (), {"argv": argv}), mismatches)


# -- the traced run -------------------------------------------------------------------------


def traced_run(ops, seed: int, seconds: float, import_rounds) -> dict:
    tr = Tracer()
    mismatches: list = []
    # Untraced twin: whole ops from the start of the pass while their time
    # stays under twice the run length (a whole pass, except for torus).
    chosen, untraced = [], 0.0
    for op in ops:
        if chosen and untraced >= 2 * seconds:
            break
        elapsed, _ = W.run_op(op)
        chosen.append(op)
        untraced += elapsed

    outcomes = []
    t0 = time.perf_counter()
    with tr.ring_counters():
        for op in chosen:
            kind = op.name.split("/")[0]
            if kind in ("milnor", "relative"):
                outcomes.append(replay_torsion_op(tr, op, mismatches))
            elif kind == "torus":
                outcomes.append(replay_torus_op(tr, op.data["b"]))
            elif kind == "roundtrip":
                outcomes.append(replay_round_trip(tr, op.data["n"], op.data["text"]))
            else:
                outcomes.append(replay_cli_op(tr, op, mismatches))
    traced = time.perf_counter() - t0

    with tr.ring_counters():
        sweep_torsion(tr, seed, mismatches)
    sweep_linalg(tr, seed)
    sweep_cli(tr, mismatches)
    if not tr.times.get("document.parse.n%d" % W.DOC_SIZES[-1]):
        rng = random.Random(seed)
        for n in W.DOC_SIZES:
            replay_round_trip(tr, n, gen.banded_document(rng, n)[0])
    if not tr.times.get("torus.find_orbits"):
        replay_torus_op(tr, Fraction(1, 5))
    tr.times["cli.import"] = list(import_rounds)
    tr.times["trace.overhead"] = [traced - untraced]

    metrics = {name: {"value": value(tr, name), "unit": unit} for name, unit in PER_LAYER}
    report = {
        "replayed_ops": len(chosen),
        "untraced_s": untraced,
        "traced_s": traced,
        "replay_mismatches": mismatches,
        "absent": sorted(tr.absent),
        "failures": sorted({"%s: %s" % (op.name, o.note) for op, o in zip(chosen, outcomes) if not o.ok}),
        "metrics": metrics,
    }
    failed = sum(not o.ok for o in outcomes) + len(mismatches)
    return {"metrics": metrics, "report": report, "attempted": len(chosen), "failed": failed}


def value(tr: Tracer, name: str):
    """One metric from the records; -1 when a function it needs is absent."""
    if name in COUNTS:
        return tr.counts[name]
    if name.endswith(".max"):
        return float(tr.maxima[name])
    base, _, stat = name.rpartition(".")
    if stat.endswith("_s") and stat not in ("busy_s", "p50_s"):
        base, stat = name[: -len("_s")], "s"  # cli.import_s, trace.overhead_s
    if name == "torus.orbits.found":
        base, stat = "torus.orbits.found", "s"
    if any(base.startswith(a) for a in tr.absent):
        return -1
    samples = tr.times.get(base, [])
    if stat == "calls":
        return len(samples)
    if stat == "failed":
        return tr.failed[base]
    if stat == "busy_s":
        return sum(samples)
    return statistics.median(samples) if samples else -1

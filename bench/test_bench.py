"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SEED = 7


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = BENCH.parent / ".bench_tmp" / ("tests-%d" % id(object()))
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    try:
        path.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def small_torsion_ops(truncated: bool):
    shapes = [("milnor", "k1", 3, 2), ("milnor", "k2", 3, 2), ("milnor", "k1", 1, 3), ("relative", "k1", 3, 2)]
    tails = W.TAIL_RANGE if truncated else None
    return W.torsion_ops(W.convert_torsion([W.torsion_case(SEED, i, s, tails) for i, s in enumerate(shapes)]))


@pytest.mark.parametrize("truncated", [False, True])
def test_torsion_ops_pass_their_checks(truncated):
    for op in small_torsion_ops(truncated):
        _, outcome = W.run_op(op)
        assert outcome.ok, (op.name, outcome.note)
        if not outcome.indeterminate:
            assert outcome.exact is not None


def test_torsion_replay_matches_the_program():
    tr = replay.Tracer()
    mismatches = []
    with tr.ring_counters():
        outcomes = [replay.replay_torsion_op(tr, op, mismatches) for op in small_torsion_ops(False)]
    assert all(o.ok for o in outcomes)
    assert mismatches == []
    assert tr.times["series.mul"] and tr.times["linalg.determinant"]


def test_replay_marks_a_missing_function_absent(monkeypatch):
    import novtorsion.linalg

    monkeypatch.delattr(novtorsion.linalg, "determinant")
    tr = replay.Tracer()
    with tr.ring_counters():
        outcome = replay.replay_torsion_op(tr, small_torsion_ops(False)[0], [])
    assert outcome.ok
    assert "linalg.determinant" in tr.absent
    assert replay.value(tr, "linalg.determinant.busy_s") == -1


@pytest.fixture(scope="module")
def coarse_torus():
    """run_example at b = 1/5 with fewer integration steps than the workload."""
    return W.run_example(Fraction(1, 5), search_steps=128, refine_steps=256)


def test_torus_op_passes_its_check_at_a_coarse_size(coarse_torus):
    assert W.torus_check(Fraction(1, 5))(coarse_torus).ok


def test_documents_ops_pass_their_checks(workdir):
    rng = random.Random(SEED)
    text, _ = gen.banded_document(rng, 20)
    assert W.round_trip_check(text)(W.round_trip(text)).ok
    small, diagonal = gen.banded_document(rng, 6)
    path = workdir / "banded.cplx"
    path.write_text(small)
    assert W.banded_torsion_check(diagonal)(W.run_cli(["torsion", str(path)])).ok
    expected = json.loads((W.FIXTURES / "expected.json").read_text())
    code, key, value = expected["two_term.cplx"]["torsion"]
    assert W.cli_check(code, key, value)(W.run_cli(["torsion", str(W.FIXTURES / "two_term.cplx")])).ok


def _answer(lat, terms, cutoff=None):
    return types.SimpleNamespace(representative=types.SimpleNamespace(terms=terms, cutoff=cutoff))


def test_corrupted_answers_are_counted_as_failed(coarse_torus):
    ops = small_torsion_ops(False)
    milnor, relative = ops[0], ops[-1]
    ident = milnor.data["lat"].identity()
    assert not milnor.check(_answer(milnor.data["lat"], {ident: Fraction(7, 3)})).ok
    bad = _answer(relative.data["lat"], {ident: Fraction(1), (1,): Fraction(1)})
    good = _answer(relative.data["lat"], {ident: Fraction(1)})
    assert not relative.check((good, bad)).ok
    assert relative.check((good, good)).ok

    text, _ = gen.banded_document(random.Random(SEED), 10)
    assert not W.round_trip_check(text)((True, text.replace("x1", "x01", 1))).ok
    assert not W.cli_check(0, "status", "valid")(types.SimpleNamespace(returncode=3, stdout="status: valid\n")).ok

    swapped = {"plus": coarse_torus.torsions["minus"], "minus": coarse_torus.torsions["minus"]}
    report = types.SimpleNamespace(orbits=coarse_torus.orbits, torsions=swapped)
    assert not W.torus_check(Fraction(1, 5))(report).ok

    def broken():
        raise ValueError("boom")

    samples = [(milnor, *W.run_op(W.Op("broken", broken, milnor.check)), 1.0), (milnor, *W.run_op(milnor), 1.0)]
    _, full = run.end_to_end(samples, 2, [(0.1, 1.0)], [run.REF_SECONDS])
    assert full["fail_frac"]["value"] == 0.5


def test_truncated_answer_may_not_claim_more_than_its_inputs():
    op = small_torsion_ops(True)[0]
    ident = op.data["lat"].identity()
    assert not op.check(_answer(op.data["lat"], {ident: Fraction(1)}, None)).ok


@pytest.mark.parametrize("name", ["torsion-exact", "torsion-truncated", "torus", "documents"])
def test_seed_reproduces_the_inputs(name, workdir):
    build = W.WORKLOADS[name].build
    first = gen.fingerprint(build(3, workdir / "a")["texts"])
    assert first == gen.fingerprint(build(3, workdir / "b")["texts"])
    assert first != gen.fingerprint(build(4, workdir / "c")["texts"])


def test_parse_elem_inverts_text():
    lat = gen.K2
    e = gen.Elem(lat, {(0, 0): Fraction(-3, 2), (1, -1): Fraction(2), (-2, 3): Fraction(1, 3)}, Fraction(9, 2))
    back = gen.parse_elem(e.text(), lat)
    assert back.terms == e.terms and back.cutoff == e.cutoff


def test_tail_percentile_leaves_ten_ops_of_a_pass_beyond_it():
    assert run.tail_percentile(5) == 100.0
    pct = run.tail_percentile(40)
    values = list(range(1, 41))
    assert run.nearest_rank(values, pct) == 30
    assert run.nearest_rank(values * 3, pct) == 30


def test_speed_probe_scales_a_call_and_leaves_its_samples_out():
    probe = run.SpeedProbe()
    span = 3 * run.SAMPLE_PERIOD

    def busy(clock):
        t0, end = clock(), time.perf_counter() + span
        while time.perf_counter() < end:
            pass
        return clock() - t0

    elapsed, scale = probe.measure(busy)
    assert len(probe.window) >= 4  # before, at least two during, after
    assert elapsed < span and scale > 0
    assert scale == run.REF_SECONDS * statistics.mean(1 / r for r in probe.window)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in replay.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in replay.PER_LAYER]
    bounded, _ = run.end_to_end([(None, 0.5, W.Outcome(True), 1.0)] * 3, 3, [(0.1, 1.0)], [run.REF_SECONDS])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in bounded.items()}
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)


def test_missing_program_source_exits_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-src")
    assert run.main(["--workload", "torus", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""

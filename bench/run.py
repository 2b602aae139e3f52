"""Benchmark of novtorsion: four closed-loop workloads, one client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src``.  The inputs come from the seed alone.  With
``--trace 0`` the run measures whole passes over the workload's op list
for about ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it replays the ops as calls into each layer's public
functions and reports per-layer metrics.  The next to last line of
standard output is a detailed report; the last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_ROUNDS = 3

#: The times of the result line are scaled to the speed at which the
#: reference product takes this long.  The hosts this runs on are shared,
#: and their speed jumps by up to 1.7x within seconds, so every timed call
#: is scaled by the reference's speed around and during that call.
REF_SECONDS = 0.01

#: While a call is timed, the reference also runs every SAMPLE_PERIOD
#: seconds from an interval timer; its time is left out of the call's.
SAMPLE_PERIOD = 0.5

#: Ops that start an interpreter are scaled by a second reference, the
#: start of an idle interpreter (workloads.interpreter_seconds), which takes
#: this long when the first one takes REF_SECONDS.  A CLI op speeds up by
#: 1.4x where work inside one process speeds up by 1.75x, so the first
#: reference put CLI ops 22% apart between a fast and a slow host; this one
#: keeps them within 4%.
REF_INTERPRETER_SECONDS = 0.057

#: Factors of the reference product: fixed, whatever the seed.
REF_UNITS = [gen.rand_unit(random.Random(0), gen.K2, i, None) for i in range(6)] * 2


def reference_seconds() -> float:
    """One timing of a fixed product of Laurent series.

    It uses the benchmark's own arithmetic (gen.py), not the program, and
    its dict-of-Fraction work slows down with the host as the program's
    does, numpy parts included, within a few percent; a loop of bare
    Fraction additions was off by 7-9%.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = gen.one(gen.K2)
        for u in REF_UNITS:
            acc = acc * u
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """The host's speed around and during each timed call, by a reference.

    ``measure(run)`` times ``reference`` before the call (the timing after
    the previous call serves), every SAMPLE_PERIOD seconds during it if
    ``sampled``, and after it.  It returns the call's value and its scale:
    ``nominal`` times the mean of 1 / timing, so that each stretch of the
    call counts at the speed measured in it.  ``run`` gets a clock that
    stands still while the reference runs inside the call.
    """

    def __init__(self, reference=reference_seconds, nominal: float = REF_SECONDS, sampled: bool = True):
        self.reference = reference
        self.nominal = nominal
        self.sampled = sampled
        self.refs: list = []
        self.window: list = []
        self.last = None
        self.paused = 0.0
        if sampled:
            signal.signal(signal.SIGALRM, self._sample)

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.window.append(self.reference())
        self.paused += time.perf_counter() - t0

    def measure(self, run):
        if self.last is None:
            self.last = self.reference()
            self.refs.append(self.last)
        self.window = [self.last]
        if self.sampled:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            value = run(self.clock)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.last = self.reference()
        self.window.append(self.last)
        self.refs.extend(self.window[1:])
        return value, self.nominal * statistics.mean(1 / r for r in self.window)


def setup(build, import_seconds, seed: int, workdir: Path, probe: SpeedProbe):
    """Import plus input generation, SETUP_ROUNDS times.

    Returns (inputs of the last round, (set-up seconds, scale) per round,
    import seconds per round).
    """
    rounds, imports = [], []
    inputs = None

    def one_round(clock):
        imp = import_seconds()
        t0 = clock()
        built = build(seed, workdir)
        return imp, built, imp + clock() - t0

    for _ in range(SETUP_ROUNDS):
        (imp, inputs, total), scale = probe.measure(one_round)
        rounds.append((total, scale))
        imports.append(imp)
    return inputs, rounds, imports


def tail_percentile(pass_len: int) -> float:
    """Highest percentile with at least ten ops of one pass beyond it.

    Fixed by the op list, so it does not move with the number of passes a
    run completes; 100 (the maximum) when a pass has fewer than 20 ops.
    """
    if pass_len < 20:
        return 100.0
    return 100.0 * (pass_len - 10) / pass_len


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1))
    return ordered[k]


def closed_loop(ops, seconds: float, run_op, probe: SpeedProbe, interpreter_probe: SpeedProbe):
    """Whole passes over ``ops`` while another pass fits in ``seconds``.

    Returns ((op, seconds, outcome, scale) per op, passes).
    """
    samples = []
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for op in ops:
            timer = interpreter_probe if op.starts_interpreter else probe
            (elapsed, outcome), scale = timer.measure(lambda clock: run_op(op, clock))
            samples.append((op, elapsed, outcome, scale))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            return samples, passes


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples, pass_len: int, setup_rounds, refs) -> tuple[dict, dict]:
    """(bounded metrics for the result line, every metric for the report).

    ``samples`` holds (op, seconds, outcome, scale) and ``setup_rounds``
    (seconds, scale); each time is multiplied by its scale, and the report
    keeps each unscaled value under "raw".
    """
    raw_times = [t for _, t, _, _ in samples]
    times = [t * k for _, t, _, k in samples]
    setup_times = [t * k for t, k in setup_rounds]
    outcomes = [o for _, _, o, _ in samples]
    pct = tail_percentile(pass_len)
    answers = [o for o in outcomes if o.exact is not None and o.ok]
    decided = [o for o in outcomes if o.exact is not None or o.indeterminate]
    margins = [float(o.margin) for o in outcomes if o.margin is not None and o.ok]
    bounded = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(nearest_rank(times, pct), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    full = dict(bounded)
    full["op_tail_s"] = dict(bounded["op_tail_s"], percentile=pct, samples=len(times), raw=nearest_rank(raw_times, pct))
    full["op_p50_s"] = dict(bounded["op_p50_s"], samples=len(times), raw=statistics.median(raw_times))
    full["ops_per_s"] = dict(bounded["ops_per_s"], raw=len(raw_times) / sum(raw_times))
    full["setup_s"] = dict(bounded["setup_s"], samples=len(setup_rounds), raw=statistics.median(t for t, _ in setup_rounds))
    full["reference_s"] = dict(metric(statistics.median(refs), "s"), samples=len(refs))
    full["fail_frac"] = metric(sum(not o.ok for o in outcomes) / len(outcomes), "1")
    full["exact_frac"] = metric(sum(o.exact for o in answers) / len(answers) if answers else None, "1")
    full["certified_frac"] = metric(
        sum(not o.indeterminate for o in decided) / len(decided) if decided else None, "1"
    )
    full["cutoff_margin"] = metric(statistics.median(margins) if margins else None, "weight")
    return bounded, full


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "novtorsion" / "__init__.py").is_file():
        print("bench: no program source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("bench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # One CPU for the benchmark and the interpreters it starts: the host's
    # speed changes per CPU, so the reference must run where the ops run.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workdir = ROOT / ".bench_tmp" / str(os.getpid())
    probe = SpeedProbe()
    try:
        inputs, setup_rounds, import_rounds = setup(workload.build, workloads.import_seconds, args.seed, workdir, probe)
        ops = workload.ops(inputs)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "mode": "closed loop, one client, one process",
            "inputs_sha256": gen.fingerprint(inputs["texts"]),
            "machine": dict(machine_info(), pinned_cpu=cpu),
        }
        if args.trace:
            import replay

            result = replay.traced_run(ops, args.seed, args.seconds, import_rounds)
            report.update(result["report"])
            metrics = result["metrics"]
            attempted, failed = result["attempted"], result["failed"]
        else:
            interpreter_probe = SpeedProbe(workloads.interpreter_seconds, REF_INTERPRETER_SECONDS, sampled=False)
            samples, passes = closed_loop(ops, args.seconds, workloads.run_op, probe, interpreter_probe)
            metrics, full = end_to_end(samples, len(ops), setup_rounds, probe.refs)
            attempted = len(samples)
            failed = sum(not o.ok for _, _, o, _ in samples)
            report.update(
                passes=passes,
                ops_per_pass=len(ops),
                metrics=full,
                failures=sorted({"%s: %s" % (op.name, o.note) for op, _, o, _ in samples if not o.ok}),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

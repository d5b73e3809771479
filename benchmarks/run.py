"""Closed-loop benchmark of pbwlab: one client, no threads.

    python3 benchmarks/run.py --workload oracle --seed 1 --seconds 50 --trace 0

Run from the repository root.  The benchmark asks pbwlab a stream of questions
(library calls and in-process CLI invocations) and issues each one only after
the previous one is answered.  One round asks every question of the workload
once; rounds repeat until --seconds have passed, so every run measures whole
rounds at the workload's stated mix.  Answers are checked against
independent references after the timed region.

--trace 0 prints the end-to-end metrics of an untraced run.  --trace 1
alternates rounds with wrappers around every layer's public functions and
rounds without, and prints the per-layer metrics and the tracing overhead;
spans are written to .bench_out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PBW_MODULES = ("scalars", "freealg", "cyclic", "presentations", "koszul", "certificates",
               "rewriting", "jsonio", "cli", "errors")
SETUPS = 9                 # set-ups per run; setup_s is their median
# Every time the benchmark reports is CPU time of its one thread, scaled to a
# reference machine speed; see the machine speed section below.  pbwlab is
# single-threaded, starts no threads or processes and does no I/O while it
# answers, so on an idle machine a question's CPU time is its wall time.
# The run length (--seconds) is wall time.  The process CPU clock is not
# used: while a profiling timer is armed it reads the same value all
# through a signal handler.
CLOCK = time.thread_time
PERCENTILES = (95, 90, 75, 50)
OUT_DIR = ".bench_out"

PARSERS = {
    "pres": lambda jsonio, doc: jsonio.presentation_from_json(doc),
    "quad": lambda jsonio, doc: jsonio.quad_data_from_json(doc["quadratic"]),
    "lie": lambda jsonio, doc: jsonio.lie_data_from_json(doc["lie"]),
    "poly": lambda jsonio, doc: jsonio.ncpoly_from_json(doc["terms"], doc["n"]),
    "factor": lambda jsonio, doc: jsonio.parse_hpoly_string(doc),
}


# -- machine speed --------------------------------------------------------------------
#
# On a shared virtual machine the speed of our virtual CPU changes by up to
# 60 % for pbwlab's allocation-heavy code, in spells of a few tens of
# milliseconds to minutes, as other tenants load the host's cores and
# caches; CPU time does not remove that, and a slow spell can last a whole
# run.  So the benchmark samples the speed with a fixed calibration loop
# just before and just after every timed piece of work, and every PROBE_S of
# CPU time during it, from a profiling-timer signal handler.  The work's CPU
# time, less that of the probes, is scaled by REFERENCE_S over the mean of
# the samples: the result is the time the work would take at the speed at
# which one loop takes REFERENCE_S.  The loop is the benchmark's own code and
# never changes; it does the kind of work pbwlab does (Fraction sums in a
# dict keyed by tuples of ints, integer arithmetic, string joins).

REFERENCE_S = 0.0007       # one loop on an unloaded 2-vCPU Intel Xeon VM
PROBE_S = 0.01             # CPU time between samples during a piece of work


def calibration_loop() -> str:
    from fractions import Fraction
    acc: dict = {}
    for i in range(150):
        word = (i % 3, i % 5, i % 7)
        acc[word] = acc.get(word, Fraction(0)) + Fraction(i % 7 + 1, i % 3 + 1)
    total = 0
    for i in range(4000):
        total += i * i % 7
    return ",".join(f"{word}:{value}" for word, value in acc.items()) + str(total)


def machine_speed() -> float:
    """CPU seconds of one calibration loop now: the median of three."""
    times = []
    for _ in range(3):
        start = CLOCK()
        calibration_loop()
        times.append(CLOCK() - start)
    return statistics.median(times)


_probes: list = []         # CPU seconds of the loops run by _probe during one piece of work


def _probe(signum, frame) -> None:
    start = CLOCK()
    calibration_loop()
    _probes.append(CLOCK() - start)


def measure(work, before: float, probe: bool = True) -> tuple:
    """Run work() once: (result or None, exception or None, scaled CPU s,
    machine speed after).  `before` is the machine speed just before it;
    without `probe` the speed is sampled only before and after."""
    if probe and signal.getsignal(signal.SIGPROF) is not _probe:
        signal.signal(signal.SIGPROF, _probe)
    _probes.clear()
    if probe:
        signal.setitimer(signal.ITIMER_PROF, PROBE_S, PROBE_S)
    start = CLOCK()
    try:
        result, error = work(), None
    except Exception as exc:  # an unexpected raise is a failed answer
        result, error = None, exc
    finally:
        if probe:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
    cpu = CLOCK() - start - sum(_probes)
    after = machine_speed()
    samples = [before, *_probes, after]
    return result, error, cpu * REFERENCE_S * len(samples) / sum(samples), after


# -- set-up -------------------------------------------------------------------------

def import_pbwlab() -> SimpleNamespace:
    return SimpleNamespace(**{name: importlib.import_module(f"pbwlab.{name}")
                              for name in PBW_MODULES})


def parse_docs(plan, pbw) -> dict:
    return {name: PARSERS[kind](pbw.jsonio, doc) for name, (kind, doc) in plan.docs.items()}


def set_up(plan, repeats: int = SETUPS):
    """Import pbwlab afresh and parse the workload's documents, `repeats` times.
    Returns the scaled set-up times and the modules and parsed objects of the last."""
    times = []
    speed = machine_speed()
    for _ in range(repeats):
        for key in [k for k in sys.modules if k == "pbwlab" or k.startswith("pbwlab.")]:
            del sys.modules[key]

        def once():
            pbw = import_pbwlab()
            return pbw, parse_docs(plan, pbw)

        result, error, scaled, speed = measure(once, speed)
        if error is not None:
            raise error
        times.append(scaled)
    pbw, parsed = result
    return times, pbw, parsed


# -- the closed loop --------------------------------------------------------------------

def ask(questions, rounds: int = 0, seconds: float = 0.0, tracer=None, probe: bool = True):
    """Ask every question once per round, each after the previous answer.

    Runs exactly `rounds` rounds, or one whole round and then as many
    questions as fit until `seconds` of wall time have passed, so that a run
    ends on time.  Returns (records, scaled seconds of each whole round); a
    record is (question index, scaled latency in s, raw answer, exception or None).
    """
    records, durations = [], []
    wall = time.perf_counter
    start = wall()
    speed = machine_speed()
    while (len(durations) < rounds) if rounds else (not durations or wall() - start < seconds):
        round_s = 0.0
        for index, question in enumerate(questions):
            if not rounds and durations and wall() - start >= seconds:
                break
            if tracer is not None:
                tracer.question = question.label
            raw, error, latency, speed = measure(question.call, speed, probe)
            records.append((index, latency, raw, error))
            round_s += latency
        else:
            durations.append(round_s)
    return records, durations


def check(questions, records) -> tuple:
    """(failed count, labels of failed questions); references are computed
    here, outside the timed region, once per question."""
    expected = [question.expect() for question in questions]
    failed, labels = 0, []
    for index, _, raw, error in records:
        question = questions[index]
        ok = error is None
        if ok:
            try:
                ok = question.answer(raw) == expected[index]
            except Exception:  # a malformed answer is a wrong answer
                ok = False
        if not ok:
            failed += 1
            if question.label not in labels:
                labels.append(question.label)
    return failed, labels


def tail_latency(latencies: list) -> tuple:
    """(percentile, value, samples beyond): the highest of PERCENTILES with at
    least ten samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 50, ordered[math.ceil(n / 2) - 1], n - math.ceil(n / 2)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- runs ---------------------------------------------------------------------------------

def timed_run(plan, questions, setup_times, seconds: float) -> dict:
    wall_start = time.perf_counter()
    records, durations = ask(questions, seconds=seconds)
    wall_s = time.perf_counter() - wall_start
    rss = peak_rss_mb()
    failed, labels = check(questions, records)
    # per question, the median of its scaled times over the asks of the run:
    # a slow spell the calibration loop did not share, or a stray fast
    # calibration, moves single asks but not the median
    asks: list = [[] for _ in questions]
    for index, latency, _, _ in records:
        asks[index].append(latency)
    typical = [statistics.median(times) for times in asks]
    best = [min(times) for times in asks]
    attempted = len(records)
    pct, tail, beyond = tail_latency(typical)
    metrics = {
        "questions_per_s": (len(questions) / sum(typical), "1/s"),
        "latency_p50_ms": (statistics.median(typical) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "correct_share": (1 - failed / attempted, "share"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = [
        f"workload {plan.name} seed {plan.seed}: closed loop, one client; "
        f"{attempted} questions ({len(durations)} whole rounds of {len(questions)}) in "
        f"{wall_s:.2f} s wall, {sum(durations):.2f} scaled s in whole rounds",
        f"latency_tail_ms is p{pct:g} of {len(questions)} samples, each a question's median "
        f"of {len(durations)} or {len(durations) + 1} asks ({beyond} beyond it)",
        f"best of N instead of medians: {len(questions) / sum(best):.4f} questions/s, "
        f"p50 {statistics.median(best) * 1000:.4f} ms, tail {tail_latency(best)[1] * 1000:.4f} ms",
        f"failed_share {failed / attempted:.6f} ({failed} of {attempted})"
        + (f": {', '.join(labels)}" if labels else ""),
        "waiting time is zero by construction: no queues, no threads",
    ]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def traced_run(plan, questions, pbw, seconds: float) -> dict:
    """Traced and untraced rounds alternate until `seconds` have passed, so
    that drift in the machine's speed falls on both sides of the overhead.
    Every traced round starts with a parse of the workload's documents, so
    the per-round counts include one set-up.  Rounds of both kinds sample
    the machine speed only before and after each question: probes during
    a question would land in the spans of the layers they interrupt."""
    import tracer as tracing

    tracer = tracing.Tracer(pbw)
    per_round, traced, untraced = [], [], []
    traced_s = untraced_s = 0.0
    start = time.perf_counter()
    pair_s = 0.0   # wall time of the last traced and untraced pair of rounds:
    # a pair starts only if another one like it would end in time
    while not per_round or time.perf_counter() - start + pair_s < seconds:
        pair_start = time.perf_counter()
        tracer.calls.clear()
        tracer.counters.clear()
        tracer.install()
        try:
            tracer.question = "setup"
            parse_docs(plan, pbw)
            records, durations = ask(questions, rounds=1, tracer=tracer, probe=False)
        finally:
            sites = tracer.uninstall()
        traced += records
        traced_s += durations[0]
        per_round.append((dict(tracer.calls), dict(tracer.counters)))
        left = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, original in sites
                if getattr(owner, attr) is not original]
        spans_before = len(tracer.spans)
        parse_docs(plan, pbw)
        records, durations = ask(questions, rounds=1, probe=False)
        untraced += records
        untraced_s += durations[0]
        if left or len(tracer.spans) != spans_before:
            raise RuntimeError(f"wrappers still installed after a traced round: {left}")
        pair_s = time.perf_counter() - pair_start
    rounds = len(per_round)
    if any(r != per_round[0] for r in per_round):
        raise RuntimeError("per-round call counts or counters differ between rounds")

    failed, labels = check(questions, traced + untraced)
    calls, counters = per_round[0]
    self_s = {name: total / rounds for name, total in tracer.self_s.items()}
    metrics = layer_metrics(calls, counters, self_s)
    qps_traced = len(traced) / traced_s
    qps_untraced = len(untraced) / untraced_s
    metrics.update({
        "trace.questions_per_s_traced": (qps_traced, "1/s"),
        "trace.questions_per_s_untraced": (qps_untraced, "1/s"),
        "trace.overhead_qps": (qps_untraced - qps_traced, "1/s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "trace.spans_per_round": (len(tracer.spans) // rounds, "count"),
        "round.questions": (len(questions), "count"),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = Path(OUT_DIR) / f"spans-{plan.name}-seed{plan.seed}.tsv"
    tracer.write_spans(spans_path)
    attempted = len(traced) + len(untraced)
    notes = [
        f"workload {plan.name} seed {plan.seed}: {rounds} traced rounds alternating with "
        f"{rounds} untraced ones, {len(questions)} questions each; spans in {spans_path}",
        f"tracing overhead: {qps_traced:.3f} vs {qps_untraced:.3f} questions/s "
        f"(traced/untraced time {traced_s / untraced_s:.3f})",
        f"failed_share {failed / attempted:.6f} ({failed} of {attempted})"
        + (f": {', '.join(labels)}" if labels else ""),
        "waiting time is zero by construction: no queues, no threads",
    ]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


# function spans reported per name; module totals cover every wrapped function
LAYER_FUNCTIONS = [
    "scalars.hpoly_gcd", "scalars.rational_roots",
    "freealg.nc_mul", "freealg.specialize",
    "cyclic.potential_to_presentation",
    "presentations.validate",
    "koszul.apply_d",
    "certificates.certify", "certificates.obstruction",
    "certificates.check_quadratic_condition", "certificates.check_poisson",
    "rewriting.hilbert", "rewriting.complete", "rewriting.reduce_dict", "rewriting.member",
    "rewriting.normal_word_counts", "rewriting.module_membership", "rewriting.torsion_check",
    "jsonio.parse", "jsonio.emit",
    "cli.main",
]
DEGREE_BUCKETS = ("deg_le4", "deg5", "deg6", "deg7", "deg_ge8")
COUNTERS = [
    ("rewriting.rules", "count"), ("rewriting.coeff_bits_max", "bits"),
    ("rewriting.excluded", "count"), ("rewriting.depth_extra", "count"),
    ("rewriting.specializations_tried", "count"), ("rewriting.bad_specialization", "count"),
    ("rewriting.specializations_useful", "count"), ("rewriting.normal_words.total", "count"),
]


def layer_metrics(calls: dict, counters: dict, self_s: dict) -> dict:
    """Per-layer metrics of one round: call counts, self times, counters."""
    import tracer as tracing

    grouped_calls, grouped_self = {}, {}
    for name, count in calls.items():
        for key in (tracing.group_of(name), name.split(".")[0]):
            grouped_calls[key] = grouped_calls.get(key, 0) + count
    for name, seconds in self_s.items():
        if name.count(".") > 1:   # per-degree buckets of complete
            continue
        for key in (tracing.group_of(name), name.split(".")[0]):
            grouped_self[key] = grouped_self.get(key, 0.0) + seconds
    out = {}
    for module in tracing.MODULES:
        out[f"{module}.calls"] = (grouped_calls.get(module, 0), "count")
        out[f"{module}.self_s"] = (grouped_self.get(module, 0.0), "s")
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = (grouped_calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (grouped_self.get(name, 0.0), "s")
    for bucket in DEGREE_BUCKETS:
        out[f"rewriting.complete.{bucket}.total_s"] = \
            (self_s.get(f"rewriting.complete.{bucket}", 0.0), "s")
    for name, unit in COUNTERS:
        out[name] = (counters.get(name, 0), unit)
    return out


# -- entry point -----------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="closed-loop pbwlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    children_before = children_cpu_s()   # a launcher may have run some already

    if not (ROOT / "src" / "pbwlab" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"benchmark: no pbwlab sources (src/pbwlab, tests/oracles.py) under {ROOT}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    try:
        plan = workloads.generate(args.workload, args.seed)
    except ValueError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    setup_times, pbw, parsed = set_up(plan)
    questions = plan.build(parsed, pbw)
    if args.trace:
        result = traced_run(plan, questions, pbw, args.seconds)
    else:
        result = timed_run(plan, questions, setup_times, args.seconds)
    if children_cpu_s() > children_before or threading.active_count() > 1:
        print("benchmark: pbwlab ran child processes or threads, whose work the "
              "CPU clock of the benchmark's thread does not count", file=sys.stderr)
        return 1
    for line in result.pop("notes"):
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:44} {value:>16.6f} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

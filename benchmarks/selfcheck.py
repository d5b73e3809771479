"""Self-check of the benchmark harness itself.

    python3 benchmarks/selfcheck.py

Run from the repository root; takes a few minutes.  Checks that

1. an answer corrupted on purpose, and a question that raises, count as
   failed answers (failed_share > 0, correct false) instead of aborting;
2. latency_tail_ms reports its percentile and the sample count;
3. after a traced run every wrapped name is the original object again and
   an untraced run records no spans;
4. the deterministic per-layer counts repeat exactly across two traced runs
   of the same seed;
5. the metric names printed are the ones BENCHMARK.json declares.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def prepare(workload: str, seed: int = 1):
    import workloads

    plan = workloads.generate(workload, seed)
    setup_times, pbw, parsed = run.set_up(plan, repeats=1)
    return plan, setup_times, pbw, plan.build(parsed, pbw)


def bound_names(pbw) -> dict:
    """Every attribute of every pbwlab module, and of RewriteSystem, by identity."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if key == "pbwlab" or key.startswith("pbwlab."):
            out.update({(key, attr): id(value) for attr, value in vars(mod).items()})
    out.update({("RewriteSystem", attr): id(value)
                for attr, value in vars(pbw.rewriting.RewriteSystem).items()})
    return out


def check_corrupted_answer(failures: list) -> None:
    plan, setup_times, pbw, questions = prepare("certify_batch")
    honest = questions[0].call
    questions[0].call = lambda: ("corrupted", honest())

    def raises():
        raise RuntimeError("raised on purpose")
    questions[1].call = raises
    result = run.timed_run(plan, questions, setup_times, seconds=0)
    share = 1 - result["metrics"]["correct_share"][0]
    if not (result["failed"] == 2 and share > 0 and result["correct"] is False):
        failures.append(f"corrupted answers: failed={result['failed']}, share={share}")
    if not any(line.startswith("latency_tail_ms is p") and "samples" in line and "beyond" in line
               for line in result["notes"]):
        failures.append("latency_tail_ms line lacks its percentile or sample count")


def check_tail_percentile(failures: list) -> None:
    for n, want in ((100, 90), (200, 95), (5000, 95), (30, 50)):
        pct, value, beyond = run.tail_latency([float(k) for k in range(n)])
        if pct != want or (n >= 20 and beyond < 10) or value != sorted(range(n))[n - beyond - 1]:
            failures.append(f"tail of {n} samples: p{pct}, {beyond} beyond")


def check_unwrapped_and_repeatable(failures: list) -> None:
    for workload in ("oracle",):
        layer_runs = []
        for _ in range(2):
            plan, _, pbw, questions = prepare(workload)
            before = bound_names(pbw)
            result = run.traced_run(plan, questions, pbw, seconds=0)
            if bound_names(pbw) != before:
                failures.append(f"{workload}: names differ after the traced run")
            import tracer as tracing
            probe = tracing.Tracer(pbw)   # never installed: must stay empty
            run.ask(questions, rounds=1, tracer=probe)
            if probe.spans or not result["correct"]:
                failures.append(f"{workload}: untraced run recorded spans or answers failed")
            layer_runs.append({k: v for k, (v, unit) in result["metrics"].items()
                               if unit in ("count", "bits")})
        if layer_runs[0] != layer_runs[1]:
            diff = {k for k in layer_runs[0] if layer_runs[0][k] != layer_runs[1].get(k)}
            failures.append(f"{workload}: counts differ between runs: {sorted(diff)}")


def check_declared_metrics(failures: list) -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    plan, setup_times, pbw, questions = prepare("oracle")
    timed = run.timed_run(plan, questions, setup_times, seconds=0)["metrics"]
    traced = run.traced_run(plan, questions, pbw, seconds=0)["metrics"]
    for key, got in (("end_to_end", timed), ("per_layer", traced)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: unit for name, (_, unit) in got.items()}
        if declared != printed:
            failures.append(f"{key}: declared and printed metrics differ: "
                            f"{sorted(set(declared.items()) ^ set(printed.items()))}")


def main() -> int:
    import os
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    failures: list = []
    for check in (check_corrupted_answer, check_tail_percentile,
                  check_unwrapped_and_repeatable, check_declared_metrics):
        before = len(failures)
        check(failures)
        print(f"{check.__name__}: {'ok' if len(failures) == before else 'FAILED'}")
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())

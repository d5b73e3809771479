"""Smoke runs of the README's experiment scripts, end to end in a fresh interpreter,
and a check that the benchmark tracer's tables name functions that exist."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(REPO / "scripts" / name), *args], cwd=REPO,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_reproduce_counterexample():
    lines = run_script("reproduce_counterexample.py")
    assert "certificate (default d2): pass" in lines
    assert "  dims     = [1, 3, 6, 10, 15]" in lines
    assert "  observed excluded specializations: ['-1 + h']" in lines
    assert [line for line in lines if line.startswith("  k=")] == [
        "  k=0: dim 1 vs 1 -> match", "  k=1: dim 3 vs 3 -> match",
        "  k=2: dim 6 vs 6 -> match", "  k=3: dim 12 vs 10 -> defect"]
    assert lines[-1].startswith("  witness: factor*T is an explicit Q[h]-combination")


def test_survey_quantum_deformations():
    lines = run_script("survey_quantum_deformations.py")
    assert len(lines) == 28
    flagged = [tuple(line.split()[:3]) for line in lines
               if line.endswith("<- PBW without certificate")]
    # the condition fails, though the algebra is PBW, exactly when q13 and another
    # parameter are nonzero
    assert flagged == [(q12, q13, q23) for q12 in "012" for q13 in "12" for q23 in "012"
                       if q12 != "0" or q23 != "0"]
    assert "   0    0    0       pass         pass    [1, 3, 6, 10, 15]" in lines
    assert ("   2    2    2       fail         fail    [1, 3, 6, 10, 15]"
            "  <- PBW without certificate") in lines


def test_find_poisson_fixture():
    """The first hit at the default seed is the tensor frozen as the
    `poisson_not_special` fixture of tests/conftest.py."""
    lines = run_script("find_poisson_fixture.py", "--wanted", "1")
    assert lines == ["trial 58: Poisson but not special:",
                     "  alpha_12^{32} = -1", "  alpha_23^{12} = 1", "  alpha_23^{32} = -1",
                     "", "1 fixture(s) found in 59 trials"]


def test_cli_battery():
    lines = run_script("cli_battery.py")
    assert len(lines) == 1728
    fields = [line.split("\t") for line in lines]
    assert all(len(f) == 4 and len(f[2]) == len(f[3]) == 64 for f in fields)
    assert len({f[0] for f in fields}) == len(fields)  # every argv once
    # no run ends in an internal error; every outcome code occurs
    assert {f[1] for f in fields} == {"0", "1", "2", "3"}


def test_ab_fixtures():
    """One tree on both sides, one timing each: the reports of every fixture
    agree, and each line gives both times and their ratio."""
    src = str(REPO / "src")
    lines = run_script("ab_fixtures.py", src, src, "--repeats", "1")
    assert lines[0].split() == ["fixture", "old_ms", "new_ms", "new/old"]
    rows = [line.rsplit(None, 3) for line in lines[1:]]
    assert [r[0] for r in rows] == (
        ["cascading@1/2", "cascading@1"]
        + [f"mixed{k}@{a}" for k, a in enumerate(
            ["3", "2", "1", "5/2", "-1/2", "2", "5", "2", "1", "3/2", "5/2"])]
        + [f"{name} generic" for name in ("sl2", "heisenberg", "quantum3", "strange")]
        + [f"hrat{k} generic" for k in range(7)]
        + [f"torsion:{label}" for label in ("witness-d5", "witness-d6", "unknown-h",
                                            "refuted-const", "refuted-sl2")]
        + [f"hrat{k} reads" for k in range(7)]
        + [f"{name} member" for name in ("strange@1", "sl2@1/2", "cascading@1/2", "strange@generic",
                                         "sl2@generic", "heisenberg@generic",
                                         "quantum3@generic")]
        + [f"{name} certify" for name in ("sl2", "heisenberg", "non_jacobi", "quantum3",
                                          "quantum_plane", "poisson_not_special")]
        + [f"hrat{k} certify" for k in range(7)]
        + ["total h = a", "total generic", "total torsion", "total reads", "total member",
           "total certify"])
    assert all(float(old) > 0 and float(new) > 0 and float(ratio) > 0
               for _, old, new, ratio in rows)


def test_tracer_tables_resolve():
    """`Tracer.install` looks up every name of benchmarks/tracer.py's FUNCTIONS and
    METHODS tables in pbwlab; a removed one would crash `run.py --trace 1`."""
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"pbwlab.{module}"), name, None))]
    for module, classes in tracer.METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(importlib.import_module(f"pbwlab.{module}"), cls_name)
            missing += [f"{module}.{cls_name}.{m}" for m in methods if m not in vars(cls)]
    assert tracer.FUNCTIONS["koszul"] and missing == []

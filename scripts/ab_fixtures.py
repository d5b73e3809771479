"""Compare the `hilbert` reports and CPU times of two pbwlab source trees.

    python3 scripts/ab_fixtures.py OLD_SRC NEW_SRC [--repeats N]

OLD_SRC and NEW_SRC are `src` directories, each holding a `pbwlab` package.
Each package is copied into a temporary directory under its own name
(`pbwlab_old`, `pbwlab_new`; the package uses only relative imports), so one
interpreter holds both.  The fixtures are the benchmark corpus's: the
cascading presentation at h = 1/2 and h = 1 and the `mixed.json`
presentations at their points, with `hilbert` at h = a to K = 3, and the
generic `hilbert` questions that the benchmark asks of the corpus: sl2,
heisenberg and quantum3 to K = 5, strange and the `hrat.json` potentials to
K = 4.  For each fixture the script first asserts that both trees report the same `dims`, `excluded` and
`complete_through`, then takes the best of N thread-CPU timings per tree,
alternating which tree runs first, and prints one line per fixture with both
times and the ratio new / old, then the totals of the h = a and the generic
fixtures.  In-process CPU timings interleaved this way are steadier on a
noisy machine than paired benchmark runs, but they time `hilbert` alone.
"""

import argparse
import importlib
import json
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"
AT_DEGREE, GENERIC_DEGREE = 3, 4
GENERIC_CORPUS = [("sl2", 5), ("heisenberg", 5), ("quantum3", 5), ("strange", 4)]


def load_package(src: str, name: str, into: Path):
    """The package src/pbwlab imported as `name`, with its jsonio and rewriting."""
    shutil.copytree(Path(src) / "pbwlab", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("jsonio", "rewriting"):
        importlib.import_module(f"{name}.{module}")
    return importlib.import_module(name)


def fixtures() -> list:
    """(label, presentation document, h value or None for generic, K)."""
    cascading = json.loads((CORPUS / "cascading.json").read_text())
    out = [(f"cascading@{a}", cascading, Fraction(a), AT_DEGREE) for a in ("1/2", "1")]
    for entry in json.loads((CORPUS / "mixed.json").read_text()):
        out.append((f"{entry['name']}@{entry['at']}", entry["presentation"],
                    Fraction(entry["at"]), AT_DEGREE))
    for name, degree in GENERIC_CORPUS:
        doc = json.loads((CORPUS / f"{name}.json").read_text())
        out.append((f"{name} generic", doc, None, degree))
    for entry in json.loads((CORPUS / "hrat.json").read_text()):
        out.append((f"{entry['name']} generic", {"potential": entry["potential"]}, None,
                    GENERIC_DEGREE))
    return out


def runner(pkg, doc, a, degree):
    """A call of pkg's hilbert on doc, parsed by pkg's own reader."""
    pres = pkg.jsonio.presentation_from_json(doc)
    if a is None:
        return lambda: pkg.rewriting.hilbert(pres, degree, generic=True)
    return lambda: pkg.rewriting.hilbert(pres, degree, a)


def cpu_s(run) -> float:
    start = time.thread_time()
    run()
    return time.thread_time() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            old = load_package(args.old_src, "pbwlab_old", Path(tmp))
            new = load_package(args.new_src, "pbwlab_new", Path(tmp))
        finally:
            sys.path.remove(tmp)
        totals = {"h = a": [0.0, 0.0], "generic": [0.0, 0.0]}
        print(f"{'fixture':<22} {'old_ms':>9} {'new_ms':>9} {'new/old':>8}")
        for label, doc, a, degree in fixtures():
            runs = [runner(old, doc, a, degree), runner(new, doc, a, degree)]
            reports = [run() for run in runs]
            seen = [(r.dims, r.excluded, r.complete_through) for r in reports]
            if seen[0] != seen[1]:
                sys.exit(f"{label}: the reports differ: old {seen[0]}, new {seen[1]}")
            best = [float("inf"), float("inf")]
            for rep in range(args.repeats):  # alternate which tree runs first
                for side in ((0, 1) if rep % 2 == 0 else (1, 0)):
                    best[side] = min(best[side], cpu_s(runs[side]))
            group = totals["generic" if a is None else "h = a"]
            group[0] += best[0]
            group[1] += best[1]
            print(f"{label:<22} {best[0] * 1e3:>9.2f} {best[1] * 1e3:>9.2f} "
                  f"{best[1] / best[0]:>8.3f}")
        for group, (t_old, t_new) in totals.items():
            print(f"{'total ' + group:<22} {t_old * 1e3:>9.2f} {t_new * 1e3:>9.2f} "
                  f"{t_new / t_old:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the `hilbert`, `torsion_check`, generic read, `member` and `certify` answers and CPU times of two pbwlab trees.

    python3 scripts/ab_fixtures.py OLD_SRC NEW_SRC [--repeats N]

OLD_SRC and NEW_SRC are `src` directories, each holding a `pbwlab` package.
Each package is copied into a temporary directory under its own name
(`pbwlab_old`, `pbwlab_new`; the package uses only relative imports), so one
interpreter holds both.  The fixtures are the benchmark corpus's: the
cascading presentation at h = 1/2 and h = 1 and the `mixed.json`
presentations at their points, with `hilbert` at h = a to K = 3, and the
generic `hilbert` questions that the benchmark asks of the corpus: sl2,
heisenberg and quantum3 to K = 5, strange and the `hrat.json` potentials to
K = 4; and the benchmark's five torsion probes, whose Q[h] membership is
`module_membership`: strange with T at the factors 1 - h (degrees 5 and 6),
h and 2, and sl2 with x1 at 1 - h.  The reads are `rules` of the generic
system of each `hrat.json` potential after `complete(4)`, then `reduce_dict`
of every rule tail: the paths that build `HRat` values.  The member fixtures
are the member batches of the oracle workload (`benchmarks/workloads.py`,
seed 1): at h = a, strange at 1 completed to D = 5, sl2 at 1/2 to D = 6 and
cascading at its first point to D = 4; generically, strange to D = 5 and sl2,
heisenberg and quantum3 to D = 4, the strange batches ending with T.  Only
their seeded `member` reads are timed, each timing on a system completed
afresh outside it, as a benchmark round reads one.  The certificate
fixtures are `certify` of the corpus Lie presentations (sl2, heisenberg,
non_jacobi) on the lie d2, of the quadratic ones (quantum3, quantum_plane,
poisson_not_special) on the quadratic d2 and of the `hrat.json` potentials on
the default d2, each followed by `obstruction` when the certificate fails.
For each fixture the script first asserts that both trees give the same answer
(`dims`, `excluded` and `complete_through` of a Hilbert report, a torsion
`status`, the values read, the member answers, a verdict with its residues
and obstruction), then takes the best of N thread-CPU timings per tree,
alternating which tree runs first, and prints one line per fixture with both
times and the ratio new / old, then the totals of the h = a, the generic, the
torsion, the read, the member and the certificate fixtures.  In-process CPU
timings interleaved this way are steadier on a noisy machine than paired
benchmark runs, but they time these calls alone.
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
# (label, presentation, element file, factor, degree), as the oracle workload asks them
TORSION_PROBES = [("witness-d5", "strange", "T.json", "1-h", 5),
                  ("witness-d6", "strange", "T.json", "1-h", 6),
                  ("unknown-h", "strange", "T.json", "h", 5),
                  ("refuted-const", "strange", "T.json", "2", 5),
                  ("refuted-sl2", "sl2", "x1.json", "1-h", 5)]
CERTIFY_CORPUS = [("sl2", "lie"), ("heisenberg", "lie"), ("non_jacobi", "lie"),
                  ("quantum3", "quadratic"), ("quantum_plane", "quadratic"),
                  ("poisson_not_special", "quadratic")]


def load_package(src: str, name: str, into: Path):
    """The package src/pbwlab imported as `name`, with its jsonio and rewriting."""
    shutil.copytree(Path(src) / "pbwlab", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("jsonio", "rewriting"):
        importlib.import_module(f"{name}.{module}")
    return importlib.import_module(name)


def corpus(name: str):
    return json.loads((CORPUS / name).read_text())


def fixtures() -> list:
    """(label, total it counts in, runner, the runner's inputs after the package)."""
    out = [(f"cascading@{a}", "h = a", hilbert_runner, (corpus("cascading.json"), Fraction(a),
                                                        AT_DEGREE)) for a in ("1/2", "1")]
    for entry in corpus("mixed.json"):
        out.append((f"{entry['name']}@{entry['at']}", "h = a", hilbert_runner,
                    (entry["presentation"], Fraction(entry["at"]), AT_DEGREE)))
    for name, degree in GENERIC_CORPUS:
        out.append((f"{name} generic", "generic", hilbert_runner,
                    (corpus(f"{name}.json"), None, degree)))
    for entry in corpus("hrat.json"):
        out.append((f"{entry['name']} generic", "generic", hilbert_runner,
                    ({"potential": entry["potential"]}, None, GENERIC_DEGREE)))
    for label, name, element, factor, degree in TORSION_PROBES:
        out.append((f"torsion:{label}", "torsion", torsion_runner,
                    (corpus(f"{name}.json"), corpus(element), factor, degree)))
    for entry in corpus("hrat.json"):
        out.append((f"{entry['name']} reads", "reads", reads_runner,
                    ({"potential": entry["potential"]}, GENERIC_DEGREE)))
    out += member_fixtures()
    for name, d2 in CERTIFY_CORPUS:
        out.append((f"{name} certify", "certify", certify_runner, (corpus(f"{name}.json"), d2)))
    for entry in corpus("hrat.json"):
        out.append((f"{entry['name']} certify", "certify", certify_runner,
                    ({"potential": entry["potential"]}, "default")))
    return out


def member_fixtures() -> list:
    """The oracle workload's member batches, in its order, with the documents
    that it generates at seed 1."""
    sys.path.insert(0, str(CORPUS.parent))
    try:
        import workloads
    finally:
        sys.path.remove(str(CORPUS.parent))
    # (document prefix, batch tag, presentation, point or None for generic,
    # completion degree, the query the batch ends with)
    batches = [("at/", 0, "strange", Fraction(1), 5, "T"), ("at/", 1, "sl2", Fraction(1, 2), 6, None),
               ("at/", 2, "cascading", workloads.CASCADING_AT[0], 4, None),
               ("generic/", 0, "strange", None, 5, "T.json"), ("generic/", 1, "sl2", None, 4, None),
               ("generic/", 2, "heisenberg", None, 4, None),
               ("generic/", 3, "quantum3", None, 4, None)]
    docs, out = workloads.generate("oracle", 1).docs, []
    for prefix, tag, name, a, degree, extra in batches:
        polys = [doc for key, (_, doc) in docs.items() if key.startswith(f"{prefix}poly{tag}.")]
        polys += [docs[prefix + extra][1]] if extra else []
        out.append((f"{name}@{'generic' if a is None else a} member", "member", member_runner,
                    (docs[prefix + name][1], a, degree, polys)))
    return out


def hilbert_runner(pkg, doc, a, degree):
    """A call of pkg's hilbert on doc, parsed by pkg's own reader, and the part
    of its report that both trees must agree on."""
    pres = pkg.jsonio.presentation_from_json(doc)
    return (lambda: pkg.rewriting.hilbert(pres, degree, a, generic=a is None),
            lambda r: (r.dims, r.excluded, r.complete_through))


def torsion_runner(pkg, doc, terms, factor, degree):
    """A call of pkg's torsion_check on doc, the element with those terms and
    the factor string, all parsed by pkg's own readers, and its status."""
    pres = pkg.jsonio.presentation_from_json(doc)
    element = pkg.jsonio.ncpoly_from_json(terms, pres.n)
    factor = pkg.jsonio.parse_hpoly_string(factor)
    return lambda: pkg.rewriting.torsion_check(pres, element, factor, degree), lambda r: r.status


def reads_runner(pkg, doc, degree):
    """`rules` of pkg's generic system on doc, completed through degree outside
    the timing, and `reduce_dict` of every rule tail; the reprs of the values."""
    system = pkg.rewriting.build_rules(pkg.jsonio.presentation_from_json(doc), "generic")
    system.complete(degree)

    def read():
        return {lead: (tail, system.reduce_dict(tail)) for lead, tail in system.rules.items()}

    def plain(terms):
        return {w: repr(c) for w, c in terms.items()}

    return read, lambda r: {lead: tuple(map(plain, pair)) for lead, pair in r.items()}


def member_runner(pkg, doc, a, degree, polys):
    """`member` of each query, parsed by pkg's own reader, against pkg's system
    on doc at h = a (generic for None), which `fresh` completes through degree;
    the answers."""
    pres = pkg.jsonio.presentation_from_json(doc)
    queries = [pkg.jsonio.ncpoly_from_json(poly["terms"], poly["n"]) for poly in polys]
    slot = {}

    def fresh():
        mode = "generic" if a is None else "at"
        slot["system"] = pkg.rewriting.build_rules(pres, mode, a).complete(degree)

    def read():
        return [pkg.rewriting.member(slot["system"], q) for q in queries]

    return read, lambda r: r, fresh


def certify_runner(pkg, doc, d2):
    """`certify` of pkg on doc with that d2, then `obstruction` when the
    certificate fails; the verdict, the residues and the obstruction as text."""
    pres, cert = pkg.jsonio.presentation_from_json(doc), pkg.certificates

    def run():
        report = cert.certify(pres, d2)
        return report, None if report.passed else cert.obstruction(pres, d2)

    def answer(result):
        report, obs = result
        return (report.verdict, {tri: str(r) for tri, r in report.residues.items()},
                obs and (obs.hbar_order, [(tri, str(g)) for tri, g in obs.generators]))

    return run, answer


def timed(side) -> tuple:
    """(thread-CPU seconds, result) of one call of a runner's run; the runner's
    fresh, when it returns one, runs first, untimed."""
    run, _, *fresh = side
    for make in fresh:
        make()
    start = time.thread_time()
    result = run()
    return time.thread_time() - start, result


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
        totals = {group: [0.0, 0.0]
                  for group in ("h = a", "generic", "torsion", "reads", "member", "certify")}
        print(f"{'fixture':<28} {'old_ms':>9} {'new_ms':>9} {'new/old':>8}")
        for label, group, runner, inputs in fixtures():
            sides = [runner(old, *inputs), runner(new, *inputs)]  # (run, answer[, fresh])
            seen = [side[1](timed(side)[1]) for side in sides]
            if seen[0] != seen[1]:
                sys.exit(f"{label}: the reports differ: old {seen[0]}, new {seen[1]}")
            best = [float("inf"), float("inf")]
            for rep in range(args.repeats):  # alternate which tree runs first
                for side in ((0, 1) if rep % 2 == 0 else (1, 0)):
                    best[side] = min(best[side], timed(sides[side])[0])
            totals[group][0] += best[0]
            totals[group][1] += best[1]
            print(f"{label:<28} {best[0] * 1e3:>9.2f} {best[1] * 1e3:>9.2f} "
                  f"{best[1] / best[0]:>8.3f}")
        for group, (t_old, t_new) in totals.items():
            print(f"{'total ' + group:<28} {t_old * 1e3:>9.2f} {t_new * 1e3:>9.2f} "
                  f"{t_new / t_old:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

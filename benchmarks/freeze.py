"""Regenerate the frozen CLI reports of the benchmark corpus.

    python3 benchmarks/freeze.py          # rewrite benchmarks/corpus/cli_expected.json
    python3 benchmarks/freeze.py --deep   # also recheck the frozen dimensions (~2 min)

Run from the repository root.  The CLI questions compare exit codes and
report bytes with this file, so rerun it only for a deliberate, reviewed
change of the reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
C = "benchmarks/corpus"

# README-style invocations, spread over the workloads
CLI_SPECS = {
    "certify_batch": [
        ("certify-sl2-lie", ["certify", "--input", f"{C}/sl2.json", "--d2", "lie"]),
        ("certify-quantum-plane", ["certify", "--input", f"{C}/quantum_plane.json",
                                   "--d2", "quadratic"]),
        ("obstruction-non-jacobi", ["obstruction", "--input", f"{C}/non_jacobi.json",
                                    "--d2", "lie"]),
        ("validate-strange", ["validate", "--input", f"{C}/strange.json"]),
        ("derive-strange", ["derive", "--input", f"{C}/strange.json", "--var", "1"]),
        ("from-potential-strange", ["from-potential", "--input", f"{C}/strange.json"]),
    ],
    "oracle_at": [
        ("pbw-strange-at1", ["pbw", "--input", f"{C}/strange.json", "--at", "1",
                             "--degree", "3"]),
        ("hilbert-sl2-at", ["hilbert", "--input", f"{C}/sl2.json", "--at", "1/2",
                            "--degree", "4"]),
        ("member-strange-T-at1", ["member", "--input", f"{C}/strange.json", "--poly",
                                  f"{C}/T.json", "--degree", "5", "--at", "1"]),
    ],
    "oracle_generic": [
        ("hilbert-generic-strange", ["hilbert", "--input", f"{C}/strange.json", "--generic",
                                     "--degree", "4"]),
        ("torsion-strange", ["torsion", "--input", f"{C}/strange.json", "--element",
                             f"{C}/T.json", "--factor", "1-h", "--degree", "5"]),
        ("member-generic-T", ["member", "--input", f"{C}/strange.json", "--poly",
                              f"{C}/T.json", "--degree", "5", "--generic"]),
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deep", action="store_true",
                        help="recompute the frozen dimensions with the span oracle")
    args = parser.parse_args()
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import pbwlab.cli
    from workloads import run_cli

    class Pbw:
        cli = pbwlab.cli

    frozen = {}
    for workload, specs in CLI_SPECS.items():
        frozen[workload] = []
        for name, argv in specs:
            argv = argv + ["--format", "json"]
            code, out = run_cli(Pbw, argv)
            frozen[workload].append({"name": name, "argv": argv, "exit": code, "stdout": out})
            print(f"{workload:15} {name:26} exit {code}")
    with open(HERE / "corpus" / "cli_expected.json", "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")

    if args.deep:
        from oracles import span_dims
        from pbwlab.jsonio import presentation_from_json
        from reference import CASCADING_DIMS
        from workloads import CASCADING_AT

        with open(HERE / "corpus" / "cascading.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        checks = [("cascading", doc, a, 3, 4, CASCADING_DIMS) for a in CASCADING_AT]
        with open(HERE / "corpus" / "mixed.json", encoding="utf-8") as fh:
            checks += [(f["name"], f["presentation"], Fraction(f["at"]), f["degree"],
                        f["span_margin"], f["dims"]) for f in json.load(fh)]
        status = 0
        for name, doc, a, degree, margin, frozen_dims in checks:
            dims = span_dims(presentation_from_json(doc), a, degree, margin)
            print(f"{name} at h={a}, margin {margin}: span {dims}, frozen {frozen_dims}")
            status |= dims != frozen_dims
        return status
    return 0


if __name__ == "__main__":
    sys.exit(main())

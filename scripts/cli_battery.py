"""Replay a fixed battery of in-process CLI runs and print a digest line per run.

Each line is the argv (JSON), the exit code, and the sha256 of stdout and of
stderr of one `pbwlab.cli.main(argv)` call.  The inputs are the files of
`benchmarks/corpus`, the presentations of `mixed.json` and the potentials of
`hrat.json`, the constructor documents of `CONSTRUCTED`, the custom
differentials of `CUSTOM_D2`, plus broken, missing and non-UTF-8 inputs,
written to a scratch directory that the runs
use as their working directory; every path in an argv is relative to it, so
the lines do not depend on where the repository lies.  Run the script once against each of two source trees and `diff` the
outputs to see whether any report changed:

    PYTHONPATH=src python3 scripts/cli_battery.py > after.txt
    PYTHONPATH=<other checkout>/src python3 scripts/cli_battery.py > before.txt

The generic completions that do not end (the cascading fixture and the
`mixed.json` presentations, as `hilbert --generic`, generic `member` or
`torsion`) are left out.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from pbwlab.cli import main as cli_main

CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"
BAD = ["bad/broken.json", "bad/latin1.json", "bad/missing.json", "bad"]


def _ctor(kind: str, keys: str, n: int, entries: list) -> dict:
    field = {"lie": "c", "quadratic": "alpha"}[kind]
    return {kind: {"n": n, field: [dict(zip(keys, idx), value=v) for *idx, v in entries]}}


# Constructor documents written the way a user may write them: entries with
# i > j (stored swapped and negated), two entries that cancel to zero, and,
# in the *_diagonal files, an i == j entry, which is refused.
CONSTRUCTED = {
    "lie_swapped.json": _ctor("lie", "ijk", 3, [
        (2, 1, 3, "-1"), (3, 1, 1, "2"), (2, 3, 2, "2"), (3, 2, 1, "1/3"),
        (1, 3, 3, "5"), (3, 1, 3, "5")]),
    "lie_diagonal.json": _ctor("lie", "ijk", 3, [(2, 1, 3, "1"), (2, 2, 1, "1")]),
    "quadratic_swapped.json": _ctor("quadratic", "ijab", 3, [
        (2, 1, 1, 2, "-3"), (1, 3, 1, 3, "-1/2"), (3, 2, 2, 3, "-1"),
        (1, 2, 3, 3, "1/2"), (2, 1, 3, 3, "1/2")]),
    "quadratic_diagonal.json": _ctor("quadratic", "ijab", 3, [(1, 2, 1, 2, "1"),
                                                              (3, 3, 1, 2, "1")]),
    "phi_swapped.json": {"n": 3, "phi": [
        {"i": 2, "j": 1, "terms": [{"word": [2, 1], "coeff": ["0", "1"]}]},
        {"i": 1, "j": 3, "terms": [{"word": [1, 3], "coeff": ["0", "1"]}]},
        {"i": 3, "j": 2, "terms": [{"word": [3, 2], "coeff": ["0", "1"]}]}]},
}


def _koszul_value() -> list:
    """The terms of the Koszul d2(xi_123), [x_1, xi_23] + [x_2, xi_31] + [x_3, xi_12]."""
    value = []
    for s, t, u in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        sign, pq = (1, [t, u]) if t < u else (-1, [u, t])
        value += [{"word": [{"x": s}, {"xi2": pq}], "coeff": [str(sign)]},
                  {"word": [{"xi2": pq}, {"x": s}], "coeff": [str(-sign)]}]
    return value


# Custom d2 documents for sl2 whose triples are not one canonical entry each:
# an unordered triple (summed into (1, 2, 3) with its permutation sign), a
# triple with a repeated index (refused), and (1, 2, 3) given twice (summed).
CUSTOM_D2 = {
    "unordered.json": [
        {"triple": [1, 2, 3], "value": _koszul_value()},
        {"triple": [3, 2, 1], "value": [{"word": [{"x": 1}, {"xi2": [2, 3]}], "coeff": ["7"]}]}],
    "repeated_index.json": [
        {"triple": [1, 2, 3], "value": _koszul_value()},
        {"triple": [1, 1, 2], "value": [{"word": [{"xi2": [1, 2]}], "coeff": ["1"]}]}],
    "duplicate.json": [
        {"triple": [1, 2, 3], "value": [{"word": [{"x": 1}], "coeff": ["1"]}]},
        {"triple": [1, 2, 3], "value": _koszul_value()}],
}


def write_inputs() -> tuple:
    """Write every input into the working directory: the --input paths, in
    order, and those whose generic completion does not end."""
    inputs, no_generic = [], {"corpus/cascading.json"}
    os.makedirs("corpus")
    for path in sorted(CORPUS.glob("*.json")):
        if path.name != "cli_expected.json":
            Path("corpus", path.name).write_bytes(path.read_bytes())
            inputs.append(f"corpus/{path.name}")
    for kind, key in (("mixed", "presentation"), ("hrat", "potential")):
        os.makedirs(kind)
        for k, entry in enumerate(json.loads((CORPUS / f"{kind}.json").read_text())):
            name = f"{kind}/{kind}{k}.json"
            Path(name).write_text(json.dumps({key: entry[key]} if key == "potential"
                                             else entry[key]))
            inputs.append(name)
            if kind == "mixed":
                no_generic.add(name)
    os.makedirs("bad")
    Path("bad/broken.json").write_text('{"n": 3, "phi": [')
    Path("bad/latin1.json").write_bytes('{"n": 3, "phi": [], "note": "é"}'.encode("latin-1"))
    os.makedirs("ctor")
    for name, doc in CONSTRUCTED.items():
        Path("ctor", name).write_text(json.dumps(doc))
        inputs.append(f"ctor/{name}")
    os.makedirs("d2")
    for name, doc in CUSTOM_D2.items():
        Path("d2", name).write_text(json.dumps(doc))
    return inputs + BAD, no_generic


def battery(inputs: list, no_generic: set) -> list:
    runs = []
    for path in inputs:
        generic = path not in no_generic
        per_file = [["validate"], ["derive", "--var", "1"], ["from-potential"]]
        for sub in ("certify", "obstruction"):
            per_file += [[sub, "--d2", d2] for d2 in ("default", "lie", "quadratic")]
        for sub in ("hilbert", "pbw"):
            per_file += [[sub, "--degree", "3", "--at", a] for a in ("1", "1/2")]
            per_file += [[sub, "--degree", "3", "--generic"]] if generic else []
        for poly in ("corpus/T.json", "corpus/x1.json"):
            modes = [["--at", "1"], ["--at", "1/2"]] + ([["--generic"]] if generic else [])
            per_file += [["member", "--poly", poly, "--degree", "4", *mode] for mode in modes]
        if generic:
            per_file += [["torsion", "--element", "corpus/T.json", "--factor", f, "--degree", "4"]
                         for f in ("1-h", "h")]
        for fmt in ("text", "json"):
            runs += [[args[0], "--input", path, *args[1:], "--format", fmt] for args in per_file]
    sl2 = ["--input", "corpus/sl2.json"]
    for bad in BAD:
        runs += [["certify", *sl2, "--d2", "custom", "--d2-file", bad],
                 ["member", *sl2, "--poly", bad, "--degree", "4", "--at", "1"],
                 ["torsion", *sl2, "--element", bad, "--factor", "1-h", "--degree", "4"]]
    for name in CUSTOM_D2:
        runs += [["certify", *sl2, "--d2", "custom", "--d2-file", f"d2/{name}", "--format", fmt]
                 for fmt in ("text", "json")]
    runs += [["certify", *sl2, "--d2", "custom"],
             ["hilbert", *sl2, "--degree", "3", "--at", "1/0"],
             ["member", *sl2, "--poly", "corpus/T.json", "--degree", "4", "--at", "x"],
             ["member", *sl2, "--poly", "corpus/T.json", "--degree", "9", "--at", "1"],
             ["torsion", *sl2, "--element", "corpus/T.json", "--factor", "h^", "--degree", "4"],
             ["torsion", *sl2, "--element", "corpus/x1.json", "--factor", "1-h", "--degree", "1"],
             [], ["--version"], ["nosuch"], ["validate"], ["hilbert", *sl2, "--degree", "3"],
             ["hilbert", *sl2, "--degree", "three", "--at", "1"],
             ["member", *sl2, "--poly", "corpus/T.json", "--degree", "4", "--at", "1", "--generic"],
             ["validate", *sl2, "--format", "yaml"]]
    return runs


def digest(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{json.dumps(argv)}\t{code}\t{sha[0]}\t{sha[1]}"


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for argv in battery(*write_inputs()):
                print(digest(argv), flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()

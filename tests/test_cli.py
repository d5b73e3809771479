import json
from fractions import Fraction
from pathlib import Path

import pytest

from pbwlab.cli import main
from pbwlab.rewriting import HilbertReport

SL2 = {"lie": {"n": 3, "c": [
    {"i": 1, "j": 2, "k": 3, "value": "1"},
    {"i": 1, "j": 3, "k": 1, "value": "-2"},
    {"i": 2, "j": 3, "k": 2, "value": "2"}]}}

STRANGE = {"potential": {"n": 3, "terms": [{"cycle": [3, 2, 1], "coeff": ["0", "-1"]}]}}

NON_JACOBI = {"lie": {"n": 3, "c": [
    {"i": 1, "j": 2, "k": 1, "value": "1"},
    {"i": 1, "j": 3, "k": 2, "value": "1"}]}}

REPO = Path(__file__).resolve().parent.parent
FROZEN = json.loads((REPO / "benchmarks" / "corpus" / "cli_expected.json").read_text())

TORSION_T = [{"word": [3, 2, 1], "coeff": ["-1"]}, {"word": [1, 3, 2], "coeff": ["1"]}]


@pytest.fixture
def sl2_file(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(SL2))
    return str(path)


@pytest.fixture
def strange_file(tmp_path):
    path = tmp_path / "strange.json"
    path.write_text(json.dumps(STRANGE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_sl2_lie_pass(self, capsys, sl2_file):
        code, out, _ = run_cli(capsys, "certify", "--input", sl2_file, "--d2", "lie")
        assert code == 0
        assert "pass" in out
        assert "every specialization" in out

    def test_fail_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nj.json"
        path.write_text(json.dumps(NON_JACOBI))
        code, out, _ = run_cli(capsys, "certify", "--input", str(path), "--d2", "lie")
        assert code == 1
        assert "fail" in out


class TestPbw:
    def test_strange_defect_table(self, capsys, strange_file):
        code, out, _ = run_cli(capsys, "pbw", "--input", strange_file,
                               "--at", "1", "--degree", "3")
        assert code == 1
        assert "12" in out and "10" in out and "defect" in out

    def test_generic_match(self, capsys, strange_file):
        code, out, _ = run_cli(capsys, "hilbert", "--input", strange_file,
                               "--generic", "--degree", "4")
        assert code == 0
        assert "match" in out

    @pytest.mark.parametrize("verdicts, exit_code", [(["match", "unknown"], 2),
                                                     (["unknown", "defect"], 1)])
    def test_unknown_exits_2_unless_a_defect(self, capsys, monkeypatch, sl2_file,
                                             verdicts, exit_code):
        """`unknown` without a `defect` exits 2; a defect anywhere exits 1."""
        report = HilbertReport(3, 1, "at", Fraction(1), [1, 3], [1, 3], verdicts,
                               [0, 0], 1)
        monkeypatch.setattr("pbwlab.cli.hilbert", lambda *args, **kwargs: report)
        for fmt in ("text", "json"):
            code, out, _ = run_cli(capsys, "hilbert", "--input", sl2_file, "--at", "1",
                                   "--degree", "1", "--format", fmt)
            assert code == exit_code
            if fmt == "json":
                assert json.loads(out)["result"]["verdicts"] == verdicts
            else:
                assert "unknown" in out


class TestDerive:
    def test_prints_derivative(self, capsys, strange_file):
        code, out, _ = run_cli(capsys, "derive", "--input", strange_file, "--var", "1")
        assert code == 0
        assert out.strip() == "-h*x3*x2"


class TestFromPotential:
    def test_presentation_echo(self, capsys, strange_file):
        code, out, _ = run_cli(capsys, "from-potential", "--input", strange_file)
        assert code == 0
        assert "phi_12 = -h*x2*x1" in out


class TestMember:
    def test_yes_and_no(self, capsys, strange_file, tmp_path):
        poly = tmp_path / "T.json"
        poly.write_text(json.dumps(TORSION_T))
        code, _, _ = run_cli(capsys, "member", "--input", strange_file,
                             "--poly", str(poly), "--degree", "5", "--generic")
        assert code == 0  # over Q(h) the factor is invertible
        code, _, _ = run_cli(capsys, "member", "--input", strange_file,
                             "--poly", str(poly), "--degree", "5", "--at", "1")
        assert code == 1

    def test_out_of_range(self, capsys, strange_file, tmp_path):
        poly = tmp_path / "big.json"
        poly.write_text(json.dumps([{"word": [1, 2, 3, 1, 2], "coeff": ["1"]}]))
        code, _, err = run_cli(capsys, "member", "--input", strange_file,
                               "--poly", str(poly), "--degree", "4", "--generic")
        assert code == 2


class TestTorsion:
    def test_witness(self, capsys, strange_file, tmp_path):
        elem = tmp_path / "T.json"
        elem.write_text(json.dumps(TORSION_T))
        code, out, _ = run_cli(capsys, "torsion", "--input", strange_file,
                               "--element", str(elem), "--factor", "1-h",
                               "--degree", "5")
        assert code == 0
        assert "witness" in out

    def test_refuted(self, capsys, sl2_file, tmp_path):
        elem = tmp_path / "x1.json"
        elem.write_text(json.dumps([{"word": [1], "coeff": ["1"]}]))
        code, out, _ = run_cli(capsys, "torsion", "--input", sl2_file,
                               "--element", str(elem), "--factor", "1-h",
                               "--degree", "5")
        assert code == 1
        assert "refuted" in out

    def test_element_in_ideal_refuted(self, capsys, sl2_file, tmp_path):
        """T = x1x2 - x2x1 - h x3 is the sl2 relation itself: no specialization
        separates T from the ideal, and T is a Q[h]-combination of the relations."""
        elem = tmp_path / "relation.json"
        elem.write_text(json.dumps([{"word": [1, 2], "coeff": ["1"]},
                                    {"word": [2, 1], "coeff": ["-1"]},
                                    {"word": [3], "coeff": ["0", "-1"]}]))
        code, out, _ = run_cli(capsys, "torsion", "--input", sl2_file,
                               "--element", str(elem), "--factor", "1-h",
                               "--degree", "4")
        assert code == 1
        assert "refuted" in out and "T itself lies in the ideal over Q[h]" in out

    def test_unseparated_element_is_unknown(self, capsys, tmp_path):
        """The relation (1 - h) (x1x2 - x2x1) vanishes at h = 1: no tried point
        separates T = x1x2 - x2x1 from the ideal, so the probe exits 2."""
        pres, elem = tmp_path / "pres.json", tmp_path / "T.json"
        pres.write_text(json.dumps({"n": 2, "phi": [{"i": 1, "j": 2, "terms": [
            {"word": [1, 2], "coeff": ["0", "1"]}, {"word": [2, 1], "coeff": ["0", "-1"]}]}]}))
        elem.write_text(json.dumps([{"word": [1, 2], "coeff": ["1"]},
                                    {"word": [2, 1], "coeff": ["-1"]}]))
        code, out, _ = run_cli(capsys, "torsion", "--input", str(pres), "--element", str(elem),
                               "--factor", "1-h", "--degree", "3")
        assert code == 2
        assert "unknown" in out and "could not be separated" in out

    @pytest.mark.parametrize("factor", ["1/0", "3/0*h"])
    def test_zero_denominator_factor_is_input_error(self, capsys, strange_file, tmp_path,
                                                    factor):
        elem = tmp_path / "T.json"
        elem.write_text(json.dumps(TORSION_T))
        code, _, err = run_cli(capsys, "torsion", "--input", strange_file,
                               "--element", str(elem), "--factor", factor,
                               "--degree", "5")
        assert code == 3
        assert "input error" in err and "zero denominator" in err

    @pytest.mark.parametrize("power, exit_code", [(1000, 2), (1001, 3)])
    def test_factor_exponent_cap(self, capsys, strange_file, tmp_path, power, exit_code):
        """h^1000 reaches the probe; h^1001 is refused before any allocation."""
        elem = tmp_path / "T.json"
        elem.write_text(json.dumps(TORSION_T))
        code, _, err = run_cli(capsys, "torsion", "--input", strange_file,
                               "--element", str(elem), "--factor", f"h^{power}",
                               "--degree", "5")
        assert code == exit_code
        assert ("exponent 1001 above 1000" in err) == (power == 1001)


class TestValidate:
    def test_valid(self, capsys, sl2_file):
        code, out, _ = run_cli(capsys, "validate", "--input", sl2_file)
        assert code == 0
        assert "lie" in out

    def test_zero_tails_echo(self, capsys, tmp_path):
        path = tmp_path / "free.json"
        path.write_text(json.dumps({"n": 2, "phi": []}))
        code, out, _ = run_cli(capsys, "validate", "--input", str(path))
        assert code == 0
        assert out.splitlines()[:2] == ["presentation: n=2", "  all phi = 0"]

    def test_invalid(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "phi": [
            {"i": 1, "j": 2, "terms": [{"word": [1, 2], "coeff": ["1"]}]}]}))
        code, out, _ = run_cli(capsys, "validate", "--input", str(path))
        assert code == 1
        assert "NotDeformation" in out


class TestObstruction:
    def test_extraction(self, capsys, tmp_path):
        path = tmp_path / "nj.json"
        path.write_text(json.dumps(NON_JACOBI))
        code, out, _ = run_cli(capsys, "obstruction", "--input", str(path), "--d2", "lie")
        assert code == 0
        assert "h-order 2" in out

    def test_pass_has_none(self, capsys, sl2_file):
        code, out, _ = run_cli(capsys, "obstruction", "--input", sl2_file, "--d2", "lie")
        assert code == 1
        assert "no obstruction" in out


def _koszul_value():
    """The terms of the Koszul d2(xi_123) in the custom differential format."""
    value = []
    for s, t, u in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        sign, sym = (1, [t, u]) if t < u else (-1, [u, t])
        value.append({"word": [{"x": s}, {"xi2": sym}], "coeff": [str(sign)]})
        value.append({"word": [{"xi2": sym}, {"x": s}], "coeff": [str(-sign)]})
    return value


class TestCustomDifferential:
    def test_custom_d2_file(self, capsys, sl2_file, tmp_path):
        """The unperturbed differential certifies sl2 (the correction cancels)."""
        d2_doc = [{"triple": [1, 2, 3], "value": _koszul_value()}]
        d2_file = tmp_path / "d2.json"
        d2_file.write_text(json.dumps(d2_doc))
        code, out, _ = run_cli(capsys, "certify", "--input", sl2_file,
                               "--d2", "custom", "--d2-file", str(d2_file))
        assert code == 0
        assert "pass" in out

    def test_custom_without_file_rejected(self, capsys, sl2_file):
        code, _, err = run_cli(capsys, "certify", "--input", sl2_file, "--d2", "custom")
        assert code == 3

    def test_value_not_koszul_at_h0_rejected(self, capsys, tmp_path):
        """An empty value is a cycle, but not the Koszul d2 at h = 0."""
        pres_file, d2_file = tmp_path / "non_jacobi.json", tmp_path / "d2.json"
        pres_file.write_text(json.dumps(NON_JACOBI))
        d2_file.write_text(json.dumps([{"triple": [1, 2, 3], "value": []}]))
        code, out, err = run_cli(capsys, "certify", "--input", str(pres_file),
                                 "--d2", "custom", "--d2-file", str(d2_file))
        assert code == 3 and out == ""
        assert "input error" in err and "does not reduce to the Koszul d2 at h = 0" in err

    def test_bad_symbol_rejected(self, capsys, sl2_file, tmp_path):
        d2_file = tmp_path / "d2.json"
        d2_file.write_text(json.dumps([{"triple": [1, 2, 3],
                                        "value": [{"word": [{"xi3": [1, 2, 3]}],
                                                   "coeff": ["1"]}]}]))
        code, _, err = run_cli(capsys, "certify", "--input", sl2_file,
                               "--d2", "custom", "--d2-file", str(d2_file))
        assert code == 3


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "pbwlab" in out


class TestContracts:
    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--input", "/nonexistent.json")
        assert code == 3
        assert "input error" in err

    @pytest.mark.parametrize("flag", ["--input", "--poly"])
    @pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
    def test_unreadable_file_is_input_error(self, capsys, strange_file, tmp_path, flag,
                                            unreadable):
        path = tmp_path / "unreadable"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes('[{"word": [1], "coeff": ["\u00e9"]}]'.encode("latin-1"))
        files = {"--input": strange_file, "--poly": strange_file, flag: str(path)}
        code, _, err = run_cli(capsys, "member", "--input", files["--input"],
                               "--poly", files["--poly"], "--degree", "3", "--generic")
        assert code == 3
        assert err.startswith(f"input error: cannot read {path}")

    def test_bad_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 3

    def test_json_reports_are_byte_identical(self, capsys, strange_file):
        _, out1, _ = run_cli(capsys, "pbw", "--input", strange_file,
                             "--at", "1", "--degree", "3", "--format", "json")
        _, out2, _ = run_cli(capsys, "pbw", "--input", strange_file,
                             "--at", "1", "--degree", "3", "--format", "json")
        assert out1 == out2
        report = json.loads(out1)
        assert report["result"]["dims"] == [1, 3, 6, 12]
        assert report["presentation"]["n"] == 3

    def test_usage_error_maps_to_input_error(self, capsys):
        code = main(["hilbert", "--input", "x.json", "--degree", "3"])
        capsys.readouterr()
        assert code == 3  # neither --at nor --generic


class TestMalformedInput:
    """Malformed documents are input errors (exit 3), never internal ones."""

    @pytest.mark.parametrize("doc, message", [
        ({"lie": {"n": 3, "c": [{"i": 1, "j": 2, "k": 3}]}},
         "needs fields i, j, k, value"),
        ({"lie": {"n": 3, "c": [{"i": "1", "j": 2, "k": 3, "value": "1"}]}},
         "bad structure constant indices ['1', 2, 3]"),
        ({"quadratic": {"n": 3, "alpha": [{"i": 1, "j": 2, "a": 1, "value": "1"}]}},
         "needs fields i, j, a, b, value"),
        ({"quadratic": {"n": 3, "alpha": [{"i": 1, "j": 2, "a": 1.5, "b": 1,
                                           "value": "1"}]}},
         "bad quadratic tensor indices [1, 2, 1.5, 1]"),
        ({"n": 3, "phi": [{"i": "1", "j": 2, "terms": []}]},
         "bad phi indices ['1', 2]"),
        ({"potential": {"n": "3", "terms": [{"cycle": [3, 2, 1], "coeff": ["0", "-1"]}]}},
         "bad generator count '3'"),
        ({"n": 3, "phi": [{"i": 1, "j": 2, "terms": [{"word": [9], "coeff": ["0"]}]}]},
         "bad word [9]"),
        ({"n": 3, "phi": 5}, "phi must be a list, not 5"),
        ({"potential": {"n": 3, "terms": 5}}, "potential terms must be a list, not 5"),
        ({"lie": {"n": 3, "c": 5}}, "structure constants c must be a list, not 5"),
        ({"quadratic": {"n": 3, "alpha": 5}}, "quadratic tensor alpha must be a list, not 5"),
        ({"potential": {"n": 3, "terms": [{"cycle": ["1"], "coeff": ["1"]}]}},
         "bad cycle ['1']"),
        ({"lie": {"n": 3, "c": [{"i": 2, "j": 2, "k": 1, "value": "1"}]}},
         "c_22^1 is zero by antisymmetry and is not stored"),
        ({"quadratic": {"n": 3, "alpha": [{"i": 3, "j": 3, "a": 1, "b": 2, "value": "1"}]}},
         "alpha_33 is zero by antisymmetry and is not stored"),
        ({"lie": {"n": 3, "c": [{"i": 1, "j": 2, "k": 3, "value": True}]}},
         "not a rational: True"),
        ({"n": 3, "phi": [{"i": 1, "j": 2, "terms": [{"word": [1], "coeff": 1.5}]}]},
         "not an h-polynomial: 1.5"),
        ({"n": 3, "phi": [{"i": 1, "j": 2, "terms": 5}]}, "an NCPoly must be a list of terms"),
        ({"n": 3, "phi": [{"i": 1, "j": 2, "terms": [5]}]}, "bad NCPoly term: 5"),
        ({"potential": {"n": 3, "terms": [5]}}, "bad potential term: 5"),
        ({"n": 3, "phi": [{"i": 1, "j": 2}]}, "bad phi entry: {'i': 1, 'j': 2}"),
    ], ids=["lie-missing-value", "lie-string-index", "quadratic-missing-b",
            "quadratic-float-index", "phi-string-index", "potential-string-n",
            "phi-zero-term-bad-letter", "phi-not-a-list", "potential-terms-not-a-list",
            "lie-c-not-a-list", "quadratic-alpha-not-a-list", "potential-string-letter",
            "lie-repeated-index", "quadratic-repeated-index", "lie-bool-value",
            "phi-float-coeff", "phi-terms-not-a-list", "phi-term-not-an-object",
            "potential-term-not-an-object", "phi-entry-missing-terms"])
    def test_constructor_entry(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 3
        assert "input error" in err and message in err

    def test_from_potential_string_n(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": "3", "terms": [{"cycle": [3, 2, 1],
                                                         "coeff": ["0", "-1"]}]}))
        code, _, err = run_cli(capsys, "from-potential", "--input", str(path))
        assert code == 3
        assert "input error" in err and "bad generator count '3'" in err

    @pytest.mark.parametrize("sub", [["from-potential"], ["derive", "--var", "1"]])
    def test_potential_file_not_an_object(self, capsys, tmp_path, sub):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"cycle": [1, 2], "coeff": ["1"]}]))
        code, _, err = run_cli(capsys, *sub, "--input", str(path))
        assert code == 3
        assert "input error" in err and "needs a generator count n" in err

    @pytest.mark.parametrize("d2_doc, message", [
        ([{"value": []}], "needs fields triple, value"),
        ([{"triple": [1, 2, 3], "value": [{"coeff": ["1"]}]}], "needs fields word, coeff"),
        ([{"triple": [1, 2, 3], "value": [{"word": [{"xi2": [1]}], "coeff": ["1"]}]}],
         "bad xi2 indices [1]"),
        ([{"triple": [1, 2, 3], "value": [{"word": [{"xi2": [1, 7]}], "coeff": ["1"]}]}],
         "bad xi2 indices [1, 7]"),
        ([{"triple": [1, 2, 3], "value": [{"word": [{"x": 7}, {"xi2": [1, 2]}],
                                           "coeff": ["1"]}]}],
         "bad x index [7]"),
        ([{"triple": [1, 2, 7], "value": []}], "bad triple [1, 2, 7]"),
        ([{"triple": [1, 2, 3], "value": [{"word": [{"x": 1}], "coeff": ["1"]}]}],
         "custom value for (1, 2, 3) is not of degree -1"),
        ([{"triple": [1, 2, 3], "value": [{"word": [{"x": 1}], "coeff": ["1"]},
                                          {"word": [{"xi2": [1, 2]}], "coeff": ["1"]}]}],
         "mixed cohomological degrees [-1, 0]"),
        # beside the Koszul value, every entry is summed into its triple (with
        # the permutation sign) or refused; none is dropped or overwritten
        ([{"triple": [1, 2, 3], "value": _koszul_value()},
          {"triple": [3, 2, 1], "value": [{"word": [{"x": 1}, {"xi2": [2, 3]}], "coeff": ["7"]}]}],
         "custom value for (1, 2, 3) does not reduce to the Koszul d2 at h = 0"),
        ([{"triple": [1, 2, 3], "value": _koszul_value()},
          {"triple": [1, 1, 2], "value": [{"word": [{"xi2": [1, 2]}], "coeff": ["1"]}]}],
         "triple [1, 1, 2] repeats an index"),
        ([{"triple": [1, 2, 3], "value": [{"word": [{"x": 1}], "coeff": ["1"]}]},
          {"triple": [1, 2, 3], "value": _koszul_value()}],
         "mixed cohomological degrees [-1, 0]"),
        ([{"triple": [1, 2, 3], "value": _koszul_value() + [
            {"word": [{"x": 1}, {"xi2": [2, 2]}], "coeff": ["0", "5"]}]}],
         "xi2 indices [2, 2] repeat an index"),
        ({"triple": [1, 2, 3], "value": []},
         "a custom differential is a list of {triple, value} entries"),
    ], ids=["no-triple", "no-word", "short-xi2", "xi2-out-of-range", "x-out-of-range",
            "triple-out-of-range", "degree-zero-value", "mixed-degree-value",
            "unordered-triple-summed", "repeated-index", "repeated-triple-summed",
            "repeated-xi2-index", "not-a-list"])
    def test_custom_differential(self, capsys, sl2_file, tmp_path, d2_doc, message):
        d2_file = tmp_path / "d2.json"
        d2_file.write_text(json.dumps(d2_doc))
        code, _, err = run_cli(capsys, "certify", "--input", sl2_file,
                               "--d2", "custom", "--d2-file", str(d2_file))
        assert code == 3
        assert "input error" in err and message in err


@pytest.mark.parametrize("entry", [e for entries in FROZEN.values() for e in entries],
                         ids=lambda e: e["name"])
def test_frozen_reports_replay_byte_identically(capsys, monkeypatch, entry):
    """The benchmark corpus's frozen CLI reports, exit codes included."""
    monkeypatch.chdir(REPO)
    code, out, _ = run_cli(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert out == entry["stdout"]


HRAT = {e["name"]: e["potential"]
        for e in json.loads((REPO / "benchmarks" / "corpus" / "hrat.json").read_text())}
HRAT_FROZEN = json.loads((REPO / "tests" / "data" / "hrat_generic_expected.json").read_text())


@pytest.mark.parametrize("entry", HRAT_FROZEN, ids=lambda e: e["name"])
def test_hrat_generic_reports_replay_byte_identically(capsys, monkeypatch, tmp_path, entry):
    """`hilbert --generic --degree 4 --format json` on each corpus potential, as
    frozen from the completion over Q[h]: the excluded polynomials, in order,
    are field quantities that the ring a completion reduces in must not move."""
    (tmp_path / f"{entry['name']}.json").write_text(json.dumps({"potential": HRAT[entry["name"]]}))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert out == entry["stdout"]


def test_cached_parser_answers_as_a_fresh_one(capsys, monkeypatch, sl2_file):
    """In one process, a valid command, two usage errors (in a subcommand and at
    the top), --version and the valid command again give the same exit codes,
    stdout and stderr from the parser built once as from one built afresh."""
    from pbwlab import cli

    valid = ["certify", "--input", sl2_file, "--d2", "lie", "--format", "json"]
    argvs = [valid, ["hilbert", "--input", sl2_file, "--degree", "three", "--at", "1"],
             ["nosuch"], ["--version"], valid]
    cli._build_parser.cache_clear()
    cached = [run_cli(capsys, *argv) for argv in argvs]
    assert cli._build_parser.cache_info()[:2] == (4, 1)   # hits, misses
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert [run_cli(capsys, *argv) for argv in argvs] == cached
    assert [code for code, _, _ in cached] == [0, 3, 3, 0, 0]
    assert cached[0] == cached[4] and "invalid int value" in cached[1][2]
    assert "usage: pbwlab " in cached[2][2] and cached[3][1] == "pbwlab 0.1.0\n"

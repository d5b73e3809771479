import json
from pathlib import Path

import pytest

from pbwlab.cli import main

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


class TestValidate:
    def test_valid(self, capsys, sl2_file):
        code, out, _ = run_cli(capsys, "validate", "--input", sl2_file)
        assert code == 0
        assert "lie" in out

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


class TestCustomDifferential:
    def test_custom_d2_file(self, capsys, sl2_file, tmp_path):
        """The unperturbed differential certifies sl2 (the correction cancels)."""
        value = []
        for s, t, u in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            sign, sym = (1, [t, u]) if t < u else (-1, [u, t])
            value.append({"word": [{"x": s}, {"xi2": sym}], "coeff": [str(sign)]})
            value.append({"word": [{"xi2": sym}, {"x": s}], "coeff": [str(-sign)]})
        d2_doc = [{"triple": [1, 2, 3], "value": value}]
        d2_file = tmp_path / "d2.json"
        d2_file.write_text(json.dumps(d2_doc))
        code, out, _ = run_cli(capsys, "certify", "--input", sl2_file,
                               "--d2", "custom", "--d2-file", str(d2_file))
        assert code == 0
        assert "pass" in out

    def test_custom_without_file_rejected(self, capsys, sl2_file):
        code, _, err = run_cli(capsys, "certify", "--input", sl2_file, "--d2", "custom")
        assert code == 3

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
    ], ids=["lie-missing-value", "lie-string-index", "quadratic-missing-b",
            "quadratic-float-index", "phi-string-index", "potential-string-n",
            "phi-zero-term-bad-letter", "phi-not-a-list", "potential-terms-not-a-list",
            "lie-c-not-a-list", "quadratic-alpha-not-a-list", "potential-string-letter"])
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
    ], ids=["no-triple", "no-word", "short-xi2", "xi2-out-of-range", "x-out-of-range",
            "triple-out-of-range"])
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

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from pbwlab.cyclic import CyclicWord
from pbwlab.errors import InputError
from pbwlab.freealg import NCPoly
from pbwlab.jsonio import (hpoly_from_json, hpoly_to_json, ncpoly_from_json,
                           ncpoly_to_json, parse_hpoly_string,
                           potential_from_json, potential_to_json,
                           presentation_from_json, presentation_to_json,
                           rational_from_json)
from pbwlab.presentations import Presentation, from_lie, from_quadratic
from pbwlab.scalars import HPoly


class TestRationals:
    def test_string_forms(self):
        assert rational_from_json("3/4") == Fraction(3, 4)
        assert rational_from_json("-2") == Fraction(-2)
        assert rational_from_json(5) == Fraction(5)

    def test_singleton_array_tolerated(self):
        assert rational_from_json(["1"]) == Fraction(1)

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            rational_from_json("x")
        with pytest.raises(InputError):
            rational_from_json([1, 2])


class TestHPolyJson:
    def test_roundtrip(self):
        p = HPoly([Fraction(1), Fraction(-1, 2)])
        assert hpoly_from_json(hpoly_to_json(p)) == p

    def test_flat_emission(self):
        assert hpoly_to_json(HPoly([0, 1])) == ["0", "1"]

    def test_nested_singletons_accepted(self):
        assert hpoly_from_json([["0"], ["1"]]) == HPoly.h()


class TestScalarStrings:
    @pytest.mark.parametrize("text,coeffs", [
        ("1-h", [1, -1]),
        ("h", [0, 1]),
        ("-h^2", [0, 0, -1]),
        ("2 + 3*h^2", [2, 0, 3]),
        ("1/2h", [0, Fraction(1, 2)]),
        ("-1/2 + h - h", [Fraction(-1, 2)]),
    ])
    def test_parse(self, text, coeffs):
        assert parse_hpoly_string(text) == HPoly(coeffs)

    @pytest.mark.parametrize("text", ["", "h^", "1+", "(1-h)", "x", "1/0", "3/0*h"])
    def test_rejects(self, text):
        with pytest.raises(InputError):
            parse_hpoly_string(text)


class TestNCPolyJson:
    def test_documented_example(self):
        got = ncpoly_from_json([{"word": [1, 2], "coeff": ["0", "1"]}], 2)
        assert got == NCPoly(2, {(1, 2): HPoly.h()})

    def test_roundtrip(self):
        p = NCPoly(3, {(1, 2): HPoly([1, -1]), (3,): HPoly([0, 0, 2])})
        assert ncpoly_from_json(ncpoly_to_json(p), 3) == p

    def test_repeated_words_accumulate_in_order(self):
        got = ncpoly_from_json([{"word": [2], "coeff": ["1"]}, {"word": [1], "coeff": ["3"]},
                                {"word": [2], "coeff": ["-1"]}, {"word": [], "coeff": ["0"]},
                                {"word": [1], "coeff": ["0", "1"]}], 2)
        assert got.terms == {(1,): HPoly([3, 1])}
        got = ncpoly_from_json([{"word": [2, 1], "coeff": ["1"]}, {"word": [1], "coeff": ["2"]},
                                {"word": [2, 1], "coeff": ["1"]}], 2)
        assert list(got.terms.items()) == [((2, 1), HPoly([2])), ((1,), HPoly([2]))]

    @pytest.mark.parametrize("word", [[3], [0], [True], [1.0], "12", [[1]]])
    def test_rejects_bad_letters_even_with_zero_coefficient(self, word):
        for coeff in (["1"], ["0"]):
            with pytest.raises(InputError):
                ncpoly_from_json([{"word": [1], "coeff": ["1"]},
                                  {"word": word, "coeff": coeff}], 2)


class TestPotentialJson:
    def test_canonicalizes_cycles_on_load(self):
        doc = {"n": 3, "terms": [{"cycle": [3, 2, 1], "coeff": ["0", "-1"]}]}
        pot = potential_from_json(doc)
        assert list(pot.terms) == [CyclicWord(3, (1, 3, 2))]

    def test_roundtrip(self, strange_potential):
        assert potential_from_json(potential_to_json(strange_potential)) == strange_potential


class TestPresentationJson:
    def test_roundtrip(self, sl2):
        p = from_lie(sl2)
        assert presentation_from_json(presentation_to_json(p)) == p

    def test_lie_wrapper(self, sl2):
        doc = {"lie": {"n": 3, "c": [
            {"i": 1, "j": 2, "k": 3, "value": "1"},
            {"i": 1, "j": 3, "k": 1, "value": "-2"},
            {"i": 2, "j": 3, "k": 2, "value": "2"}]}}
        assert presentation_from_json(doc) == from_lie(sl2)

    def test_lie_wrapper_flips_reversed_pairs(self):
        doc = {"lie": {"n": 3, "c": [{"i": 3, "j": 1, "k": 1, "value": "2"}]}}
        p = presentation_from_json(doc)
        assert p.phi_at(1, 3) == NCPoly(3, {(1,): -(HPoly.h() * 2)})

    def test_quadratic_wrapper(self, quantum_plane):
        doc = {"quadratic": {"n": 2, "alpha": [
            {"i": 1, "j": 2, "a": 1, "b": 2, "value": "1"}]}}
        assert presentation_from_json(doc) == from_quadratic(quantum_plane)

    def test_potential_wrapper(self, strange_presentation):
        doc = {"potential": {"n": 3, "terms": [
            {"cycle": [3, 2, 1], "coeff": ["0", "-1"]}]}}
        assert presentation_from_json(doc) == strange_presentation

    def test_rejects_malformed(self):
        with pytest.raises(InputError):
            presentation_from_json({"n": 2})
        with pytest.raises(InputError):
            presentation_from_json({"n": 2, "phi": [{"i": 1, "j": 1, "terms": []}]})

    @settings(max_examples=50)
    @given(st.integers(2, 3).flatmap(
        lambda n: st.dictionaries(
            st.tuples(st.integers(1, n - 1), st.integers(1, n)).filter(lambda t: t[0] < t[1]),
            sts.ncpolys(n, max_terms=3, max_len=2),
            max_size=3).map(lambda phi: Presentation(n, {k: v.map_coeffs(
                lambda c: c * HPoly.h()) for k, v in phi.items() if v}))))
    def test_random_roundtrip(self, p):
        assert presentation_from_json(presentation_to_json(p)) == p

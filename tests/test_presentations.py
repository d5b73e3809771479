from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from pbwlab.errors import BadIndex
from pbwlab.freealg import NCPoly, hbar_coefficient
from pbwlab.presentations import (LieData, Presentation, QuadData, from_lie,
                                  from_quadratic, lie_data_of, quad_data_of,
                                  validate)
from pbwlab.scalars import HPoly


class TestFromLie:
    def test_sl2(self, sl2):
        p = from_lie(sl2)
        h = HPoly.h()
        assert p.phi_at(1, 2) == NCPoly(3, {(3,): h})
        assert p.phi_at(1, 3) == NCPoly(3, {(1,): -(h * 2)})
        assert p.phi_at(2, 3) == NCPoly(3, {(2,): h * 2})
        assert p.filtration_ok

    def test_abelian(self):
        p = from_lie(LieData(3, {}))
        assert not p.phi

    def test_single_constant(self):
        p = from_lie(LieData(3, {(1, 2, 1): Fraction(1)}))
        assert p.phi_at(1, 2) == NCPoly(3, {(1,): HPoly.h()})


class TestFromQuadratic:
    def test_quantum_plane(self):
        p = from_quadratic(QuadData(2, {(1, 2, 1, 2): Fraction(3)}))
        assert p.phi_at(1, 2) == NCPoly(2, {(1, 2): HPoly.h() * 3})

    def test_zero(self):
        assert not from_quadratic(QuadData(3, {})).phi

    def test_reversed_upper_indices(self):
        p = from_quadratic(QuadData(3, {(1, 2, 2, 1): Fraction(-1)}))
        assert p.phi_at(1, 2) == NCPoly(3, {(2, 1): -HPoly.h()})


class TestAccessor:
    def test_antisymmetry_and_diagonal(self, sl2):
        p = from_lie(sl2)
        for i in range(1, 4):
            assert not p.phi_at(i, i)
            for j in range(1, 4):
                assert p.phi_at(j, i) == -p.phi_at(i, j)

    def test_index_bounds(self, sl2):
        p = from_lie(sl2)
        with pytest.raises(BadIndex):
            p.phi_at(0, 1)
        with pytest.raises(BadIndex):
            p.phi_at(1, 4)

    def test_rejects_badly_keyed_phi(self):
        with pytest.raises(BadIndex):
            Presentation(3, {(2, 1): NCPoly(3, {(1,): HPoly.h()})})


class TestRelation:
    def test_polynomial_relation(self):
        p = Presentation(2)
        assert p.relation(1, 2) == NCPoly(2, {(1, 2): HPoly.one(), (2, 1): -HPoly.one()})

    def test_sl2_relation(self, sl2):
        p = from_lie(sl2)
        rel = p.relation(1, 2)
        assert rel == NCPoly(3, {(1, 2): HPoly.one(), (2, 1): -HPoly.one(),
                                 (3,): -HPoly.h()})


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(lambda n: sts.lie_datas(n)))
def test_lie_roundtrip(data):
    assert lie_data_of(from_lie(data)) == data


@settings(max_examples=60)
@given(st.integers(2, 3).flatmap(lambda n: sts.quad_datas(n)))
def test_quadratic_hbar_slice(data):
    p = from_quadratic(data)
    for (i, j) in p.pairs():
        expected = NCPoly.zero(data.n)
        for a in range(1, data.n + 1):
            for b in range(1, data.n + 1):
                v = data.alpha_at(i, j, a, b)
                if v:
                    expected = expected + NCPoly(data.n, {(a, b): v})
        assert hbar_coefficient(p.phi_at(i, j), 1) == expected
    assert quad_data_of(p) == data


class TestValidate:
    def test_sl2_paths(self, sl2):
        report = validate(from_lie(sl2))
        assert report.valid and report.filtration_ok
        assert "lie" in report.paths

    def test_not_deformation(self):
        p = Presentation(2, {(1, 2): NCPoly(2, {(1, 2): HPoly.one()})})
        report = validate(p)
        assert not report.valid
        assert any("NotDeformation" in msg for msg in report.problems)

    def test_potential_and_quadratic_paths(self, strange_presentation):
        report = validate(strange_presentation)
        assert report.valid
        assert set(report.paths) >= {"potential", "quadratic"}

    def test_generic_path(self):
        # mixed linear + quadratic tail fits no specialized constructor
        p = Presentation(3, {(1, 2): NCPoly(3, {(1,): HPoly.h(), (1, 2): HPoly.h()})})
        report = validate(p)
        assert report.paths == ["generic"]

    def test_unbounded_degree_flag(self):
        p = Presentation(2, {(1, 2): NCPoly(2, {(1, 1, 1): HPoly.h()})})
        report = validate(p)
        assert report.valid and not report.filtration_ok
        assert any("FiltrationUnbounded" in msg for msg in report.problems)


@pytest.mark.parametrize("build, data, text", [
    (from_lie, LieData(3, {(2, 1, 3): Fraction(1)}), "bad structure constant index (2, 1, 3)"),
    (from_lie, LieData(3, {(1, 1, 3): Fraction(1)}), "bad structure constant index (1, 1, 3)"),
    (from_lie, LieData(3, {(1, 2, 4): Fraction(0)}), "bad structure constant index (1, 2, 4)"),
    (from_quadratic, QuadData(3, {(1, 4, 1, 1): Fraction(1)}),
     "bad quadratic tensor index (1, 4, 1, 1)"),
    (from_quadratic, QuadData(3, {(1, 2, 0, 1): Fraction(0)}),
     "bad quadratic tensor index (1, 2, 0, 1)"),
], ids=["lie-swapped", "lie-diagonal", "lie-zero-out-of-range", "quad-pair", "quad-zero-word"])
def test_constructor_rejects_out_of_range_keys(build, data, text):
    """Keys are checked before zero values are skipped; each constructor keeps its text."""
    with pytest.raises(BadIndex) as err:
        build(data)
    assert str(err.value) == text


def test_constructors_skip_zero_values():
    h = HPoly.h()
    lie = LieData(3, {(1, 2, 3): Fraction(0), (1, 3, 2): Fraction(1), (1, 3, 1): Fraction(0)})
    assert from_lie(lie).phi == {(1, 3): NCPoly(3, {(2,): h})}
    quad = QuadData(3, {(1, 2, 1, 2): Fraction(0), (2, 3, 3, 1): Fraction(-2)})
    assert from_quadratic(quad).phi == {(2, 3): NCPoly(3, {(3, 1): h * -2})}


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(sts.lie_datas(n), sts.quad_datas(n))))
def test_signed_reads_are_antisymmetric(datas):
    lie, quad = datas
    n, p, q = lie.n, from_lie(lie), from_quadratic(quad)
    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            assert p.phi_at(j, i) == -p.phi_at(i, j)
            assert q.phi_at(j, i) == -q.phi_at(i, j)
            for a in rng:
                assert lie.c_at(j, i, a) == -lie.c_at(i, j, a)
                for b in rng:
                    assert quad.alpha_at(j, i, a, b) == -quad.alpha_at(i, j, a, b)
        assert not p.phi_at(i, i) and not q.phi_at(i, i)


def test_signed_reads_ignore_diagonal_and_swapped_keys():
    """Only keys with i < j are read: a stored (i, i, ...) or (j, i, ...) key reads as 0
    at its own position, and a swapped key does not stand in for the stored one."""
    lie = LieData(3, {(2, 2, 1): Fraction(5), (2, 1, 3): Fraction(1)})
    assert lie.c_at(2, 2, 1) == 0
    assert lie.c_at(2, 1, 3) == 0 and lie.c_at(1, 2, 3) == 0
    quad = QuadData(3, {(3, 3, 1, 2): Fraction(5), (3, 1, 1, 1): Fraction(1)})
    assert quad.alpha_at(3, 3, 1, 2) == 0
    assert quad.alpha_at(3, 1, 1, 1) == 0 and quad.alpha_at(1, 3, 1, 1) == 0
    assert isinstance(lie.c_at(1, 1, 1), Fraction)
    assert isinstance(quad.alpha_at(1, 1, 1, 1), Fraction)


@pytest.mark.parametrize("tail, lie, quad", [
    ({(3,): HPoly.h(2)}, False, False),
    ({(1, 2): HPoly.h(2)}, False, False),
    ({(3,): HPoly([0, 1, 1])}, False, False),
    ({(3,): HPoly.h()}, True, False),
    ({(1, 2): HPoly.h()}, False, True),
    ({(): HPoly.h()}, False, False),
    ({(1, 2, 3): HPoly.h()}, False, False),
    ({(3,): HPoly.one()}, False, False),
    ({(3,): HPoly.h(), (1, 2): HPoly.h()}, False, False),
], ids=["h2-linear", "h2-quadratic", "h-plus-h2", "h-linear", "h-quadratic", "constant-word",
        "cubic-word", "not-divisible", "mixed-lengths"])
def test_tensor_readers_refuse_other_tails(tail, lie, quad):
    p = Presentation(3, {(1, 2): NCPoly(3, tail)})
    assert (lie_data_of(p) is not None) == lie
    assert (quad_data_of(p) is not None) == quad

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from pbwlab.cyclic import CyclicWord, Potential
from pbwlab.errors import AmbientMismatch, UndefinedDegree
from pbwlab.freealg import (NCPoly, commutator, hbar_coefficient, nc_mul,
                            specialize)
from pbwlab.koszul import KoszulPoly, d2_default
from pbwlab.scalars import HPoly, HRat


def x(n, *letters):
    return NCPoly.word(n, letters, HPoly.one())


class TestMul:
    def test_concatenation(self):
        assert nc_mul(x(2, 1), x(2, 2)) == x(2, 1, 2)

    def test_unit_law(self):
        p = x(2, 1, 2) - x(2, 2, 1)
        assert nc_mul(p, NCPoly.unit(2, HPoly.one())) == p

    def test_expand(self):
        p = x(2, 1) + x(2, 2)
        q = x(2, 1) - x(2, 2)
        assert nc_mul(p, q) == x(2, 1, 1) - x(2, 1, 2) + x(2, 2, 1) - x(2, 2, 2)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            nc_mul(x(2, 1), x(3, 1))


class TestCommutator:
    def test_self_commutator(self):
        assert not commutator(x(2, 1), x(2, 1))

    def test_basic(self):
        assert commutator(x(2, 1), x(2, 2)) == x(2, 1, 2) - x(2, 2, 1)

    def test_word_against_generator(self):
        assert commutator(x(3, 1, 2), x(3, 3)) == x(3, 1, 2, 3) - x(3, 3, 1, 2)


class TestDegX:
    def test_single_word(self):
        assert x(3, 1, 2, 3).deg_x() == 3

    def test_max_over_support(self):
        p = NCPoly(3, {(1,): HPoly.h(), (2, 3): HPoly.h(2)})
        assert p.deg_x() == 2

    def test_unit(self):
        assert NCPoly.unit(3, HPoly.one()).deg_x() == 0

    def test_zero_undefined(self):
        with pytest.raises(UndefinedDegree):
            NCPoly.zero(3).deg_x()


class TestHbarCoefficient:
    def test_read_off(self):
        p = NCPoly(2, {(1,): HPoly.one(), (2,): HPoly.h()})
        assert hbar_coefficient(p, 1) == NCPoly(2, {(2,): Fraction(1)})

    def test_absent_power(self):
        p = NCPoly(2, {(1,): HPoly.one(), (2,): HPoly.h()})
        assert not hbar_coefficient(p, 5)

    def test_expanded_product(self):
        one_minus_h = HPoly([1, -1])
        p = NCPoly(3, {(3, 2, 1): -one_minus_h, (1, 3, 2): one_minus_h})
        expected = NCPoly(3, {(3, 2, 1): Fraction(1), (1, 3, 2): Fraction(-1)})
        assert hbar_coefficient(p, 1) == expected


class TestSpecialize:
    def test_at_one(self):
        p = NCPoly(3, {(2, 1): HPoly.h()})
        assert specialize(p, Fraction(1)) == NCPoly(3, {(2, 1): Fraction(1)})

    def test_root_kills_support(self):
        p = NCPoly(3, {(1,): HPoly([1, -1])})
        assert not specialize(p, Fraction(1))

    def test_half(self):
        p = NCPoly(3, {(1, 2): HPoly.one(), (2, 1): -HPoly.one(), (3,): -HPoly.h()})
        got = specialize(p, Fraction(1, 2))
        assert got == NCPoly(3, {(1, 2): Fraction(1), (2, 1): Fraction(-1),
                                 (3,): Fraction(-1, 2)})


@settings(max_examples=60)
@given(sts.ncpolys(3), sts.ncpolys(3), sts.ncpolys(3))
def test_mul_associative(p, q, r):
    assert nc_mul(nc_mul(p, q), r) == nc_mul(p, nc_mul(q, r))


@settings(max_examples=60)
@given(sts.ncpolys(2, max_terms=3, max_len=2), sts.ncpolys(2, max_terms=3, max_len=2),
       sts.ncpolys(2, max_terms=3, max_len=2))
def test_commutator_jacobi_identity(p, q, r):
    total = (commutator(commutator(p, q), r)
             + commutator(commutator(q, r), p)
             + commutator(commutator(r, p), q))
    assert not total


@given(sts.ncpolys(3), sts.ncpolys(3), sts.rationals())
def test_specialize_is_algebra_homomorphism(p, q, a):
    assert specialize(nc_mul(p, q), a) == nc_mul(specialize(p, a), specialize(q, a))
    assert specialize(p + q, a) == specialize(p, a) + specialize(q, a)


@given(sts.ncpolys(3))
def test_hbar_decomposition_reassembles(p):
    top = max((c.degree for c in p.terms.values()), default=-1)
    total = NCPoly.zero(3)
    for k in range(top + 1):
        piece = hbar_coefficient(p, k).map_coeffs(lambda q: HPoly.h(k) * q)
        total = total + piece
    assert total == p


def test_sorted_terms_deglex():
    p = NCPoly(2, {(2,): HPoly.one(), (1, 1): HPoly.one(), (1,): HPoly.one(),
                   (): HPoly.one()})
    assert [w for w, _ in p.sorted_terms()] == [(), (1,), (2,), (1, 1)]


_H = HPoly.h()
STR_FORMS = [
    (NCPoly(3, {(2, 1): Fraction(-3, 2), (): Fraction(1), (1,): Fraction(-1), (3,): Fraction(1),
                (1, 3, 2): Fraction(5)}),
     "1 - x1 + x3 - 3/2*x2*x1 + 5*x1*x3*x2"),
    (NCPoly(3, {(2, 1): 1 + _H, (): -_H, (1,): HPoly.const(-1), (3,): 2 * _H * _H,
                (1, 2): HPoly.one(), (2, 2): _H - 1}),
     "-h - x1 + 2*h^2*x3 + x1*x2 + (1 + h)*x2*x1 + (-1 + h)*x2*x2"),
    (NCPoly(3, {(2, 1): HRat(_H, 1 + _H), (): HRat(-_H), (1,): HRat(-1), (3,): HRat(1 + _H),
                (2, 2): HRat(2)}),
     "-h - x1 + (1 + h)*x3 + ((h)/(1 + h))*x2*x1 + 2*x2*x2"),
    (NCPoly.zero(3), "0"),
    (d2_default(3)[(1, 2, 3)],
     "x1*xi23 - x2*xi13 + x3*xi12 - xi12*x3 + xi13*x2 - xi23*x1"),
    (Potential(3, {CyclicWord(3, (3, 2, 1)): -_H, CyclicWord(3, (1, 1, 2)): 1 + _H,
                   CyclicWord(3, (2,)): Fraction(1, 2)}),
     "1/2*Cycl(x2) + (1 + h)*Cycl(x1*x1*x2) - h*Cycl(x1*x3*x2)"),
]


@pytest.mark.parametrize("poly, text", STR_FORMS)
def test_str_of_word_polynomials(poly, text):
    """Terms in deglex order, each a scaled monomial, joined with their signs."""
    assert str(poly) == text


CORE_TYPES = {
    "NCPoly": sts.ncpolys(3),
    "KoszulPoly": sts.ncpolys(3).map(KoszulPoly.from_ncpoly),
    "Potential": sts.potentials(3),
}


@pytest.mark.parametrize("kind", list(CORE_TYPES))
@settings(max_examples=60)
@given(data=st.data())
def test_core_linear_structure(kind, data):
    p = data.draw(CORE_TYPES[kind])
    q = data.draw(CORE_TYPES[kind])
    scalar = data.draw(sts.hpolys(max_degree=1))
    assert not (p + (-p)).terms
    assert (p + q) - q == p
    for r in (p, p + q, p - q, q - p, -p, p.scale(scalar), (p + q) - p):
        assert type(r) is type(p) and r.n == p.n
        assert all(r.terms.values())


@given(sts.ncpolys(3), sts.ncpolys(3))
def test_from_ncpoly_respects_sum_and_product(p, q):
    k = KoszulPoly.from_ncpoly
    assert k(p + q) == k(p) + k(q)
    assert k(p * q) == k(p) * k(q)
    assert k(p).to_ncpoly() == p


@pytest.mark.parametrize("make", [
    lambda n: NCPoly.gen(n, 1, HPoly.one()),
    lambda n: KoszulPoly.from_ncpoly(NCPoly.gen(n, 1, HPoly.one())),
    lambda n: Potential.single(n, (1, 1)),
], ids=list(CORE_TYPES))
def test_mismatched_ambient_raises(make):
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(AmbientMismatch):
            op(make(2), make(3))
    if not isinstance(make(2), Potential):
        with pytest.raises(AmbientMismatch):
            make(2) * make(3)


def test_mixing_types_is_a_type_error():
    p = NCPoly.gen(3, 1, HPoly.one())
    k = KoszulPoly.from_ncpoly(p)
    pot = Potential.single(3, (1, 2))
    for a, b in ((p, k), (k, p), (p, pot), (pot, k)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a * b

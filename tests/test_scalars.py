from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import hpoly_divmod_reference, rational_roots_reference
from pbwlab.scalars import (HPoly, HRat, clear_hrat_denominators, hpoly_gcd,
                            rational_roots)


class TestHPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert HPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert HPoly([0, 0]).coeffs == ()

    def test_eval_monomial(self):
        assert HPoly.h().eval(Fraction(1)) == 1

    def test_eval_one_minus_h_at_one(self):
        assert HPoly([1, -1]).eval(Fraction(1)) == 0

    def test_eval_mixed(self):
        # 2 + 3 h^2 at 1/2
        assert HPoly([2, 0, 3]).eval(Fraction(1, 2)) == Fraction(11, 4)

    def test_degree_and_divisibility(self):
        assert HPoly.zero().degree == -1
        assert HPoly([0, 1]).divisible_by_h()
        assert not HPoly([2, 1]).divisible_by_h()
        assert HPoly.zero().divisible_by_h()

    def test_divmod(self):
        p = HPoly([1, 0, -1])  # 1 - h^2
        q, r = divmod(p, HPoly([1, -1]))
        assert not r
        assert q * HPoly([1, -1]) == p

    def test_gcd_monic(self):
        g = hpoly_gcd(HPoly([1, -1]) * HPoly([0, 1]), HPoly([1, -1]) * HPoly([2]))
        assert g == HPoly([-1, 1])  # h - 1, monic

    def test_str(self):
        assert str(HPoly([1, -1])) == "1 - h"
        assert str(HPoly.zero()) == "0"


class TestHRatCanonical:
    def test_inverse_of_one_minus_h(self):
        r = HRat(HPoly.one(), HPoly([1, -1]))
        assert r.den == HPoly([-1, 1])  # monic: h - 1
        assert r.num == HPoly([-1])

    def test_inverse_pair(self):
        h = HRat(HPoly.h())
        assert h * h.inv() == HRat.one()

    def test_sum_of_geometric_pieces(self):
        r = HRat(HPoly.one(), HPoly([1, -1])) + HRat(HPoly.one(), HPoly([1, 1]))
        # 2/(1-h^2) in canonical form
        assert r == HRat(HPoly([2]), HPoly([1, 0, -1]))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            HRat(HPoly.one(), HPoly.zero())
        with pytest.raises(ZeroDivisionError):
            HRat.zero().inv()

    def test_canonical_idempotence(self):
        r = HRat(HPoly([0, 2, 2]), HPoly([2, 2]))
        again = HRat(r.num, r.den)
        assert (r.num, r.den) == (again.num, again.den)


@given(sts.hpolys(), sts.hpolys(), sts.hpolys())
def test_hpoly_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + (-p) == HPoly.zero()
    assert p * HPoly.one() == p


def _fraction_convolution(xs, ys):
    out = [Fraction(0)] * max(len(xs) + len(ys) - 1, 0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


@given(st.lists(sts.rationals(bound=50, max_denominator=36), max_size=6),
       st.lists(sts.rationals(bound=50, max_denominator=36), max_size=6))
def test_hpoly_product_matches_fraction_convolution(xs, ys):
    p, q = HPoly(xs), HPoly(ys)
    got = p * q
    assert list(got.coeffs) == _fraction_convolution(p.coeffs, q.coeffs)
    assert all(type(c) is Fraction for c in got.coeffs)


@given(sts.hpolys(), sts.hpolys(), sts.rationals())
def test_eval_is_ring_homomorphism(p, q, a):
    assert (p * q).eval(a) == p.eval(a) * q.eval(a)
    assert (p + q).eval(a) == p.eval(a) + q.eval(a)


@settings(max_examples=60)
@given(sts.hrats(), sts.hrats(), sts.hrats())
def test_hrat_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == HRat.zero()
    if x:
        assert x * x.inv() == HRat.one()


@given(sts.hrats())
def test_hrat_canonical_form(x):
    assert x.den.lead == 1
    if x:
        assert hpoly_gcd(x.num, x.den) == HPoly.one()
    else:
        assert x.den == HPoly.one()


def test_rational_roots():
    # (h - 1)(2h + 3)
    p = HPoly([-1, 1]) * HPoly([3, 2])
    assert rational_roots(p) == [Fraction(-3, 2), Fraction(1)]
    assert rational_roots(HPoly([0, 0, 1])) == [Fraction(0)]
    assert rational_roots(HPoly([5])) == []


def _linear_factors():
    return st.tuples(st.integers(-8, 8), st.integers(1, 8)) \
        .map(lambda t: HPoly([-t[0], t[1]]))


@given(st.lists(_linear_factors(), max_size=3), sts.nonzero_hpolys(),
       st.integers(1, 2), st.integers(0, 2))
@example([], HPoly([Fraction(1, 3), 2, 0, -1]), 1, 1)
@settings(max_examples=150, deadline=None)
def test_rational_roots_matches_divisor_enumeration(factors, cofactor, power, h_power):
    """Sturm isolation against the rational root test, repeated roots and
    the root 0 included.  The explicit example has an irrational root within
    1/(2 L^2) of the rational root 0, whose nearest fraction is 0 itself."""
    p = cofactor * HPoly.h(h_power)
    for f in factors:
        for _ in range(power):
            p = p * f
    assert rational_roots(p) == rational_roots_reference(p)


def test_rational_roots_of_a_60_bit_prime():
    # the divisor enumeration would trial-divide up to 2^30 here
    prime = 1152921504606846883
    assert rational_roots(HPoly([prime, -1])) == [Fraction(prime)]
    p = HPoly([prime, -1]) * HPoly([2, 3]) * HPoly([2, 3]) * HPoly([1, 0, 1])
    assert rational_roots(p) == [Fraction(-2, 3), Fraction(prime)]
    assert rational_roots(HPoly([prime, 0, -7])) == []


@given(sts.hpolys(), sts.nonzero_hpolys())
def test_divmod_reconstructs(p, d):
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree < d.degree or not r


@given(sts.hpolys(max_degree=2), sts.nonzero_hpolys(max_degree=2))
def test_hrat_constructor_agrees_with_division(num, den):
    assert HRat(num, den) == HRat(num) / HRat(den)


@given(sts.hpolys(), sts.nonzero_hpolys(), sts.nonzero_hpolys(max_degree=2))
def test_floordiv_is_exact(p, d, r):
    assert (p * d) // d == p
    # a remainder r of lower degree than a non-constant divisor d * (1 + h) is not divisible
    divisor = d * HPoly([1, 1])
    remainder = HPoly(r.coeffs[:divisor.degree])
    if remainder:
        with pytest.raises(ValueError):
            (p * divisor + remainder) // divisor


def _wide_hpolys(max_degree):
    return st.lists(sts.rationals(bound=50, max_denominator=36),
                    max_size=max_degree + 1).map(HPoly)


@settings(max_examples=200)
@given(_wide_hpolys(7), _wide_hpolys(4), sts.hpolys(max_degree=2))
def test_divmod_matches_fraction_long_division(p, d, q):
    """Integer pseudo-division against the Fraction long division, on random,
    exact and inexact quotients, including the zero divisor."""
    for dividend in (p, q * d, q * d + p):
        if not d:
            with pytest.raises(ZeroDivisionError):
                divmod(dividend, d)
            with pytest.raises(ZeroDivisionError):
                dividend // d
            continue
        quo, rem = divmod(dividend, d)
        ref_quo, ref_rem = hpoly_divmod_reference(dividend, d)
        assert (quo.coeffs, rem.coeffs) == (ref_quo.coeffs, ref_rem.coeffs)
        assert all(type(c) is Fraction for c in quo.coeffs + rem.coeffs)
        if rem:
            with pytest.raises(ValueError):
                dividend // d
        else:
            assert (dividend // d).coeffs == ref_quo.coeffs


@settings(max_examples=50)
@given(st.lists(sts.hrats(), max_size=5))
def test_clear_hrat_denominators(values):
    den, nums = clear_hrat_denominators(values)
    assert den.lead == 1
    assert [HRat(num, den) for num in nums] == values
    assert all((den // v.den) * v.den == den for v in values)

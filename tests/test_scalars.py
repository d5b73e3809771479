from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import (clear_hrat_denominators, hpoly_divmod_reference, hpoly_gcd_reference,
                     monic_reference, rational_roots_reference)
from pbwlab.scalars import (ZPOLYS, HPoly, HRat, _hpoly_over, _pack_bits, _zpoly_gcd,
                            _zpoly_pack, _zpoly_quotient, _zpoly_split, _zpoly_unpack,
                            _ZPoly, hpoly_gcd, rational_roots)


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
        assert HPoly([1, 0, -1]) // HPoly([1, -1]) == HPoly([1, 1])  # (1 - h^2) / (1 - h)

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
        for den in (HPoly.zero(), 0, Fraction(0), HRat.zero()):
            with pytest.raises(ZeroDivisionError):
                HRat(HPoly.one(), den)
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


@given(sts.rationals(bound=50, max_denominator=36),
       st.lists(sts.rationals(bound=50, max_denominator=36), max_size=6),
       st.sampled_from(["hpoly", "fraction", "int"]))
@example(Fraction(0), [Fraction(1), Fraction(-2)], "hpoly")
@example(Fraction(0), [Fraction(3)], "int")
@example(Fraction(-3, 4), [Fraction(0), Fraction(5, 6), Fraction(0), Fraction(-1)], "hpoly")
@example(Fraction(-2), [Fraction(1, 2), Fraction(7)], "int")
@example(Fraction(5, 3), [], "fraction")
@example(Fraction(1), [Fraction(0), Fraction(-1, 3)], "hpoly")
@example(Fraction(1), [Fraction(2)], "int")
@example(Fraction(-1), [Fraction(1, 2), Fraction(0), Fraction(4)], "fraction")
def test_constant_times_polynomial_matches_convolution(c, ys, kind):
    """A constant operand, on either side, gives the general convolution product:
    the same coefficient tuple of Fractions and no trailing zero."""
    q = HPoly(ys)
    value = Fraction(int(c)) if kind == "int" else c
    const = {"hpoly": HPoly.const(value), "fraction": value, "int": int(c)}[kind]
    expected = _fraction_convolution(HPoly.const(value).coeffs, q.coeffs)
    for got in (const * q, q * const):
        assert got.coeffs == tuple(expected)
        assert all(type(v) is Fraction for v in got.coeffs)
        assert not got.coeffs or got.coeffs[-1] != 0


class TestHashMatchesEquality:
    def test_constant_hpoly_is_found_among_numbers(self):
        assert HPoly.const(3) == 3
        assert len({HPoly.const(3), 3}) == 1
        assert {3: "x"}.get(HPoly.const(3)) == "x"
        assert {Fraction(1, 2): "y"}.get(HPoly.const(Fraction(1, 2))) == "y"
        assert {0: "z"}.get(HPoly.zero()) == "z"
        assert {HPoly.const(-2): "w"}.get(-2) == "w"

    def test_hrat_over_one_is_found_as_its_numerator(self):
        num = HPoly([1, -1, 2])
        assert HRat(num) == num
        assert len({HRat(num), num}) == 1
        assert {num: "x"}.get(HRat(num)) == "x"
        assert {3: "y"}.get(HRat(3)) == "y"
        assert len({HRat(HPoly.zero()), HPoly.zero(), 0}) == 1
        assert HRat(num, HPoly([0, 1])) != num

    @given(sts.hpolys(bound=4), sts.hpolys(bound=4))
    def test_equal_values_hash_alike(self, p, q):
        for a, b in ((p, q), (HRat(p), q), (HRat(p), HRat(q))):
            if a == b:
                assert hash(a) == hash(b)
        if p.is_constant():
            assert hash(p) == hash(p.coeff(0)) and hash(HRat(p)) == hash(p.coeff(0))


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
@example([HPoly([-1, 2])], HPoly([3, 0, -2]), 1, 0)
@settings(max_examples=150, deadline=None)
def test_rational_roots_matches_divisor_enumeration(factors, cofactor, power, h_power):
    """Sturm isolation against the rational root test, repeated roots and
    the root 0 included.  The first explicit example has an irrational root
    within 1/(2 L^2) of the rational root 0, whose nearest fraction is 0
    itself; the second has a negative leading coefficient."""
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
@example(HPoly([3, 1, -2]), HPoly([-2, 0, -3]), HPoly([1, -1]))  # negative leads
@example(HPoly([1, 2]), HPoly([Fraction(-3, 4)]), HPoly([Fraction(5, 2)]))  # constant divisor
@example(HPoly(), HPoly([1, 1]), HPoly())  # zero dividend
def test_divmod_matches_fraction_long_division(p, d, q):
    """Exact division on the Z[h] kernel against the Fraction long division, on
    random, exact and inexact quotients, including the zero divisor: `//` is the
    reference quotient when the reference remainder is 0 and ValueError otherwise."""
    for dividend in (p, q * d, q * d + p):
        if not d:
            with pytest.raises(ZeroDivisionError):
                dividend // d
            continue
        ref_quo, ref_rem = hpoly_divmod_reference(dividend, d)
        if ref_rem:
            with pytest.raises(ValueError):
                dividend // d
        else:
            quo = dividend // d
            assert quo.coeffs == ref_quo.coeffs
            assert all(type(c) is Fraction for c in quo.coeffs)


@settings(max_examples=50)
@given(st.lists(sts.hrats(), max_size=5))
def test_clear_hrat_denominators(values):
    den, nums = clear_hrat_denominators(values)
    assert den.lead == 1
    assert [HRat(num, den) for num in nums] == values
    assert all((den // v.den) * v.den == den for v in values)


def _hrat_by_products(num, den):
    """(num, den) of HRat(num, den) built from HPoly products: both over one,
    divided by their Euclidean gcd, then multiplied by 1 / lead of den."""
    n, d = (num.num, num.den) if isinstance(num, HRat) else (HPoly.one() * num, HPoly.one())
    if isinstance(den, HRat):
        n, d = n * den.den, d * den.num
    elif den is not None:
        d = d * den
    if not n:
        return HPoly.zero(), HPoly.one()
    g = hpoly_gcd_reference(n, d)
    n, d = n // g, d // g
    scale = HPoly.const(1 / d.lead)
    return n * scale, d * scale


_SCALARS = st.one_of(st.integers(-4, 4), sts.rationals())


@settings(max_examples=200)
@given(st.one_of(sts.hpolys(), sts.hrats(), _SCALARS),
       st.one_of(st.none(), sts.nonzero_hpolys(), sts.hrats().filter(bool),
                 _SCALARS.filter(bool)))
def test_hrat_constructor_matches_products(num, den):
    x = HRat(num, den)
    n, d = _hrat_by_products(num, den)
    assert (x.num.coeffs, x.den.coeffs) == (n.coeffs, d.coeffs)
    assert all(type(c) is Fraction for c in x.num.coeffs + x.den.coeffs)


def _zpolys(max_degree=4, bound=30):
    def build(ints):
        while ints and not ints[-1]:
            ints.pop()
        return _ZPoly(ints)
    return st.lists(st.integers(-bound, bound), max_size=max_degree + 1).map(build)


def _assert_zpoly(p, expected: HPoly):
    assert type(p) is _ZPoly and all(type(c) is int for c in p)
    assert not p or p[-1] != 0
    assert HPoly(p) == expected


@settings(max_examples=200)
@given(_zpolys(), _zpolys(), _zpolys(max_degree=6, bound=200))
def test_zpoly_ring_matches_hpoly(a, b, c):
    """*, + and - against HPoly; // is exact division in Z[h]: a ValueError
    when the quotient over Q leaves a remainder or is not integral."""
    _assert_zpoly(a * b, HPoly(a) * HPoly(b))
    _assert_zpoly(a + b, HPoly(a) + HPoly(b))
    _assert_zpoly(-a, -HPoly(a))
    assert (a * b == b * a) and hash(a * b) == hash(b * a)
    assert bool(a) == bool(HPoly(a))
    if not b:
        with pytest.raises(ZeroDivisionError):
            c // b
        return
    _assert_zpoly((a * b) // b, HPoly(a))
    for dividend in (c, a * b * _ZPoly((2,)), a * b + c):
        for divisor in (b, b * _ZPoly((3,))):
            quo, rem = hpoly_divmod_reference(HPoly(dividend), HPoly(divisor))
            if rem or any(q.denominator != 1 for q in quo.coeffs):
                with pytest.raises(ValueError):
                    dividend // divisor
            else:
                _assert_zpoly(dividend // divisor, quo)


_HUGE = 2 ** 80


@settings(max_examples=300)
@given(st.lists(st.tuples(_zpolys(max_degree=4, bound=2 ** 90), _zpolys(max_degree=3, bound=7)),
                max_size=6))
@example([(_ZPoly((0, 0, 0, 0, _HUGE)), _ZPoly((1,))), (_ZPoly((0, 0, 0, 0, -_HUGE)), _ZPoly((1,)))])
@example([(_ZPoly((-_HUGE, 0, 0, 0, _HUGE)), _ZPoly((1, 1)))])  # negative digits borrow
@example([(_ZPoly((-1, 1)), _ZPoly((1,))), (_ZPoly((0, -1)), _ZPoly((1,)))])  # sums to -1
@example([(_ZPoly((7,)), _ZPoly((7,)))])  # a coefficient right at the bound
@example([(_ZPoly((-5,)), _ZPoly((7,))), (_ZPoly((-3,)), _ZPoly((7,)))])  # -56, at the bound
def test_packed_sums_unpack_at_the_derived_bits(pairs):
    """Packed at h = 2^bits, with bits from `_pack_bits`, every value and
    the sum of the products of the pairs unpack exactly to their Z[h] values:
    the sum digit by digit in balanced base 2^bits, borrows and cancellations
    included.  A value alone takes bits with 2^(bits - 1) > max|c|."""
    for c in (c for pair in pairs for c in pair):
        bits = max(map(abs, c), default=0).bit_length() + 1
        assert _zpoly_unpack(_zpoly_pack(c, bits), bits) == c
    bits = _pack_bits([x for a, _ in pairs for x in a], [x for _, b in pairs for x in b])
    total = sum((_zpoly_pack(a, bits) * _zpoly_pack(b, bits) for a, b in pairs), 0)
    expected = _ZPoly()
    for a, b in pairs:
        expected = expected + a * b
    got = _zpoly_unpack(total, bits)
    assert type(got) is _ZPoly and got == expected and all(type(c) is int for c in got)


@settings(max_examples=200)
@given(_zpolys(), st.integers(-50, 50).filter(bool))
@example(_ZPoly((3, -6, 9)), -6)
@example(_ZPoly(), 7)
def test_hpoly_over_is_the_quotient_by_an_integer(v, d):
    """`_hpoly_over(v, d)` is the HPoly v / d: equal to the HRat of the pair, its
    coefficients the reduced Fractions c / d, lowest power first."""
    got = _hpoly_over(v, d)
    assert type(got) is HPoly and got == HRat(HPoly(v), HPoly.const(d))
    assert got.coeffs == tuple(Fraction(c, d) for c in v)


@settings(max_examples=200)
@given(_zpolys(), _zpolys(max_degree=3, bound=12).filter(lambda d: len(d) > 1))
@example(_ZPoly(), _ZPoly((1, 1)))
@example(_ZPoly((2, 2)), _ZPoly((-4, 0, -4)))
def test_zpoly_to_field_builds_the_canonical_hrat(v, d):
    """v / d read from the Z[h] pair by `ZPOLYS.to_field`, d non-constant, is the
    HRat of the HPoly pair: the same canonical numerator and denominator, with
    Fraction coefficients."""
    got, expected = ZPOLYS.to_field(v, d), HRat(HPoly(v), HPoly(d))
    assert type(got) is HRat and (got.num.coeffs, got.den.coeffs) == (expected.num.coeffs,
                                                                      expected.den.coeffs)
    assert all(type(c) is Fraction for c in got.num.coeffs + got.den.coeffs)


@settings(max_examples=200)
@given(_zpolys(), _zpolys(max_degree=3, bound=12).filter(bool))
@example(_ZPoly((3, -6, 9)), _ZPoly((6,)))
@example(_ZPoly((0, 5)), _ZPoly((-10,)))
@example(_ZPoly(), _ZPoly((1, 1)))
@example(_ZPoly((2, 2)), _ZPoly((-4, 0, -4)))
def test_zpolys_to_field_is_the_canonical_hrat(v, d):
    """`ZPOLYS.to_field` reads v / d from the Z[h] pair, a constant d included:
    the HRat of the HPoly pair, repr for repr, with Fraction coefficients."""
    got = ZPOLYS.to_field(v, d)
    assert type(got) is HRat and repr(got) == repr(HRat(HPoly(v), HPoly(d)))
    assert all(type(c) is Fraction for c in got.num.coeffs + got.den.coeffs)


@settings(max_examples=200)
@given(_zpolys(), _zpolys(), _zpolys(max_degree=2, bound=6))
def test_zpoly_gcd(a, b, common):
    """The Z[h] gcd divides both, has a positive lead and the gcd of the
    integer contents as its content, and its monic form is hpoly_gcd."""
    a, b = a * common, b * common
    g = _zpoly_gcd(a, b)
    if not a and not b:
        assert g == _ZPoly()
        assert hpoly_gcd(HPoly(a), HPoly(b)) == HPoly.zero()
        return
    assert type(g) is _ZPoly and g[-1] > 0
    assert (a // g) * g == a and (b // g) * g == b
    assert gcd(*g) == gcd(gcd(*a), gcd(*b))
    assert monic_reference(HPoly(g)) == hpoly_gcd(HPoly(a), HPoly(b)) \
        == hpoly_gcd_reference(HPoly(a), HPoly(b))


@settings(max_examples=300)
@given(_zpolys(), _zpolys(max_degree=2, bound=12).filter(bool), _zpolys(max_degree=3),
       st.sampled_from(["plain", "constant", "content", "divides"]), st.integers(2, 6))
@example(_ZPoly((1, 1)), _ZPoly((1, 1)), _ZPoly(), "content", 2)  # 2 + 2h and 1 + h
@example(_ZPoly((3, 0, 6)), _ZPoly((1, 0, 2)), _ZPoly(), "content", 3)
def test_zpoly_split_matches_gcd_then_divide(c, e, q, shape, k):
    """`_zpoly_split(c, E)` is (E / g, c / g) for g = gcd(c, E), E of positive
    lead: E constant, E with content k > 1 (2 + 2h), E | c by construction, or
    neither.  `_zpoly_quotient` by E and by -E is None exactly when the
    reference long division in Fractions leaves a remainder or a non-integral
    quotient, and is that quotient otherwise."""
    e = e if e[-1] > 0 else -e
    if shape == "constant":
        e = _ZPoly((k,))
    elif shape == "content":
        e = e * _ZPoly((k,))
    elif shape == "divides":
        c = e * q
    g = _zpoly_gcd(c, e)
    split = _zpoly_split(c, e)
    assert split == (e // g, c // g)
    assert all(type(v) is _ZPoly for v in split)
    for divisor in (e, -e):
        quo, rem = hpoly_divmod_reference(HPoly(c), HPoly(divisor))
        got = _zpoly_quotient(c, divisor)
        if rem or any(v.denominator != 1 for v in quo.coeffs):
            assert got is None
        else:
            _assert_zpoly(got, quo)
    if shape == "divides":
        assert split == (_ZPoly((1,)), q)


@pytest.mark.parametrize("call, error, text", [
    (lambda: HPoly([1.5]), TypeError, "cannot interpret 1.5 as a rational"),
    (lambda: setattr(HPoly.h(), "coeffs", ()), AttributeError, "HPoly is immutable"),
    (lambda: HPoly.h(-1), ValueError, "negative hbar power"),
    (lambda: HPoly.zero().lead, ZeroDivisionError, "zero polynomial has no leading coefficient"),
    (lambda: HRat(1, HPoly([-1, 1])).eval(1), ZeroDivisionError, "denominator vanishes at h=1"),
], ids=["float-coefficient", "immutable", "negative-power", "lead-of-zero", "pole"])
def test_rejections(call, error, text):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == text

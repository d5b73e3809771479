"""Exact coefficient arithmetic: rationals, polynomials in hbar, their fraction
field, and the integer-row rings that completion and certification compute in.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced).
`HPoly` is a univariate polynomial in hbar over the rationals, stored as a
coefficient tuple lowest power first with trailing zeros stripped.  `HRat`
is the fraction field of `HPoly`, kept in canonical form: numerator and
denominator coprime, denominator monic and nonzero, built from one Z[h] pair
(`_zpair`) with one gcd.  `clear_denominators` clears rationals in Z.
`_ZPoly`, a bare tuple of ints, is a polynomial over Z; `hpoly_gcd` is the monic
form of its gcd `_zpoly_gcd`, and `HPoly //` (exact division, no remainder)
divides the primitive parts with `_ZPoly //`.  `_zpoly_quotient` is the one
synthetic-division loop, behind `_ZPoly //` and `_zpoly_split(c, e)`, c / e in
lowest terms with a gcd only when e does not divide c.

A `Ring` is where a word polynomial's coefficients are computed as integer
rows, primitive over one denominator: `INTEGERS` (Z, at h = a) and `ZPOLYS`
(Z[h], over Q(h)).  A polynomial enters a ring only through `Ring.row`, which
reads nothing of it but its `terms`; `ZPOLYS.to_field` is `HRat`, read from
the Z[h] pair.  Integers leave these kernels as an `HPoly` through one builder,
`_hpoly_over(v, d)`, the integers v over the integer d.

Everything here is immutable and hashable, so values can be shared freely.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import wraps
from itertools import islice, zip_longest
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _coerced(method):
    """The binary operator method applied to other as the operand's `_coerce`
    converts it; NotImplemented when it does not."""
    @wraps(method)
    def operator(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else method(self, o)
    return operator


class _Scalar:
    """The immutability and subtraction shared by `HPoly` and `HRat`, each of
    which supplies `_coerce`, `__add__` and `__neg__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @_coerced
    def __sub__(self, o):
        return self + (-o)

    @_coerced
    def __rsub__(self, o):
        return o + (-self)


class HPoly(_Scalar):
    """Polynomial in hbar with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls) -> "HPoly":
        return cls(())

    @classmethod
    def one(cls) -> "HPoly":
        return cls((Fraction(1),))

    @classmethod
    def const(cls, value) -> "HPoly":
        return cls((_as_fraction(value),))

    @classmethod
    def h(cls, power: int = 1) -> "HPoly":
        """The monomial hbar**power."""
        if power < 0:
            raise ValueError("negative hbar power")
        return cls((0,) * power + (1,))

    # -- structure ------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree in hbar; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def divisible_by_h(self) -> bool:
        """True when the constant term vanishes (zero polynomial included)."""
        return not self.coeffs or self.coeffs[0] == 0

    # -- ring operations ------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, HPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return HPoly((other,))
        return None

    @_coerced
    def __add__(self, o):
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return HPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return HPoly(tuple(-c for c in self.coeffs))

    @_coerced
    def __mul__(self, o):
        # convolve integer coefficient lists; one division per coefficient at the end
        da, xs = clear_denominators(self.coeffs)
        db, ys = clear_denominators(o.coeffs)
        return _hpoly_over(_convolve(xs, ys), da * db)

    __rmul__ = __mul__

    @_coerced
    def __floordiv__(self, o) -> "HPoly":
        """Exact quotient; ValueError when other does not divide self.  The
        primitive parts divide in Z[h]: by Gauss's lemma an exact quotient of
        primitive integer polynomials is integral, so `_ZPoly //` raises
        exactly when the division is inexact."""
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return self
        ca, pa = _content_split(self.coeffs)
        cb, pb = _content_split(o.coeffs)
        scale = ca / cb
        return _hpoly_over([c * scale.numerator for c in _ZPoly(pa) // _ZPoly(pb)],
                           scale.denominator)

    def eval(self, a) -> Fraction:
        """Evaluate at hbar = a by Horner's rule."""
        a = _as_fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    # -- comparisons ----------------------------------------------------
    @_coerced
    def __eq__(self, o):
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant (zero included) hashes like the Fraction it equals
        return hash(self.coeff(0)) if self.is_constant() else hash(("HPoly", self.coeffs))

    def __repr__(self):
        return f"HPoly({list(self.coeffs)!r})"

    def __str__(self):
        return format_hpoly(self)


def _hpoly_over(v, d: int) -> HPoly:
    """The HPoly of the integers v (lowest power first) over the integer d; the
    Fractions reduce as they are built."""
    return HPoly([Fraction(c, d) for c in v])


def _convolve(xs, ys) -> list:
    """Coefficients of the product of two integer coefficient sequences; zeros
    when one of them is empty."""
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                out[i + j] += x * y
    return out


def clear_denominators(values) -> tuple:
    """(d, ints) with values equal to [v / d for v in ints], d the lcm of the denominators."""
    values = list(values)
    den = lcm(*(c.denominator for c in values))
    return den, [c.numerator * (den // c.denominator) for c in values]


def _content_split(coeffs) -> tuple:
    """(c, ints) with coeffs equal to [c * v for v in ints], ints coprime integers
    with a positive last entry; coeffs must not end in zero."""
    den, ints = clear_denominators(coeffs)
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return Fraction(content, den), [v // content for v in ints]


def _primitive_pseudo_rem(a: list, b: list) -> list:
    """Primitive part of the pseudo-remainder of integer polynomials a by b, both
    without trailing zeros.

    Plain remainder sequences over Q blow up coefficient sizes; scaling by the
    leading coefficient keeps everything in integers, and stripping the content
    each round keeps them small.
    """
    lb = b[-1]
    db = len(b) - 1
    while len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= la * c
        while a and a[-1] == 0:
            a.pop()
    content = gcd(*a)
    return [c // content for c in a] if content else []


class _ZPoly(tuple):
    """Polynomial in hbar over Z: a tuple of ints, lowest power first, without
    trailing zeros (build it from a list that has none).  `//` is exact
    division in Z[h] and raises ValueError on a remainder."""

    __slots__ = ()

    def __add__(self, other):
        out = [x + y for x, y in zip_longest(self, other, fillvalue=0)]
        while out and not out[-1]:
            out.pop()
        return _ZPoly(out)

    def __neg__(self):
        return _ZPoly([-c for c in self])

    def __mul__(self, other):
        if not self or not other:
            return _ZPoly()
        if len(other) == 1:
            b = other[0]
            return _ZPoly([c * b for c in self])
        return _ZPoly(_convolve(self, other))

    __rmul__ = __mul__

    def __floordiv__(self, other):
        if (quo := _zpoly_quotient(self, other)) is None:
            raise ValueError("inexact polynomial division")
        return quo


def _zpoly_pack(c: _ZPoly, bits: int) -> int:
    """c at h = 2^bits (Kronecker substitution): sums and products pack to sums and products."""
    acc = 0
    for x in reversed(c):
        acc = (acc << bits) + x
    return acc


def _zpoly_unpack(s: int, bits: int) -> _ZPoly:
    """s read as balanced base-2^bits digits: exact when every |coefficient| < 2^(bits - 1)."""
    out, half, mask = [], 1 << (bits - 1), (1 << bits) - 1
    while s:
        out.append(((s + half) & mask) - half)
        s = (s + half) >> bits
    return _ZPoly(out)


def _pack_bits(c_coeffs: list, r_coeffs: list) -> int:
    """bits for sums of products c * r, one per c at most: |coefficients| <= max|r_j| * sum|c_i|."""
    return (max(map(abs, r_coeffs), default=0) * sum(map(abs, c_coeffs))).bit_length() + 1


def _zpoly_quotient(a: _ZPoly, b: _ZPoly) -> Optional[_ZPoly]:
    """a / b in Z[h] by synthetic division, None when b (of either sign) does not divide a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    d, lc = len(b) - 1, b[-1]
    rem, quo = list(a), [0] * max(len(a) - d, 0)
    for shift in range(len(quo) - 1, -1, -1):
        quo[shift], r = divmod(rem[shift + d], lc)
        if r:
            return None
        for i, c in enumerate(b):
            rem[shift + i] -= quo[shift] * c
    return None if any(rem[:d]) else _ZPoly(quo)


def _zpoly_gcd(a: _ZPoly, b: _ZPoly) -> _ZPoly:
    """Greatest common divisor in Z[h], with a positive lead: the gcd of the
    integer contents times the primitive gcd of the primitive parts (Gauss's
    lemma), the latter by a primitive remainder sequence; gcd(0, 0) = 0."""
    if not a or not b:
        g = a or b
        return g if not g or g[-1] > 0 else -g
    ca, cb = gcd(*a), gcd(*b)
    content = gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return _ZPoly((content,))
    pa, pb = [c // ca for c in a], [c // cb for c in b]
    while pb:
        pa, pb = pb, _primitive_pseudo_rem(pa, pb)
    if pa[-1] < 0:
        content = -content
    return _ZPoly([c * content for c in pa])


def _zpoly_split(c: _ZPoly, e: _ZPoly) -> tuple:
    """(e / g, c / g) for g = gcd(c, e), e with a positive lead: when e divides
    c, g = e and one synthetic division gives (1, c / e) without a gcd."""
    if (quo := _zpoly_quotient(c, e)) is not None:
        return _ZPoly((1,)), quo
    g = _zpoly_gcd(c, e)
    return e // g, c // g


def hpoly_gcd(a: HPoly, b: HPoly) -> HPoly:
    """Monic greatest common divisor: the monic form of `_zpoly_gcd`; gcd(0, 0) = 0."""
    g = _zpoly_gcd(*(_ZPoly(clear_denominators(p.coeffs)[1]) for p in (a, b)))
    return _hpoly_over(g, g[-1]) if g else HPoly.zero()


def _zpair(value) -> tuple:
    """(n, d) over Z[h] with value = n / d and d of positive lead: a _ZPoly over 1;
    a rational, HPoly (over 1) or HRat with both parts cleared by one integer."""
    if isinstance(value, _ZPoly):
        return value, _ZPoly((1,))
    if isinstance(value, HRat):
        num, den = value.num.coeffs, value.den.coeffs
    else:
        num, den = (value if isinstance(value, HPoly) else HPoly.const(value)).coeffs, (1,)
    ints = clear_denominators([*num, *den])[1]
    return _ZPoly(ints[:len(num)]), _ZPoly(ints[len(num):])


def rational_roots(p: HPoly) -> list:
    """All rational roots of p, sorted; empty for constants.

    A rational root of a primitive integer polynomial with leading coefficient
    L has a denominator dividing L, so two distinct candidates lie at least
    1/L^2 apart.  Sturm bisection of the square-free part isolates each real
    root in an interval (lo, hi] narrower than 1/(2 L^2); the only fraction of
    denominator at most |L| that can be a root there is the one nearest hi,
    and it is one exactly when it lies in the interval and evaluates to 0.
    No divisor of the constant term is enumerated, so the cost grows with the
    bit size of the coefficients, not with their magnitude.
    """
    if not p or p.is_constant():
        return []
    # the square-free part: with p primitive and of positive lead, so are gcd(p, p') and p / gcd
    prim = _ZPoly(_content_split(p.coeffs)[1])
    ints = list(prim // _zpoly_gcd(prim, _ZPoly([k * c for k, c in enumerate(prim)][1:])))
    lead = ints[-1]
    chain = [ints, [k * c for k, c in enumerate(ints)][1:]]
    while len(chain[-1]) > 1:
        # a positive lead makes the pseudo-remainder a positive multiple of the
        # remainder, so the chain keeps the signs its sign counts rely on
        divisor = chain[-1] if chain[-1][-1] > 0 else [-c for c in chain[-1]]
        chain.append([-v for v in _primitive_pseudo_rem(chain[-2], divisor)])

    def sign_changes(num: int, shift: int) -> int:
        """Sign changes of the Sturm chain at num / 2^shift, zeros skipped:
        right-continuous, so V(lo) - V(hi) counts the distinct roots in (lo, hi]."""
        signs = []
        for q in chain:
            acc, scale = q[-1], 1
            for c in reversed(q[:-1]):
                scale <<= shift
                acc = acc * num + c * scale
            if acc:
                signs.append(acc > 0)
        return sum(s != t for s, t in zip(signs, signs[1:]))

    # interval ends are num / 2^shift; by Cauchy's bound every real root lies
    # in (-bound, bound), and isolated roots are narrowed to width < 1/(2 L^2)
    bound = 2 + max(abs(c) for c in ints[:-1]) // lead
    roots = []
    stack = [(-bound, bound, 0, sign_changes(-bound, 0), sign_changes(bound, 0))]
    while stack:
        lo, hi, shift, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and (hi - lo) * 2 * lead * lead < 1 << shift:
            candidate = Fraction(hi, 1 << shift).limit_denominator(lead)
            if lo < candidate * (1 << shift) <= hi and p.eval(candidate) == 0:
                roots.append(candidate)
            continue
        lo, mid, hi, shift = 2 * lo, lo + hi, 2 * hi, shift + 1
        v_mid = sign_changes(mid, shift)
        stack += [(lo, mid, shift, v_lo, v_mid), (mid, hi, shift, v_mid, v_hi)]
    return sorted(roots)


class HRat(_Scalar):
    """Rational function in hbar, in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        a, b = _zpair(num)
        c, d = _zpair(1 if den is None else den)
        num, den = a * d, b * c  # (a / b) / (c / d)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            num, den = _ZPoly(), _ZPoly((1,))
        elif len(den) > 1 and len(g := _zpoly_gcd(num, den)) > 1:  # no gcd for a constant den
            num, den = num // g, den // g
        lc = den[-1]
        object.__setattr__(self, "num", _hpoly_over(num, lc))
        object.__setattr__(self, "den", _hpoly_over(den, lc))

    @classmethod
    def zero(cls) -> "HRat":
        return cls(HPoly.zero())

    @classmethod
    def one(cls) -> "HRat":
        return cls(HPoly.one())

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den == HPoly.one()

    @staticmethod
    def _coerce(other):
        if isinstance(other, HRat):
            return other
        if isinstance(other, (HPoly, int, Fraction)):
            return HRat(other)
        return None

    @_coerced
    def __add__(self, o):
        return HRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return HRat(-self.num, self.den)

    @_coerced
    def __mul__(self, o):
        return HRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "HRat":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return HRat(self.den, self.num)

    @_coerced
    def __truediv__(self, o):
        return self * o.inv()

    @_coerced
    def __rtruediv__(self, o):
        return o * self.inv()

    def eval(self, a) -> Fraction:
        d = self.den.eval(a)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at h={a}")
        return self.num.eval(a) / d

    @_coerced
    def __eq__(self, o):
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # with denominator 1 an HRat equals, and hashes like, its numerator
        return hash(self.num) if self.is_polynomial() else hash(("HRat", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"HRat({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.is_polynomial():
            return format_hpoly(self.num)
        return f"({format_hpoly(self.num)})/({format_hpoly(self.den)})"


def format_hpoly(p: HPoly) -> str:
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            base = "h" if k == 1 else f"h^{k}"
            if c == 1:
                term = base
            elif c == -1:
                term = f"-{base}"
            else:
                term = f"{c}*{base}"
        parts.append(term)
    return join_signed(parts)


def join_signed(parts: list) -> str:
    """The nonempty list of term texts joined into a sum: " - t" after the first
    term for a text "-t", " + t" otherwise."""
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


# -- integer-row rings ------------------------------------------------------

class Ring(namedtuple("Ring", "unit split to_field row primitive_row inverted")):
    """A ring of integer rows inside the field of its coefficients.

    split(c, e) is (e / g, c / g) for g = gcd(c, e), which is e when e divides c
    (e is positive in Z, of positive lead in Z[h]).  to_field(v, d) is v / d in
    the field.  row(p, a) is (d, {word: num}), the terms of the word polynomial
    p (at h = a over Q) over one denominator d, read from p.terms alone.
    primitive_row(d, values) is (d / c, [v / c]) for c the gcd of d and the
    values, scaled so that d / c is positive in Z and has a positive lead in
    Z[h]; row returns that primitive form already.  inverted(lc, d) is the
    monic numerator of lc / d when it has a root (None in Z): the polynomial a
    rule with that lead inverts."""


def _scaled_coeffs(terms: dict) -> tuple:
    """clear_denominators of the h^k coefficients c_k of the Fraction and HPoly
    values of terms, split back per key: (L, {key: [L * c_k]})."""
    coeffs = [c.coeffs if isinstance(c, HPoly) else (c,) for c in terms.values()]
    big, ints = clear_denominators([c for cs in coeffs for c in cs])
    ints = iter(ints)
    return big, {w: list(islice(ints, len(cs))) for w, cs in zip(terms, coeffs)}


def _int_row(poly, a) -> tuple:
    """The row of poly at h = a without a Fraction per operation: at a = p/q,
    L * q^D * sum(c_k * a^k), D the top h-degree, is the integer
    sum(L * c_k * p^k * q^(D - k)); the row is then made primitive.  HRat
    coefficients are evaluated first: only their values need a field division."""
    terms = poly.terms
    if any(isinstance(c, HRat) for c in terms.values()):
        terms = {w: c.eval(a) if isinstance(c, HRat) else c for w, c in terms.items()}
    big, ints = _scaled_coeffs(terms)
    p, q = _as_fraction(a).as_integer_ratio()
    top = max(map(len, ints.values()), default=1) - 1
    weights = [p ** k * q ** (top - k) for k in range(top + 1)]
    row = {w: v for w, vs in ints.items() if (v := sum(map(mul, vs, weights)))}
    den, nums = _primitive_int_row(big * q ** top, list(row.values()))
    return den, dict(zip(row, nums))


def _zpoly_row(poly, a) -> tuple:
    """The row of poly over Q(h), a ignored: L * c over L when the coefficients
    are polynomials, L the lcm of their rational coefficients' denominators;
    else the Z[h] pairs of their values over the lcm of the pair denominators,
    made primitive.  The denominator has a positive lead, and the row is
    primitive; the primitive row of given values is unique up to sign."""
    if not any(isinstance(c, HRat) for c in poly.terms.values()):
        big, ints = _scaled_coeffs(poly.terms)
        return _ZPoly((big,)), {w: _ZPoly(v) for w, v in ints.items()}
    pairs = [_zpair(c) for c in poly.terms.values()]
    den = _ZPoly((1,))
    for _, d in pairs:  # lcm(den, d) = den * d / g; no gcd when d divides den
        den = den if d == den else den * _zpoly_split(den, d)[0]
    den, nums = _primitive_zpoly_row(den, [n if d == den else n * (den // d) for n, d in pairs])
    return den, dict(zip(poly.terms, nums))


def _primitive_int_row(den: int, values: list) -> tuple:
    content = gcd(den, *values) if den > 0 else -gcd(den, *values)
    return den // content, [v // content for v in values]


def _primitive_zpoly_row(den: _ZPoly, values: list) -> tuple:
    g = den if den[-1] > 0 else -den
    for v in values:  # once g is a unit, each value costs a few integer gcds
        g = _zpoly_gcd(g, v)
    g = g if den[-1] > 0 else -g
    return (den, values) if g == (1,) else (den // g, [v // g for v in values])


def _inverted_zpoly(lc: _ZPoly, den: _ZPoly) -> Optional[HPoly]:
    num = _zpoly_split(den, lc)[0] if len(den) > 1 else lc  # lc / gcd, up to sign
    return _hpoly_over(num, num[-1]) if len(num) > 1 else None


INTEGERS = Ring(1, lambda c, e: (e // (g := gcd(c, e)), c // g), Fraction, _int_row,
                _primitive_int_row, lambda lc, den: None)
ZPOLYS = Ring(_ZPoly((1,)), _zpoly_split, HRat, _zpoly_row, _primitive_zpoly_row, _inverted_zpoly)

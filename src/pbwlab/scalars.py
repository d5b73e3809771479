"""Exact coefficient arithmetic: rationals, polynomials in hbar, and their fraction field.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced).
`HPoly` is a univariate polynomial in hbar over the rationals, stored as a
coefficient tuple lowest power first with trailing zeros stripped.  `HRat`
is the fraction field of `HPoly`, kept in canonical form: numerator and
denominator coprime, denominator monic and nonzero.  `clear_denominators` and
`clear_hrat_denominators` put values of Q and Q(h) over one denominator in Z and Q[h].

Everything here is immutable and hashable, so values can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


class HPoly:
    """Polynomial in hbar with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("HPoly is immutable")

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
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

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return HPoly(())
        # convolve integer coefficient lists; one division per coefficient at the end
        da, xs = clear_denominators(self.coeffs)
        db, ys = clear_denominators(o.coeffs)
        out = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys):
                    out[i + j] += x * y
        den = da * db
        return HPoly([Fraction(v, den) for v in out])

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Quotient and remainder by integer pseudo-division of the primitive
        parts: a step whose integer divmod is inexact first scales the dividend
        and quotient by the least factor that makes it exact, which an exact
        division never needs (Gauss's lemma)."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        d = o.degree
        if self.degree < d:
            return HPoly(()), self
        ca, rem = _content_split(self.coeffs)
        cb, div = _content_split(o.coeffs)
        lc, quo, den = div[-1], [0] * (len(rem) - d), 1
        for shift in range(len(quo) - 1, -1, -1):
            top = rem[shift + d]
            if top:
                g = gcd(top, lc)
                if g != lc:
                    mult = lc // g
                    rem, quo, den = [c * mult for c in rem], [c * mult for c in quo], den * mult
                quo[shift] = factor = top // g
                for i, c in enumerate(div):
                    rem[shift + i] -= factor * c
        qs, rs = ca / (cb * den), ca / den
        return (HPoly([Fraction(c * qs.numerator, qs.denominator) for c in quo]),
                HPoly([Fraction(c * rs.numerator, rs.denominator) for c in rem[:d]]))

    def __floordiv__(self, other) -> "HPoly":
        """Exact quotient; ValueError when other does not divide self."""
        q, r = divmod(self, other)
        if r:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "HPoly":
        if not self:
            return self
        lc = self.lead
        if lc == 1:
            return self
        return HPoly(tuple(c / lc for c in self.coeffs))

    def eval(self, a) -> Fraction:
        """Evaluate at hbar = a by Horner's rule."""
        a = _as_fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    # -- comparisons ----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, HPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == HPoly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("HPoly", self.coeffs))

    def __repr__(self):
        return f"HPoly({list(self.coeffs)!r})"

    def __str__(self):
        return format_hpoly(self)


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
    """Primitive part of the pseudo-remainder of integer polynomials a by b.

    Plain remainder sequences over Q blow up coefficient sizes; scaling by the
    leading coefficient keeps everything in integers, and stripping the content
    each round keeps them small.
    """
    a = list(a)
    lb = b[-1]
    db = len(b) - 1
    while len(a) - 1 >= db:
        if a[-1] == 0:
            a.pop()
            continue
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= la * c
        while a and a[-1] == 0:
            a.pop()
    content = gcd(*a)
    return [c // content for c in a] if content else []


def hpoly_gcd(a: HPoly, b: HPoly) -> HPoly:
    """Monic greatest common divisor via a primitive remainder sequence; gcd(0, 0) = 0."""
    ca = _content_split(a.coeffs)[1] if a else []
    cb = _content_split(b.coeffs)[1] if b else []
    while cb:
        ca, cb = cb, _primitive_pseudo_rem(ca, cb)
    if not ca:
        return HPoly.zero()
    lead = ca[-1]
    return HPoly([Fraction(c, lead) for c in ca])


def clear_hrat_denominators(values) -> tuple:
    """(d, nums) with values equal to [HRat(v, d) for v in nums], d the monic lcm of the
    denominators.  A denominator of 1, or equal to the running d, costs no gcd or division."""
    values = list(values)
    den = HPoly.one()
    for v in values:
        if v.den.degree > 0 and v.den != den:
            den = v.den if den.degree == 0 else den * (v.den // hpoly_gcd(den, v.den))
    return den, [v.num if v.den == den else
                 v.num * (den if v.den.degree == 0 else den // v.den) for v in values]


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
    repeated = hpoly_gcd(p, HPoly([k * c for k, c in enumerate(p.coeffs)][1:]))
    square_free = p // repeated if repeated.degree > 0 else p
    ints = _content_split(square_free.coeffs)[1]
    lead = ints[-1]
    chain = [ints, [k * c for k, c in enumerate(ints)][1:]]
    while len(chain[-1]) > 1:
        _, rem = clear_denominators(divmod(HPoly(chain[-2]), HPoly(chain[-1]))[1].coeffs)
        content = gcd(*rem)
        chain.append([-v // content for v in rem])

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


class HRat:
    """Rational function in hbar, in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, HRat):
            base_num, base_den = num.num, num.den
        else:
            base_num = num if isinstance(num, HPoly) else HPoly.const(num)
            base_den = HPoly.one()
        if den is not None:
            if isinstance(den, HRat):
                base_num = base_num * den.den
                base_den = base_den * den.num
            else:
                d = den if isinstance(den, HPoly) else HPoly.const(den)
                base_den = base_den * d
        if not base_den:
            raise ZeroDivisionError("zero denominator")
        if not base_num:
            base_num, base_den = HPoly.zero(), HPoly.one()
        else:
            g = hpoly_gcd(base_num, base_den) if base_den.degree > 0 else base_den
            if g.degree > 0:  # a constant denominator shares no factor with base_num
                base_num = base_num // g
                base_den = base_den // g
            lc = base_den.lead
            if lc != 1:
                base_num = base_num * (1 / lc)
                base_den = base_den * (1 / lc)
        object.__setattr__(self, "num", base_num)
        object.__setattr__(self, "den", base_den)

    def __setattr__(self, name, value):
        raise AttributeError("HRat is immutable")

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return HRat(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "HRat":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return HRat(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def eval(self, a) -> Fraction:
        d = self.den.eval(a)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at h={a}")
        return self.num.eval(a) / d

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash(("HRat", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"HRat({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.is_polynomial():
            return format_hpoly(self.num)
        return f"({format_hpoly(self.num)})/({format_hpoly(self.den)})"


def format_rational(q) -> str:
    q = _as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_hpoly(p: HPoly) -> str:
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            term = format_rational(c)
        else:
            base = "h" if k == 1 else f"h^{k}"
            if c == 1:
                term = base
            elif c == -1:
                term = f"-{base}"
            else:
                term = f"{format_rational(c)}*{base}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out

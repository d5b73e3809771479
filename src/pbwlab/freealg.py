"""Sparse word polynomials, and the free algebra on x_1..x_n over hbar scalars.

`WordPoly` is the one sparse core behind every polynomial type of the
workbench: a map from words (tuples of hashable letters, or any hashable key)
to coefficients that never stores a zero.  `add_terms` is the shared
accumulate/drop-zero loop: a new word is appended to the dict and a cancelled
one is deleted, so the key order of every result is fixed by the order of its
inputs.  Four hot loops accumulate inline instead, each for a reason of its
own: `koszul.residues` drops its zeros once, at the end; `rewriting._reduce_ranked`
pushes each new word onto its heap; `rewriting._eliminate` works on integer
columns; `certificates.check_quadratic_condition` sums into a `defaultdict`
and reads only the nonzero sums.  `nc_mul` concatenates words and serves every
`WordPoly` whose words are tuples.  `WordPoly.__str__` prints every word
polynomial: each term a coefficient times the `_mono` text of its word.

An `NCPoly` is a `WordPoly` over generator indices in 1..n; the empty tuple
is the unit monomial.  Coefficients may be `Fraction`, `HPoly`, or `HRat`; a
single polynomial keeps one coefficient kind throughout.  Words are ordered
degree first, then lexicographically (deglex), which is also the
deterministic order of `sorted_terms`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, Tuple

from .errors import AmbientMismatch, BadIndex, UndefinedDegree
from .scalars import HPoly, HRat, join_signed

Word = Tuple[int, ...]


def deglex_key(word: Word):
    return (len(word), word)


def check_word(word: Word, n: int) -> None:
    for letter in word:
        if not 1 <= letter <= n:
            raise BadIndex(f"letter {letter} outside 1..{n}")


def add_terms(terms: Dict[Hashable, object], pairs: Iterable) -> Dict[Hashable, object]:
    """Add every (word, coeff) of pairs into terms in place and return terms.

    A word not yet present is appended and a word whose sum is zero is
    deleted; zero coefficients are never stored.
    """
    for word, coeff in pairs:
        acc = terms.get(word)
        acc = coeff if acc is None else acc + coeff
        if acc:
            terms[word] = acc
        elif word in terms:
            del terms[word]
    return terms


def check_ambient(n: int, poly: "WordPoly") -> None:
    """Raise `AmbientMismatch` unless poly lies over n generators."""
    if poly.n != n:
        raise AmbientMismatch(f"generator counts differ: {n} vs {poly.n}")


class WordPoly:
    """Finitely supported map from words to scalars over n generators.

    The linear structure is shared by every subclass; operands of two
    different subclasses do not mix, and operands over different n raise
    `AmbientMismatch`.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Hashable, object] | None = None):
        self.n = n
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    self._check_word(word)
                    self.terms[word] = coeff

    def _check_word(self, word) -> None:
        """Reject a word that does not belong over self.n; subclasses override."""

    @staticmethod
    def _order(word):
        return deglex_key(word)

    @classmethod
    def adopt(cls, n: int, terms: Dict[Hashable, object]):
        """Wrap terms without copying or checking: no zero coefficient, valid words."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n: int):
        return cls.adopt(n, {})

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._order(kv[0]))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        check_ambient(self.n, other)
        return self.adopt(self.n, add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self.adopt(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar):
        return self.adopt(self.n, {w: v for w, c in self.terms.items() if (v := scalar * c)})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    @staticmethod
    def _mono(word) -> str:
        """The text of a word's monomial; subclasses override."""
        return "*".join(f"x{i}" for i in word) or "1"

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, {dict(self.sorted_terms())!r})"

    def __str__(self):
        parts = [_scaled_monomial(c, self._mono(w)) for w, c in self.sorted_terms()]
        return join_signed(parts) if parts else "0"


def nc_mul(p: WordPoly, q: WordPoly) -> WordPoly:
    """Bilinear extension of word concatenation, for two polynomials of one type."""
    if type(p) is not type(q):
        raise TypeError(f"cannot multiply {type(p).__name__} by {type(q).__name__}")
    check_ambient(p.n, q)
    return p.adopt(p.n, add_terms({}, ((wp + wq, cp * cq)
                                       for wp, cp in p.terms.items()
                                       for wq, cq in q.terms.items())))


class NCPoly(WordPoly):
    """Noncommutative polynomial: words are tuples of generator indices in 1..n."""

    __slots__ = ()

    def _check_word(self, word: Word) -> None:
        check_word(word, self.n)

    # -- constructors ---------------------------------------------------
    @classmethod
    def unit(cls, n: int, one=Fraction(1)) -> "NCPoly":
        return cls(n, {(): one})

    @classmethod
    def gen(cls, n: int, i: int, one=Fraction(1)) -> "NCPoly":
        if not 1 <= i <= n:
            raise BadIndex(f"generator {i} outside 1..{n}")
        return cls(n, {(i,): one})

    @classmethod
    def word(cls, n: int, letters: Iterable[int], coeff=Fraction(1)) -> "NCPoly":
        return cls(n, {tuple(letters): coeff})

    # -- inspection -----------------------------------------------------
    def coeff(self, word: Word):
        return self.terms.get(tuple(word), Fraction(0))

    def deg_x(self) -> int:
        """Maximum word length over the support; undefined for zero."""
        if not self.terms:
            raise UndefinedDegree("x-degree of the zero polynomial")
        return max(len(w) for w in self.terms)

    # -- products by polynomials and scalars ------------------------------
    def __mul__(self, other):
        if isinstance(other, WordPoly):
            return nc_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, WordPoly):
            return NotImplemented
        return self.scale(other)

    # -- coefficient-kind conversions -------------------------------------
    def map_coeffs(self, fn) -> "NCPoly":
        return NCPoly.adopt(self.n, {w: v for w, c in self.terms.items() if (v := fn(c))})

    def with_hpoly_coeffs(self) -> "NCPoly":
        return self.map_coeffs(lambda c: c if isinstance(c, HPoly) else HPoly.const(c))

    def with_hrat_coeffs(self) -> "NCPoly":
        return self.map_coeffs(lambda c: c if isinstance(c, HRat) else HRat(c))


def commutator(p: NCPoly, q: NCPoly) -> NCPoly:
    return nc_mul(p, q) - nc_mul(q, p)


def hbar_coefficient(p: NCPoly, k: int) -> NCPoly:
    """Coefficient of hbar**k, as a polynomial with plain rational coefficients.

    Requires `HPoly` (or rational, read as constant) coefficients.
    """
    if k < 0:
        raise ValueError("negative hbar power")
    return p.with_hpoly_coeffs().map_coeffs(lambda c: c.coeff(k))


def specialize(p: NCPoly, a) -> NCPoly:
    """Evaluate every coefficient at hbar = a; the support may shrink."""
    def ev(c):
        if isinstance(c, (HPoly, HRat)):
            return c.eval(a)
        return Fraction(c)

    return p.map_coeffs(ev)


def _scaled_monomial(coeff, mono: str) -> str:
    text = str(coeff)
    if " " in text or ")/(" in text:  # a sum, or a quotient of polynomials
        text = f"({text})"
    if mono == "1":
        return text
    if text == "1":
        return mono
    if text == "-1":
        return f"-{mono}"
    return f"{text}*{mono}"

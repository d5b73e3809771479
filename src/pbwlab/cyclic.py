"""Cyclic words (necklaces), potentials, and the cyclic partial derivative.

A cyclic word is a rotation-equivalence class of nonempty words, stored by
its lexicographically minimal rotation (found with Booth's linear-time
algorithm).  A potential is a finitely supported map from cyclic words to
hbar polynomials.  The derivative with respect to x_i cuts the necklace at
every occurrence of i and reads the remaining letters cyclically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable

from .errors import BadIndex, EmptyCycle, NotDeformation, UnsupportedArity
from .freealg import NCPoly, Word, check_word, deglex_key, nc_mul
from .scalars import HPoly
from . import presentations


def least_rotation_index(word: Word) -> int:
    """Index of the lexicographically minimal rotation (Booth's algorithm)."""
    doubled = word + word
    failure = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        letter = doubled[j]
        i = failure[j - k - 1]
        while i != -1 and letter != doubled[k + i + 1]:
            if letter < doubled[k + i + 1]:
                k = j - i - 1
            i = failure[i]
        if letter != doubled[k + i + 1]:
            if letter < doubled[k]:
                k = j
            failure[j - k] = -1
        else:
            failure[j - k] = i + 1
    return k


def rotate(word: Word, r: int) -> Word:
    if not word:
        return word
    r %= len(word)
    return word[r:] + word[:r]


class CyclicWord:
    """Rotation class of a nonempty word, keyed by its minimal rotation."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[int]):
        word = tuple(letters)
        if not word:
            raise EmptyCycle("cyclic words must be nonempty")
        check_word(word, n)
        self.n = n
        self.letters = rotate(word, least_rotation_index(word))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return self.n == other.n and self.letters == other.letters

    def __hash__(self):
        return hash((self.n, self.letters))

    def __repr__(self):
        return f"CyclicWord(n={self.n}, {list(self.letters)!r})"

    def __str__(self):
        return "Cycl(" + "*".join(f"x{i}" for i in self.letters) + ")"


class Potential:
    """Finitely supported map cyclic word -> HPoly."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[CyclicWord, HPoly] | None = None):
        self.n = n
        cleaned: Dict[CyclicWord, HPoly] = {}
        if terms:
            for cw, coeff in terms.items():
                if not isinstance(coeff, HPoly):
                    coeff = HPoly.const(coeff)
                if coeff:
                    if cw.n != n:
                        raise BadIndex(f"cycle over n={cw.n} in a potential over n={n}")
                    acc = cleaned.get(cw)
                    acc = coeff if acc is None else acc + coeff
                    if acc:
                        cleaned[cw] = acc
                    elif cw in cleaned:
                        del cleaned[cw]
        self.terms = cleaned

    @classmethod
    def zero(cls, n: int) -> "Potential":
        return cls(n, {})

    @classmethod
    def single(cls, n: int, letters: Iterable[int], coeff=HPoly.one()) -> "Potential":
        return cls(n, {CyclicWord(n, letters): coeff})

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: deglex_key(kv[0].letters))

    def __add__(self, other):
        if not isinstance(other, Potential) or other.n != self.n:
            return NotImplemented
        merged = dict(self.terms)
        out = Potential.zero(self.n)
        for cw, c in other.terms.items():
            acc = merged.get(cw)
            acc = c if acc is None else acc + c
            if acc:
                merged[cw] = acc
            elif cw in merged:
                del merged[cw]
        out.terms = merged
        return out

    def scale(self, scalar) -> "Potential":
        out = Potential.zero(self.n)
        out.terms = {cw: scalar * c for cw, c in self.terms.items() if scalar * c}
        return out

    def divisible_by_h(self) -> bool:
        return all(c.divisible_by_h() for c in self.terms.values())

    def max_degree(self) -> int:
        return max((len(cw) for cw in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, Potential):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"Potential(n={self.n}, {dict(self.sorted_terms())!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{cw}" for cw, c in self.sorted_terms())


def cyclic_derivative(pot: Potential, i: int) -> NCPoly:
    """Sum over occurrences of x_i: delete the letter, read on cyclically from there."""
    if not 1 <= i <= pot.n:
        raise BadIndex(f"generator {i} outside 1..{pot.n}")
    out = NCPoly.zero(pot.n)
    terms: Dict[Word, HPoly] = {}
    for cw, coeff in pot.terms.items():
        w = cw.letters
        for pos, letter in enumerate(w):
            if letter != i:
                continue
            cut = w[pos + 1:] + w[:pos]
            acc = terms.get(cut)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[cut] = acc
            elif cut in terms:
                del terms[cut]
    out.terms = terms
    return out


def all_cuttings(pot: Potential) -> NCPoly:
    """Sum over every cut position of every necklace of the linear word read from the cut."""
    out = NCPoly.zero(pot.n)
    terms: Dict[Word, HPoly] = {}
    for cw, coeff in pot.terms.items():
        w = cw.letters
        for pos in range(len(w)):
            word = rotate(w, pos)
            acc = terms.get(word)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[word] = acc
            elif word in terms:
                del terms[word]
    out.terms = terms
    return out


def euler_pairing(pot: Potential) -> NCPoly:
    """Sum over generators of (d pot / d x_i) * x_i, used against `all_cuttings`."""
    total = NCPoly.zero(pot.n)
    for i in range(1, pot.n + 1):
        total = total + nc_mul(cyclic_derivative(pot, i), NCPoly.gen(pot.n, i, HPoly.one()))
    return total


# index convention for three generators: the relation for the pair (i, j)
# carries the derivative with respect to the remaining generator
_PAIR_TO_COMPLEMENT = {(1, 2): 3, (2, 3): 1, (3, 1): 2}


def potential_to_presentation(pot: Potential) -> "presentations.Presentation":
    """Presentation with phi_12 = dP/dx3, phi_23 = dP/dx1, phi_31 = dP/dx2."""
    if pot.n != 3:
        raise UnsupportedArity(f"potential presentations need n=3, got n={pot.n}")
    if not pot.divisible_by_h():
        raise NotDeformation("potential coefficients must all be divisible by h")
    phi = {}
    for (i, j), k in _PAIR_TO_COMPLEMENT.items():
        d = cyclic_derivative(pot, k)
        if i < j:
            phi[(i, j)] = d
        else:
            phi[(j, i)] = -d
    return presentations.Presentation(3, phi)


def potential_of(p: "presentations.Presentation") -> Potential | None:
    """Reconstruct a potential inducing p, or None when no such potential exists.

    Works degreewise: pairing the relation tails with their complementary
    generators recovers each homogeneous part of the candidate up to the
    factor given by its degree; a round-trip check then decides exactness.
    """
    if p.n != 3:
        return None
    paired = NCPoly.zero(3)
    for (i, j), k in _PAIR_TO_COMPLEMENT.items():
        paired = paired + nc_mul(p.phi_at(i, j), NCPoly.gen(3, k, HPoly.one()))
    candidate = Potential.zero(3)
    acc: Dict[CyclicWord, HPoly] = {}
    for word, coeff in paired.terms.items():
        cw = CyclicWord(3, word)
        scaled = coeff * Fraction(1, len(word))
        prev = acc.get(cw)
        prev = scaled if prev is None else prev + scaled
        if prev:
            acc[cw] = prev
        elif cw in acc:
            del acc[cw]
    candidate.terms = acc
    if not candidate.divisible_by_h():
        return None
    rebuilt = potential_to_presentation(candidate)
    if rebuilt.phi == p.phi:
        return candidate
    return None

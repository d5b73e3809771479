"""Cyclic words (necklaces), potentials, and the cyclic partial derivative.

A cyclic word is a rotation-equivalence class of nonempty words, stored by
its lexicographically minimal rotation: the `min` over all its rotations, as
necklaces are short.  A potential is a finitely supported map from cyclic
words to hbar polynomials: the sparse word-polynomial core of `freealg`
keyed by `CyclicWord`, with its sums but no product.  The derivative with
respect to x_i cuts the necklace at every occurrence of i and reads the
remaining letters cyclically; it and the other sums over cuts feed their
terms to the core's one accumulate loop, `add_terms`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable

from .errors import BadIndex, EmptyCycle, NotDeformation, UnsupportedArity
from .freealg import (NCPoly, Word, WordPoly, add_terms, as_hpoly, check_word,
                      deglex_key, nc_mul)
from .scalars import HPoly
from . import presentations


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
        self.letters = min(word[r:] + word[:r] for r in range(len(word)))

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


class Potential(WordPoly):
    """Finitely supported map cyclic word -> HPoly."""

    __slots__ = ()

    def __init__(self, n: int, terms: Dict[CyclicWord, HPoly] | None = None):
        super().__init__(n, {cw: as_hpoly(c) for cw, c in (terms or {}).items()})

    def _check_word(self, cw: CyclicWord) -> None:
        if cw.n != self.n:
            raise BadIndex(f"cycle over n={cw.n} in a potential over n={self.n}")

    @staticmethod
    def _order(cw: CyclicWord):
        return deglex_key(cw.letters)

    @classmethod
    def single(cls, n: int, letters: Iterable[int], coeff=HPoly.one()) -> "Potential":
        return cls(n, {CyclicWord(n, letters): coeff})

    def divisible_by_h(self) -> bool:
        return all(c.divisible_by_h() for c in self.terms.values())

    _mono = staticmethod(str)  # Cycl(...)


def cyclic_derivative(pot: Potential, i: int) -> NCPoly:
    """Sum over occurrences of x_i: delete the letter, read on cyclically from there."""
    if not 1 <= i <= pot.n:
        raise BadIndex(f"generator {i} outside 1..{pot.n}")
    cuts = ((cw.letters[pos + 1:] + cw.letters[:pos], coeff)
            for cw, coeff in pot.terms.items()
            for pos, letter in enumerate(cw.letters) if letter == i)
    return NCPoly.adopt(pot.n, add_terms({}, cuts))


def all_cuttings(pot: Potential) -> NCPoly:
    """Sum over every cut position of every necklace of the linear word read from the cut."""
    cuts = ((rotate(cw.letters, pos), coeff)
            for cw, coeff in pot.terms.items() for pos in range(len(cw)))
    return NCPoly.adopt(pot.n, add_terms({}, cuts))


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
    candidate = Potential.adopt(3, add_terms({}, (
        (CyclicWord(3, word), coeff * Fraction(1, len(word)))
        for word, coeff in paired.terms.items())))
    if not candidate.divisible_by_h():
        return None
    rebuilt = potential_to_presentation(candidate)
    if rebuilt.phi == p.phi:
        return candidate
    return None

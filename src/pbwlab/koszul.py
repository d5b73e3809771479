"""Degrees 0/-1/-2 of a Koszul-type complex on symbols x_i, xi_ij, xi_ijk.

The complex is the free graded algebra on x_i (degree 0), xi_ij (degree -1,
antisymmetric) and xi_ijk (degree -2, totally antisymmetric).  Only these
three degrees are represented; this is exactly what the nilpotence check
d1 . d2 = 0 consumes.  A `Differential` holds the degree (-1) images d1 and
the degree (-2) images d2; `apply_d` extends them by the graded Leibniz rule
with the sign (-1)^(degree of the prefix).  A `Differential` converts its d1
images to `KoszulPoly`s once, when built; `d2_default` computes its values once
per n and hands each caller a fresh dict of them, never changed in place.

Elements are `KoszulPoly`s: the sparse word-polynomial core of `freealg`
with symbol tuples as letters, multiplied by the same `nc_mul` as `NCPoly`.
`apply_d` adds each Leibniz term straight into one dict with `add_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, Tuple

from .errors import BadIndex, Inhomogeneous
from .freealg import NCPoly, WordPoly, add_terms, nc_mul
from .presentations import LieData, Presentation, QuadData
from .scalars import HPoly

Symbol = Tuple
Pair = Tuple[int, int]
Triple = Tuple[int, int, int]

_DEGREES = {"x": 0, "xi2": -1, "xi3": -2}


def x(i: int) -> Symbol:
    return ("x", i)


def symbol_degree(sym: Symbol) -> int:
    return _DEGREES[sym[0]]


def xi2(i: int, j: int):
    """Canonical degree -1 symbol with sign; (0, None) when i = j."""
    if i == j:
        return 0, None
    if i < j:
        return 1, ("xi2", i, j)
    return -1, ("xi2", j, i)


def xi3(i: int, j: int, k: int):
    """Canonical degree -2 symbol with permutation sign; (0, None) on repeats."""
    if i == j or i == k or j == k:
        return 0, None
    return (-1) ** ((i > j) + (i > k) + (j > k)), ("xi3", *sorted((i, j, k)))


def word_degree(word: Tuple[Symbol, ...]) -> int:
    return sum(symbol_degree(s) for s in word)


class KoszulPoly(WordPoly):
    """Word polynomial over the symbols x_i, xi_ij, xi_ijk; one total degree per value."""

    __slots__ = ()

    @classmethod
    def from_ncpoly(cls, p: NCPoly) -> "KoszulPoly":
        return cls.adopt(p.n, {tuple(("x", i) for i in w): c for w, c in p.terms.items()})

    def to_ncpoly(self) -> NCPoly:
        out: Dict[Tuple[int, ...], object] = {}
        for word, coeff in self.terms.items():
            if any(sym[0] != "x" for sym in word):
                raise Inhomogeneous("only a degree-0 element converts to an NCPoly")
            out[tuple(sym[1] for sym in word)] = coeff
        return NCPoly(self.n, out)

    def degree(self):
        """Common cohomological degree of the support; None when zero."""
        degs = {word_degree(w) for w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise Inhomogeneous(f"mixed cohomological degrees {sorted(degs)}")
        return degs.pop()

    def __mul__(self, other):
        if not isinstance(other, WordPoly):
            return NotImplemented
        return nc_mul(self, other)

    def __str__(self):
        if not self.terms:
            return "0"
        def sym_str(sym):
            return f"x{sym[1]}" if sym[0] == "x" else "xi" + "".join(str(i) for i in sym[1:])
        parts = []
        for word, coeff in self.sorted_terms():
            mono = "*".join(sym_str(s) for s in word) if word else "1"
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)


def kterm(n: int, symbols: Iterable[Tuple], coeff=HPoly.one()) -> KoszulPoly:
    """Build a one-word KoszulPoly, canonicalizing xi indices and tracking signs.

    Items are ("x", i), ("xi2", i, j), or ("xi3", i, j, k) with indices in any
    order; a repeated index kills the term.
    """
    word = []
    sign = 1
    for item in symbols:
        kind = item[0]
        if kind == "x":
            word.append(("x", item[1]))
        elif kind in ("xi2", "xi3"):
            s, sym = (xi2 if kind == "xi2" else xi3)(*item[1:])
            if sym is None:
                return KoszulPoly.zero(n)
            sign *= s
            word.append(sym)
        else:
            raise BadIndex(f"unknown symbol kind {kind!r}")
    return KoszulPoly(n, {tuple(word): sign * coeff})


@dataclass
class Differential:
    """Images of the degree -1 and degree -2 generators; d1 also as `KoszulPoly`s."""

    n: int
    d1: Dict[Pair, NCPoly]
    d2: Dict[Triple, KoszulPoly]
    d1_images: Dict[Pair, KoszulPoly] = field(init=False, repr=False)

    def __post_init__(self):
        self.d1_images = {pair: KoszulPoly.from_ncpoly(v) for pair, v in self.d1.items()}


def triples(n: int):
    return list(combinations(range(1, n + 1), 3))


def d1_from_presentation(p: Presentation) -> Dict[Pair, NCPoly]:
    """d1(xi_ij) = x_i x_j - x_j x_i - phi_ij for i < j."""
    return {pair: p.relation(*pair) for pair in p.pairs()}


_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def d2_default(n: int) -> Dict[Triple, KoszulPoly]:
    """Unperturbed values [x_i, xi_jk] + [x_j, xi_ki] + [x_k, xi_ij]; empty for n < 3.
    A fresh dict on each call; the values, kept for the last 16 n, are shared: never change one."""
    return dict(_d2_default_items(n))


@lru_cache(maxsize=16)
def _d2_default_items(n: int):
    out = []
    for tri in triples(n):
        total = KoszulPoly.zero(n)
        for sa, sb, sc in _CYCLIC:
            s, t, u = tri[sa], tri[sb], tri[sc]
            total = total + kterm(n, [("x", s), ("xi2", t, u)])
            total = total + kterm(n, [("xi2", t, u), ("x", s)], -HPoly.one())
        out.append((tri, total))
    return tuple(out)


def d2_lie(data: LieData) -> Dict[Triple, KoszulPoly]:
    """Default values plus the Chevalley-Eilenberg correction -h sum_p c_st^p xi_pu."""
    out = d2_default(data.n)
    h = HPoly.h()
    for tri in triples(data.n):
        corr = KoszulPoly.zero(data.n)
        for sa, sb, sc in _CYCLIC:
            s, t, u = tri[sa], tri[sb], tri[sc]
            for pgen in range(1, data.n + 1):
                cval = data.c_at(s, t, pgen)
                if cval:
                    corr = corr + kterm(data.n, [("xi2", pgen, u)], -(h * cval))
        out[tri] = out[tri] + corr
    return out


def d2_quadratic(data: QuadData) -> Dict[Triple, KoszulPoly]:
    """Default values plus h sum alpha_tu^{ab} (xi_sa x_b + x_a xi_sb), cyclically."""
    out = d2_default(data.n)
    h = HPoly.h()
    for tri in triples(data.n):
        corr = KoszulPoly.zero(data.n)
        for sa, sb, sc in _CYCLIC:
            s, t, u = tri[sa], tri[sb], tri[sc]
            for a in range(1, data.n + 1):
                for b in range(1, data.n + 1):
                    aval = data.alpha_at(t, u, a, b)
                    if not aval:
                        continue
                    corr = corr + kterm(data.n, [("xi2", s, a), ("x", b)], h * aval)
                    corr = corr + kterm(data.n, [("x", a), ("xi2", s, b)], h * aval)
        out[tri] = out[tri] + corr
    return out


def apply_d(diff: Differential, p: KoszulPoly):
    """Graded Leibniz extension of the differential.

    Degree -1 input yields an NCPoly; degree -2 yields a degree -1 KoszulPoly.
    """
    deg = p.degree()
    if deg is None:
        return KoszulPoly.zero(p.n)
    if deg not in (-1, -2):
        raise Inhomogeneous(f"apply_d expects degree -1 or -2, got {deg}")
    terms: Dict[Tuple[Symbol, ...], object] = {}
    for word, coeff in p.terms.items():
        sign = 1
        for pos, sym in enumerate(word):
            if sym[0] == "x":
                continue
            image = diff.d1_images[sym[1:]] if sym[0] == "xi2" else diff.d2[sym[1:]]
            left, right, scaled = word[:pos], word[pos + 1:], coeff if sign > 0 else -coeff
            add_terms(terms, ((left + iw + right, scaled * ic) for iw, ic in image.terms.items()))
            # crossing this symbol flips the sign iff its degree is odd
            if symbol_degree(sym) % 2 != 0:
                sign = -sign
    result = KoszulPoly.adopt(p.n, terms)
    if deg == -1:
        return result.to_ncpoly()
    return result


def xi3_generator(n: int, tri: Triple) -> KoszulPoly:
    return kterm(n, [("xi3", *tri)])

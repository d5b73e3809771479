"""Degrees 0/-1/-2 of a Koszul-type complex on symbols x_i, xi_ij, xi_ijk.

The complex is the free graded algebra on x_i (degree 0), xi_ij (degree -1,
antisymmetric) and xi_ijk (degree -2, totally antisymmetric).  Only these
three degrees are represented; this is exactly what the nilpotence check
d1 . d2 = 0 consumes.

The check runs on Z[h], in the `scalars.ZPOLYS` ring.  `d1_rows` reads every
d1(xi_pq) from the ring row of the tails, over one integer denominator.  A
d2 is a set of entries per triple: terms c * u xi_pq v with x words u, v and
a Z[h] numerator c over the triple's denominator.  `tail_entries` builds the
default, Lie and quadratic entries from one formula over the tail tensor; a
custom d2 enters through `ZPOLYS.row`.  `residues` packs each d1 row value and
numerator c as an int at h = 2^bits (Kronecker substitution), sums every c * u
d1(xi_pq) v of a triple in one dict and unpacks only its nonzero sums.

`HPoly` coefficients stay on the public side: `d2_default`, `d2_lie` and
`d2_quadratic` are `KoszulPoly` views of the entries, and `apply_d` extends
a `Differential`'s d1 and d2 images by the graded Leibniz rule with the sign
(-1)^(degree of the prefix), adding each term into one dict with `add_terms`.
`KoszulPoly` is the sparse word-polynomial core of `freealg` with symbol
tuples as letters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, Tuple

from .errors import BadIndex, Inhomogeneous, PathMismatch
from .freealg import NCPoly, WordPoly, add_terms, nc_mul
from .presentations import LieData, Presentation, QuadData
from .scalars import (ZPOLYS, HPoly, _pack_bits, _ZPoly, _zpoly_pack, _zpoly_to_field,
                      _zpoly_unpack, clear_denominators)

Symbol = Tuple
Pair = Tuple[int, int]
Triple = Tuple[int, int, int]

_DEGREES = {"x": 0, "xi2": -1, "xi3": -2}


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

    @staticmethod
    def _mono(word) -> str:
        return "*".join(f"x{s[1]}" if s[0] == "x" else "xi" + "".join(map(str, s[1:]))
                        for s in word) or "1"


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


# The entries of a d2 are {triple: (den, [(u, (p, q), v, c)])}: each term
# c * u xi_pq v / den of its value, with x words u and v, p < q, c in Z[h] and
# den an integer (a constant `_ZPoly`).  No module-level typing alias over
# `_ZPoly`: typing caches one per imported copy of the class, and in a process
# that imports pbwlab afresh several times that raised the peak memory by about 5 %.

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _slots(tri: Triple):
    return [(tri[a], tri[b], tri[c]) for a, b, c in _CYCLIC]


@lru_cache(maxsize=16)
def _default_entries(n: int):
    """Per triple, the entries of sum [x_s, xi_tu] over the cyclic slots (s, t, u)."""
    out = []
    for tri in triples(n):
        entries = []
        for s, t, u in _slots(tri):
            sign, sym = xi2(t, u)
            entries += [((s,), sym[1:], (), _ZPoly((sign,))), ((), sym[1:], (s,), _ZPoly((-sign,)))]
        out.append((tri, tuple(entries)))
    return tuple(out)


def tail_entries(n: int, values: dict) -> dict:
    """Entries of the d2 of the tail tensor values {(t, u, *w): q}, phi_tu = h sum q w
    for t < u: the Lie c (one-letter w) or the quadratic alpha (two letters).  Per
    triple, sum [x_s, xi_tu] plus h q w, with one letter b of w turned into xi_sb,
    at each cyclic slot (s, t, u), over the one denominator of the values; for a
    linear tail this is the Chevalley-Eilenberg correction -h sum_p c_st^p xi_pu
    with the slots relabelled.  Keys that the signed accessors of `LieData`/`QuadData`
    never read are left out; {} gives the unperturbed entries, none for n < 3."""
    items = [(key, q) for key, q in sorted(values.items())
             if q and 1 <= key[0] < key[1] <= n and all(1 <= b <= n for b in key[2:])]
    den, nums = clear_denominators(q for _, q in items)
    table: Dict[Pair, list] = {}
    for ((t, u, *w), _), num in zip(items, nums):
        table.setdefault((t, u), []).append((tuple(w), num))
        table.setdefault((u, t), []).append((tuple(w), -num))
    scale = _ZPoly((den,))
    out = {}
    for tri, default in _default_entries(n):
        entries = list(default) if den == 1 else [(u, pq, v, c * scale) for u, pq, v, c in default]
        for s, t, u in _slots(tri):
            for w, num in table.get((t, u), ()):
                for pos, b in enumerate(w):
                    sign, sym = xi2(s, b)
                    if sign:
                        entries.append((w[:pos], sym[1:], w[pos + 1:], _ZPoly((0, sign * num))))
        out[tri] = (scale, entries)
    return out


def custom_entries(d2: Dict[Triple, KoszulPoly]) -> dict:
    """Entries of KoszulPoly values with exactly one xi2 symbol per word, through
    the Z[h] ring row; each triple keeps its own denominator, which must be an
    integer: an admissible d2 is polynomial in h."""
    out = {}
    for tri, value in d2.items():
        den, row = ZPOLYS.row(value, None)
        if len(den) > 1:
            raise PathMismatch(f"custom value for {tri} has coefficients outside Q[h]")
        entries = []
        for word, num in row.items():
            pos = next(k for k, sym in enumerate(word) if sym[0] == "xi2")
            entries.append((tuple(sym[1] for sym in word[:pos]), word[pos][1:],
                            tuple(sym[1] for sym in word[pos + 1:]), num))
        out[tri] = (den, entries)
    return out


def d2_view(n: int, d2: dict) -> Dict[Triple, KoszulPoly]:
    """The KoszulPoly values of d2's entries, terms in the order of the entries."""
    out = {}
    for tri, (den, entries) in d2.items():
        out[tri] = KoszulPoly.adopt(n, add_terms({}, (
            (tuple(("x", i) for i in u) + (("xi2", *pq),) + tuple(("x", i) for i in v),
             _zpoly_to_field(c, den)) for u, pq, v, c in entries)))
    return out


def d2_default(n: int) -> Dict[Triple, KoszulPoly]:
    """The unperturbed d2, [x_i, xi_jk] + [x_j, xi_ki] + [x_k, xi_ij]; fresh values
    on each call."""
    return d2_view(n, tail_entries(n, {}))


def d2_lie(data: LieData) -> Dict[Triple, KoszulPoly]:
    """The view of `tail_entries` of the structure constants."""
    return d2_view(data.n, tail_entries(data.n, data.c))


def d2_quadratic(data: QuadData) -> Dict[Triple, KoszulPoly]:
    """The view of `tail_entries` of the quadratic tensor."""
    return d2_view(data.n, tail_entries(data.n, data.alpha))


def d1_rows(p: Presentation) -> tuple:
    """(L, {pair: {word: num}}): d1(xi_pq) = x_p x_q - x_q x_p - phi_pq for p < q,
    read from the Z[h] ring row of the tails, each numerator over the one
    integer L (a constant `_ZPoly`)."""
    big, nums = ZPOLYS.row(WordPoly.adopt(p.n, {(pair, w): c for pair, poly in p.phi.items()
                                                for w, c in poly.terms.items()}), None)
    rows = {(i, j): {(i, j): big, (j, i): -big} for i, j in p.pairs()}
    for (pair, word), num in nums.items():
        add_terms(rows[pair], ((word, -num),))
    return big, rows


def residues(p: Presentation, d2: dict) -> Dict[Triple, NCPoly]:
    """d1(d2(xi_ijk)) for every triple of d2: the sum of c * u d1(xi_pq) v over its
    entries, one int multiply-add per term at h = 2^bits.  Distinct w in d1(xi_pq) give
    distinct words u w v, so a sum takes one product per entry at most (`_pack_bits`)."""
    big, rows = d1_rows(p)
    bits = _pack_bits([x for _, entries in d2.values() for _, _, _, c in entries for x in c],
                      [x for row in rows.values() for r in row.values() for x in r])
    packed = {pq: [(w, _zpoly_pack(r, bits)) for w, r in row.items()] for pq, row in rows.items()}
    out = {}
    for tri, (den, entries) in d2.items():
        acc: Dict[Tuple[int, ...], int] = {}
        for u, pq, v, c in entries:
            c = c[0] if len(c) == 1 else _zpoly_pack(c, bits)  # a constant packs as itself
            for w, r in packed[pq]:
                key = u + w + v
                acc[key] = acc.get(key, 0) + c * r
        den = _ZPoly((den[0] * big[0],))  # two integers
        out[tri] = NCPoly.adopt(p.n, {w: _zpoly_to_field(_zpoly_unpack(num, bits), den)
                                      for w, num in acc.items() if num})
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

"""Deformed presentations T(V)[h]/(x_i x_j - x_j x_i - phi_ij) and their constructors.

`phi_ij` is stored only for i < j; reads go through a signed accessor that
implements phi_ji = -phi_ij and phi_ii = 0, so the sign convention cannot be
violated by construction.  Constructors cover linear tails given by structure
constants and quadratic tails given by a coefficient tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import BadIndex
from .freealg import NCPoly
from .scalars import HPoly

Pair = Tuple[int, int]


def _signed(table: dict, i: int, j: int, rest: tuple, zero):
    """T_ij[rest] of a table stored for i < j only: T_ji = -T_ij, T_ii = 0."""
    if i == j:
        return zero
    if i < j:
        return table.get((i, j, *rest), zero)
    return -table.get((j, i, *rest), zero)


class Presentation:
    """Generator count n plus the family of relation tails phi_ij (i < j)."""

    __slots__ = ("n", "phi", "filtration_ok")

    def __init__(self, n: int, phi: Dict[Pair, NCPoly] | None = None):
        if n < 1:
            raise BadIndex("need at least one generator")
        self.n = n
        cleaned: Dict[Pair, NCPoly] = {}
        if phi:
            for (i, j), poly in phi.items():
                if not (1 <= i < j <= n):
                    raise BadIndex(f"phi index pair {(i, j)} must satisfy 1 <= i < j <= n")
                if poly.n != n:
                    raise BadIndex(f"phi_{i}{j} lives over n={poly.n}, presentation has n={n}")
                poly = poly.with_hpoly_coeffs()
                if poly:
                    cleaned[(i, j)] = poly
        self.phi = cleaned
        self.filtration_ok = all(p.deg_x() <= 2 for p in cleaned.values())

    def phi_at(self, i: int, j: int) -> NCPoly:
        """Signed accessor: phi_ji = -phi_ij, phi_ii = 0."""
        for idx in (i, j):
            if not 1 <= idx <= self.n:
                raise BadIndex(f"index {idx} outside 1..{self.n}")
        return _signed(self.phi, i, j, (), NCPoly.zero(self.n))

    def pairs(self):
        return [(i, j) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)]

    def relation(self, i: int, j: int) -> NCPoly:
        """x_i x_j - x_j x_i - phi_ij, the ideal generator for the pair."""
        rel = NCPoly(self.n, {(i, j): HPoly.one(), (j, i): -HPoly.one()})
        return rel - self.phi_at(i, j)

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.n == other.n and self.phi == other.phi

    def __repr__(self):
        return f"Presentation(n={self.n}, phi={self.phi!r})"


@dataclass(frozen=True)
class LieData:
    """Structure constants c_ijk for i < j; antisymmetry in (i, j) is implied."""

    n: int
    c: Dict[Tuple[int, int, int], Fraction] = field(default_factory=dict)

    def c_at(self, i: int, j: int, k: int) -> Fraction:
        return _signed(self.c, i, j, (k,), Fraction(0))


@dataclass(frozen=True)
class QuadData:
    """Quadratic tensor alpha_ij^{ab} for i < j; no symmetry in (a, b) assumed."""

    n: int
    alpha: Dict[Tuple[int, int, int, int], Fraction] = field(default_factory=dict)

    def alpha_at(self, i: int, j: int, a: int, b: int) -> Fraction:
        return _signed(self.alpha, i, j, (a, b), Fraction(0))


def _from_tensor(n: int, values: dict, name: str) -> Presentation:
    """phi_ij = h * sum_w T_ij^w x_w for the tensor values {(i, j, *w): T_ij^w}."""
    phi: Dict[Pair, NCPoly] = {}
    h = HPoly.h()
    for (i, j, *w), value in values.items():
        if not (1 <= i < j <= n and all(1 <= b <= n for b in w)):
            raise BadIndex(f"bad {name} index {(i, j, *w)}")
        if value:
            phi[(i, j)] = phi.get((i, j), NCPoly.zero(n)) + NCPoly(n, {tuple(w): h * value})
    return Presentation(n, phi)


def from_lie(data: LieData) -> Presentation:
    """phi_ij = h * sum_k c_ijk x_k.  The Jacobi identity is not required."""
    return _from_tensor(data.n, data.c, "structure constant")


def from_quadratic(data: QuadData) -> Presentation:
    """phi_ij = h * sum_{a,b} alpha_ij^{ab} x_a x_b."""
    return _from_tensor(data.n, data.alpha, "quadratic tensor")


def _tensor_of(p: Presentation, length: int) -> dict | None:
    """{(i, j, *w): T_ij^w} with phi_ij = h * sum_w T_ij^w x_w over words w of the
    given length, or None if some phi is not of that form."""
    values: Dict[tuple, Fraction] = {}
    for (i, j), poly in p.phi.items():
        for word, coeff in poly.terms.items():
            if len(word) != length or coeff.degree > 1 or not coeff.divisible_by_h():
                return None
            values[(i, j, *word)] = coeff.coeff(1)
    return values


def lie_data_of(p: Presentation) -> LieData | None:
    """Read structure constants back from p, or None if some phi is not h * linear."""
    c = _tensor_of(p, 1)
    return None if c is None else LieData(p.n, c)


def quad_data_of(p: Presentation) -> QuadData | None:
    """Read the quadratic tensor back from p, or None if some phi is not h * quadratic."""
    alpha = _tensor_of(p, 2)
    return None if alpha is None else QuadData(p.n, alpha)


@dataclass
class PairCheck:
    pair: Pair
    hbar_divisible: bool
    deg_x: int  # -1 for the zero tail


@dataclass
class ValidationReport:
    n: int
    valid: bool
    filtration_ok: bool
    pair_checks: List[PairCheck]
    paths: List[str]
    problems: List[str]


def check_tails(p: Presentation) -> Tuple[bool, List[PairCheck], List[str]]:
    """(valid, pair checks, problems): valid iff every tail is divisible by hbar."""
    checks: List[PairCheck] = []
    problems: List[str] = []
    for pair in p.pairs():
        poly = p.phi_at(*pair)
        divisible = all(c.divisible_by_h() for c in poly.terms.values())
        deg = poly.deg_x() if poly else -1
        checks.append(PairCheck(pair, divisible, deg))
        if not divisible:
            problems.append(f"NotDeformation: phi_{pair[0]}{pair[1]} is not divisible by h")
    valid = not problems
    if not p.filtration_ok:
        problems.append("FiltrationUnbounded: some phi has x-degree > 2; Hilbert comparison disabled")
    return valid, checks, problems


def validate(p: Presentation) -> ValidationReport:
    """Check hbar-divisibility and degree bounds; name the applicable certificate paths."""
    valid, checks, problems = check_tails(p)
    paths: List[str] = []
    if valid:
        if lie_data_of(p) is not None:
            paths.append("lie")
        if quad_data_of(p) is not None:
            paths.append("quadratic")
        from .cyclic import potential_of

        if p.n == 3 and potential_of(p) is not None:
            paths.append("potential")
    if not paths:
        paths.append("generic")
    return ValidationReport(p.n, valid, p.filtration_ok, checks, paths, problems)

"""Certificates and obstructions for the PBW property of a deformed presentation.

The central check composes the perturbed differentials: for every triple i < j < k the
element d1(d2(xi_ijk)) is computed exactly over Q[h] (summed on Z[h] rows by
`koszul.residues`), and the certificate passes iff all of these vanish.  A pass
establishes the descending-filtration PBW-like property, hence PBW at all but countably
many parameter values; with linear relation tails, at every value.  On failure the
lowest hbar-order coefficients of the residues generate the obstruction.

`check_quadratic_condition` is a contraction over the nonzero tensor entries whose
witness is the lexicographically first failing tuple; `check_poisson` stays a dense n^6
scan until ROADMAP item 7's benchmark change.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from typing import Dict, List, Optional, Tuple

from .errors import BadTriple, NoObstruction, NotDeformation, PathMismatch
from .freealg import NCPoly, hbar_coefficient
from .koszul import (Differential, KoszulPoly, Triple, custom_entries,
                     d1_from_presentation, d2_default, d2_view, residues, tail_entries, triples)
from .presentations import (LieData, Presentation, QuadData, check_tails, lie_data_of,
                            quad_data_of)
from .scalars import HPoly, HRat

D2_CHOICES = ("default", "lie", "quadratic", "custom")


@dataclass
class CertificateReport:
    verdict: str  # "pass" | "fail"
    path: str
    n: int
    residues: Dict[Triple, NCPoly]
    claims: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _d2_entries(p: Presentation, d2_choice: str, custom_d2: Optional[Dict[Triple, KoszulPoly]],
                lie: Optional[LieData]) -> dict:
    """Entries of the chosen d2, lie being lie_data_of(p).  Tails not divisible by hbar raise
    NotDeformation with `validate`'s text; which certificate paths apply is not checked."""
    if not all(c.divisible_by_h() for tail in p.phi.values() for c in tail.terms.values()):
        raise NotDeformation("; ".join(check_tails(p)[2]))
    if d2_choice == "default":
        return tail_entries(p.n, {})
    if d2_choice == "lie":
        if lie is None:
            raise PathMismatch("relation tails are not h * linear; the lie differential does not apply")
        return tail_entries(lie.n, lie.c)
    if d2_choice == "quadratic":
        data = quad_data_of(p)
        if data is None:
            raise PathMismatch("relation tails are not h * quadratic; the quadratic differential does not apply")
        return tail_entries(data.n, data.alpha)
    if d2_choice == "custom":
        if custom_d2 is None:
            raise PathMismatch("custom differential requested but none supplied")
        expected = triples(p.n)
        missing = [tri for tri in expected if tri not in custom_d2]
        if missing:
            raise PathMismatch(f"custom differential misses triples {missing}")
        extra = [tri for tri in custom_d2 if tri not in expected]
        if extra:
            raise PathMismatch(f"custom differential has triples {extra} not i < j < k in 1..{p.n}")
        for tri, value in custom_d2.items():
            if value and value.degree() != -1:  # so each word carries one xi2 and no xi3
                raise PathMismatch(f"custom value for {tri} is not of degree -1")
        for tri, default in d2_default(p.n).items():  # h = 0 must give the Koszul d2
            if any(not HRat(c).num.divisible_by_h() for c in (custom_d2[tri] - default).terms.values()):
                raise PathMismatch(f"custom value for {tri} does not reduce to the Koszul d2 at h = 0")
        return custom_entries({tri: custom_d2[tri] for tri in expected})
    raise PathMismatch(f"unknown d2 choice {d2_choice!r}")


def build_differential(p: Presentation, d2_choice: str,
                       custom_d2: Optional[Dict[Triple, KoszulPoly]] = None) -> Differential:
    """The differential of p for one d2 choice, with the checks of `certify`."""
    entries = _d2_entries(p, d2_choice, custom_d2, lie_data_of(p) if d2_choice == "lie" else None)
    d2 = custom_d2 if d2_choice == "custom" else d2_view(p.n, entries)
    return Differential(p.n, d1_from_presentation(p), d2)


def certify(p: Presentation, d2_choice: str = "default",
            custom_d2: Optional[Dict[Triple, KoszulPoly]] = None) -> CertificateReport:
    """Check d1 . d2 = 0 on every xi_ijk; exact over Q[h], computed on Z[h] rows."""
    lie = lie_data_of(p)
    found = residues(p, _d2_entries(p, d2_choice, custom_d2, lie))
    passed = all(not r for r in found.values())
    claims: List[str] = []
    if passed:
        claims.append("descending-filtration PBW-like property established")
        if lie is not None:
            claims.append("PBW holds at every specialization h=a (linear relation tails)")
        else:
            claims.append("PBW holds for all but at most countably many specializations h=a; "
                          "the excluded set is not computed")
        if p.n < 3:
            claims.append("vacuous: no index triples for n < 3")
    else:
        claims.append("certificate failed for this d2 choice; the check is sufficient only, "
                      "so the descending-filtration PBW-like property remains inconclusive")
    return CertificateReport("pass" if passed else "fail", d2_choice, p.n, found, claims)


def jacobiator(data: LieData, i: int, j: int, k: int) -> NCPoly:
    """h^2 sum over a, b of (c_ij^a c_ak^b + c_jk^a c_ai^b + c_ki^a c_aj^b) x_b."""
    if len({i, j, k}) < 3:
        raise BadTriple(f"indices {(i, j, k)} must be distinct")
    n = data.n
    h2 = HPoly.h(2)
    out = NCPoly.zero(n)
    for b in range(1, n + 1):
        total = Fraction(0)
        for a in range(1, n + 1):
            total += (data.c_at(i, j, a) * data.c_at(a, k, b)
                      + data.c_at(j, k, a) * data.c_at(a, i, b)
                      + data.c_at(k, i, a) * data.c_at(a, j, b))
        if total:
            out = out + NCPoly(n, {(b,): h2 * total})
    return out


@dataclass
class ConditionReport:
    passed: bool
    witness: Optional[Tuple[int, ...]] = None
    value: Optional[Fraction] = None


def check_quadratic_condition(data: QuadData) -> ConditionReport:
    """Cyclic sum over s of alpha_jk^{sb} alpha_is^{cd} + alpha_jk^{cs} alpha_is^{db},
    required to vanish for every tuple (i, j, k, b, c, d).  A contraction through s
    over the nonzero entries; the witness is the lexicographically first failing tuple."""
    n = data.n
    ending = defaultdict(list)  # q -> [(p, a, b, A)]: the nonzero A_pq^{ab}, antisymmetrized
    for (i, j, a, b), v in data.alpha.items():
        if v and 1 <= i < j <= n and 1 <= a <= n and 1 <= b <= n:
            ending[j].append((i, a, b, v))
            ending[i].append((j, a, b, -v))
    total = defaultdict(Fraction)
    for k, row in ending.items():
        for j, x, y, v in row:  # v = A_jk^{xy}, paired with the rows A_is
            products = [(i, y, c, d, v * w) for i, c, d, w in ending.get(x, ())]  # s = x, b = y
            products += [(i, b, x, d, v * w) for i, d, b, w in ending.get(y, ())]  # c = x, s = y
            for i, b, c, d, u in products:  # added at the three cyclic slots of (i, j, k)
                for key in ((i, j, k, b, c, d), (k, i, j, b, c, d), (j, k, i, b, c, d)):
                    total[key] += u
    witness = min((key for key, v in total.items() if v), default=None)
    return ConditionReport(witness is None, witness, witness and total[witness])


def check_poisson(data: QuadData) -> ConditionReport:
    """Jacobi condition for the symmetrized bivector beta_ij^{ab} = alpha_ij^{ab} + alpha_ij^{ba},
    checked after symmetrization over the upper indices.

    The unsymmetrized cyclic sums are tabulated once; each of the n^6 tuples
    is then a six-fold lookup sum.
    """
    n = data.n
    rng = range(1, n + 1)
    beta = {(i, j, a, b): data.alpha_at(i, j, a, b) + data.alpha_at(i, j, b, a)
            for i, j, a, b in product(rng, repeat=4)}
    cyclic_sum = {}
    for i, j, k, a, b, c in product(rng, repeat=6):
        total = Fraction(0)
        for s in rng:
            total += (beta[(i, s, a, b)] * beta[(j, k, s, c)]
                      + beta[(j, s, a, b)] * beta[(k, i, s, c)]
                      + beta[(k, s, a, b)] * beta[(i, j, s, c)])
        cyclic_sum[(i, j, k, a, b, c)] = total
    for i, j, k, a, b, c in product(rng, repeat=6):
        total = Fraction(0)
        for aa, bb, cc in permutations((a, b, c)):
            total += cyclic_sum[(i, j, k, aa, bb, cc)]
        if total:
            return ConditionReport(False, (i, j, k, a, b, c), total)
    return ConditionReport(True)


@dataclass
class ObstructionReport:
    hbar_order: int
    generators: List[Tuple[Triple, NCPoly]]


def _hbar_order(p: NCPoly) -> Optional[int]:
    """Lowest hbar power with a nonzero coefficient; None for zero."""
    return min((next(k for k, c in enumerate(coeff.coeffs) if c)
                for coeff in p.terms.values()), default=None)


def obstruction(p: Presentation, d2_choice: str = "default",
                custom_d2: Optional[Dict[Triple, KoszulPoly]] = None) -> ObstructionReport:
    """Lowest-order hbar coefficients of the nonzero certificate residues."""
    report = certify(p, d2_choice, custom_d2)
    if report.passed:
        raise NoObstruction("certificate passed; there is nothing to extract")
    orders = [o for o in (_hbar_order(r) for r in report.residues.values()) if o is not None]
    level = min(orders)
    generators: List[Tuple[Triple, NCPoly]] = []
    for tri in sorted(report.residues):
        gen = hbar_coefficient(report.residues[tri], level)
        if gen:
            generators.append((tri, gen))
    return ObstructionReport(level, generators)

"""Reference answers that do not come from the code under test.

* Dimensions: `span_dims` from tests/oracles.py, exact row reduction of the
  relation multiples u * r * v.  For x-homogeneous relations the degree-k
  part of the ideal is spanned by the multiples of degree exactly k, so
  margin 0 is exact.  Over Q(h) the dimensions are the elementwise minimum
  over two specializations (a specialization can only raise them, and a
  point that is not a root of any inverted polynomial attains them).
* Quadratic certificates and the coefficient condition:
  `quadratic_residue_bruteforce` from tests/oracles.py.
* Lie certificates and obstructions: `jacobiator`.
* The Poisson test: the Jacobi identity of the commutative quadratic
  bracket, computed here from the input document alone.
* Facts frozen in the corpus (CASCADING_DIMS, torsion statuses, CLI reports)
  were established once, outside any timed run; benchmarks/freeze.py
  recomputes them.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from itertools import combinations

# Saturated span oracle on the cascading-collapse fixture at h = 1/2 and at
# h = 1, K = 3: margins 2, 3 and 4 give (1,3,6,8), (1,1,0,1) and (1,1,0,0);
# margin 4 takes about a minute of row reduction, so it is frozen here
# (freeze.py --deep recomputes it).
CASCADING_DIMS = [1, 1, 0, 0]

GENERIC_POINTS = (Fraction(7, 11), Fraction(-13, 17))


def norm_poly(p) -> dict:
    """{word: coefficient tuple, lowest h-power first} of an NCPoly."""
    out = {}
    for w, c in p.terms.items():
        coeffs = tuple(c.coeffs) if hasattr(c, "coeffs") else (Fraction(c),)
        if coeffs:
            out[w] = coeffs
    return out


def certificate_answer(report) -> tuple:
    return report.verdict, {tri: norm_poly(r) for tri, r in report.residues.items()}


def obstruction_answer(report):
    if report is None:
        return None
    return report.hbar_order, {tri: norm_poly(gen) for tri, gen in report.generators}


class Refs:
    """References for one run; oracles are imported after the last set-up so
    that they share the classes of the pbwlab modules under test."""

    def __init__(self, pbw):
        self.pbw = pbw
        self._quad: dict = {}

    @property
    def oracles(self):
        oracles = importlib.import_module("oracles")
        if oracles.HPoly is not self.pbw.scalars.HPoly:   # pbwlab was imported afresh
            oracles = importlib.reload(oracles)
        return oracles

    def span_dims(self, pres, a, K: int) -> list:
        return self.oracles.span_dims(pres, a, K, 0)

    def generic_span_dims(self, pres, K: int) -> list:
        runs = [self.span_dims(pres, a, K) for a in GENERIC_POINTS]
        return [min(column) for column in zip(*runs)]

    def quadratic_certificate(self, data) -> tuple:
        key = id(data)
        if key not in self._quad:
            residues = {tri: norm_poly(self.oracles.quadratic_residue_bruteforce(data, *tri))
                        for tri in combinations(range(1, data.n + 1), 3)}
            verdict = "pass" if not any(residues.values()) else "fail"
            self._quad[key] = (verdict, residues)
        return self._quad[key]

    def lie_obstruction(self, data):
        """None when every jacobiator vanishes, else (2, the h^2 generators)."""
        gens = {}
        for tri in combinations(range(1, data.n + 1), 3):
            jac = self.pbw.certificates.jacobiator(data, *tri)
            if jac.terms:
                gens[tri] = {w: (c.coeffs[2],) for w, c in jac.terms.items()}
        return (2, gens) if gens else None


def poisson_holds(doc: dict) -> bool:
    """Jacobi identity of {x_i, x_j} = sum_ab beta_ij^ab x_a x_b on commutative
    polynomials, beta_ij^ab = alpha_ij^ab + alpha_ij^ba, from the document."""
    quad = doc["quadratic"]
    n = quad["n"]
    alpha: dict = {}
    for e in quad["alpha"]:
        value = Fraction(e["value"])
        for key, signed in (((e["i"], e["j"], e["a"], e["b"]), value),
                            ((e["j"], e["i"], e["a"], e["b"]), -value)):
            alpha[key] = alpha.get(key, 0) + signed

    def bracket_gens(i, j) -> dict:
        out: dict = {}
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                v = alpha.get((i, j, a, b), 0) + alpha.get((i, j, b, a), 0)
                if v:
                    mono = tuple(sorted((a, b)))
                    out[mono] = out.get(mono, 0) + v
        return out

    def bracket_with(i, poly: dict) -> dict:
        out: dict = {}
        for mono, c in poly.items():
            for t, letter in enumerate(mono):
                rest = mono[:t] + mono[t + 1:]
                for m2, c2 in bracket_gens(i, letter).items():
                    key = tuple(sorted(rest + m2))
                    out[key] = out.get(key, 0) + c * c2
        return out

    for i, j, k in combinations(range(1, n + 1), 3):
        total: dict = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for mono, c in bracket_with(x, bracket_gens(y, z)).items():
                total[mono] = total.get(mono, 0) + c
        if any(total.values()):
            return False
    return True

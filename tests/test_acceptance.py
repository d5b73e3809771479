"""Acceptance suite: exact desk-scale checks, one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Every comparison is exact
(rational arithmetic); randomized batches use fixed seeds.
"""

import random
import time
from fractions import Fraction

from oracles import quadratic_residue_bruteforce, span_dims
from pbwlab.certificates import (certify, check_poisson, check_quadratic_condition,
                                 jacobiator, obstruction)
from pbwlab.cyclic import CyclicWord, Potential, cyclic_derivative, potential_to_presentation
from pbwlab.errors import BadSpecialization
from pbwlab.freealg import NCPoly, commutator, hbar_coefficient
from pbwlab.koszul import Differential, apply_d, d1_from_presentation, d2_default, triples
from pbwlab.presentations import LieData, Presentation, QuadData, from_lie, from_quadratic
from pbwlab.rewriting import build_rules, hilbert, torsion_check
from pbwlab.scalars import HPoly


def _report(num: int, ok: bool, started: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({time.time() - started:.1f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_potential(rng, n, max_len, h_divisible=True, max_terms=3, exact_len=None):
    pot = Potential.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        length = exact_len if exact_len else rng.randint(1, max_len)
        word = tuple(rng.randint(1, n) for _ in range(length))
        lowest = rng.randint(1, 2) if h_divisible else rng.randint(0, 2)
        coeff = HPoly([0] * lowest + [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))])
        pot = pot + Potential(n, {CyclicWord(n, word): coeff})
    return pot


def _random_lie(rng, n, max_entries=4):
    c = {}
    for _ in range(rng.randint(0, max_entries)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        k = rng.randint(1, n)
        c[(i, j, k)] = c.get((i, j, k), Fraction(0)) + Fraction(rng.choice([-2, -1, 1, 2]))
    return LieData(n, {key: v for key, v in c.items() if v})


def _random_quad(rng, n, max_entries=4):
    alpha = {}
    for _ in range(rng.randint(0, max_entries)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        a = rng.randint(1, n)
        b = rng.randint(1, n)
        alpha[(i, j, a, b)] = alpha.get((i, j, a, b), Fraction(0)) \
            + Fraction(rng.choice([-2, -1, 1, 2]))
    return QuadData(n, {key: v for key, v in alpha.items() if v})


_QUAD_CACHE = None


def _quad_sample():
    """Deterministic 500-case sample shared by criteria 4 and 5, with seeded
    nontrivial passers of the cyclic coefficient condition.  Returns pairs
    (data, condition_report); the condition runs once per datum."""
    global _QUAD_CACHE
    if _QUAD_CACHE is not None:
        return _QUAD_CACHE
    rng = random.Random(104)
    sample = [QuadData(3, {}),
              QuadData(3, {(1, 2, 1, 2): Fraction(1)}),
              QuadData(3, {(2, 3, 3, 2): Fraction(-2)}),
              QuadData(3, {(1, 2, 2, 1): Fraction(-1), (2, 3, 3, 2): Fraction(-1),
                           (1, 3, 1, 3): Fraction(1)})]  # cubic-potential shape
    while len(sample) < 500:
        sample.append(_random_quad(rng, 3))
    _QUAD_CACHE = [(data, check_quadratic_condition(data)) for data in sample]
    return _QUAD_CACHE


STRANGE = Potential(3, {CyclicWord(3, (3, 2, 1)): -HPoly.h()})


def test_criterion_01_cyclic_cancellation():
    """Sum over i of [dPhi/dx_i, x_i] vanishes identically."""
    started = time.time()
    rng = random.Random(101)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        pot = _random_potential(rng, n, max_len=6, h_divisible=False)
        total = NCPoly.zero(n)
        for i in range(1, n + 1):
            total = total + commutator(cyclic_derivative(pot, i),
                                       NCPoly.gen(n, i, HPoly.one()))
        if total:
            _report(1, False, started, f"nonzero cancellation sum for {pot}")
        checked += 1
    _report(1, True, started, f"cyclic cancellation exact on {checked} random potentials")


def test_criterion_02_koszul_nilpotence():
    """d1 . d2 = 0 on the unperturbed complex, and each cyclic summand expands
    to the matching double commutator."""
    started = time.time()
    for n in range(3, 7):
        diff = Differential(n, d1_from_presentation(Presentation(n)), d2_default(n))
        for (i, j, k) in triples(n):
            from pbwlab.koszul import kterm

            for s, t, u in ((i, j, k), (j, k, i), (k, i, j)):
                piece = (kterm(n, [("x", s), ("xi2", t, u)])
                         - kterm(n, [("xi2", t, u), ("x", s)]))
                expected = commutator(NCPoly.gen(n, s, HPoly.one()),
                                      commutator(NCPoly.gen(n, t, HPoly.one()),
                                                 NCPoly.gen(n, u, HPoly.one())))
                if apply_d(diff, piece) != expected:
                    _report(2, False, started, f"summand mismatch at {(s, t, u)}, n={n}")
            if apply_d(diff, diff.d2[(i, j, k)]):
                _report(2, False, started, f"nonzero composite at {(i, j, k)}, n={n}")
    _report(2, True, started, "unperturbed nilpotence exact for all triples, n <= 6")


def test_criterion_03_lie_certificate_iff_jacobi():
    started = time.time()
    rng = random.Random(103)
    fails = 0
    cases = [LieData(3, {}),  # abelian
             LieData(3, {(1, 2, 3): Fraction(1)}),  # heisenberg
             LieData(3, {(1, 2, 3): Fraction(1), (1, 3, 1): Fraction(-2),
                         (2, 3, 2): Fraction(2)})]  # sl2
    while len(cases) < 500:
        cases.append(_random_lie(rng, rng.randint(3, 4)))
    for data in cases:
        pres = from_lie(data)
        report = certify(pres, "lie")
        jac = {tri: jacobiator(data, *tri) for tri in triples(data.n)}
        all_jacobi = all(not j for j in jac.values())
        if report.passed != all_jacobi:
            _report(3, False, started, f"verdict mismatch for {data}")
        if not report.passed:
            fails += 1
            ob = obstruction(pres, "lie")
            if ob.hbar_order != 2:
                _report(3, False, started, f"obstruction order {ob.hbar_order} for {data}")
            expected = {tri: hbar_coefficient(jac[tri], 2)
                        for tri in jac if jac[tri]}
            got = dict(ob.generators)
            if got != expected:
                _report(3, False, started, f"generators differ for {data}")
    _report(3, True, started,
            f"certificate iff Jacobi on 500 cases ({fails} failing cases matched exactly)")


def test_criterion_04_quadratic_certificate_iff_condition():
    started = time.time()
    fails = 0
    for data, cond in _quad_sample():
        pres = from_quadratic(data)
        report = certify(pres, "quadratic")
        if report.passed != cond.passed:
            _report(4, False, started, f"verdict mismatch for {data}")
        if not report.passed:
            fails += 1
            for tri in triples(3):
                if report.residues[tri] != quadratic_residue_bruteforce(data, *tri):
                    _report(4, False, started, f"residue mismatch for {data}")
            if obstruction(pres, "quadratic").hbar_order != 2:
                _report(4, False, started, f"order != 2 for {data}")
    _report(4, True, started,
            f"certificate iff coefficient condition on 500 cases "
            f"({fails} failures matched the brute-force expansion)")


def test_criterion_05_poisson_implication(poisson_not_special):
    started = time.time()
    passers = 0
    for data, cond in _quad_sample():
        if cond.passed:
            passers += 1
            if not check_poisson(data).passed:
                _report(5, False, started, f"condition passer fails the Jacobi test: {data}")
    if passers == 0:
        _report(5, False, started, "sample contained no condition passers")
    if check_quadratic_condition(poisson_not_special).passed:
        _report(5, False, started, "stored fixture unexpectedly passes the condition")
    if not check_poisson(poisson_not_special).passed:
        _report(5, False, started, "stored fixture fails the Jacobi test")
    _report(5, True, started,
            f"{passers} condition passers all Poisson; fixture separates the conditions")


def test_criterion_06_potential_certificates_and_generic_match():
    started = time.time()
    rng = random.Random(106)
    hilbert_runs = 0
    for idx in range(200):
        cubic = idx % 2 == 0
        pot = _random_potential(rng, 3, max_len=3 if cubic else 4,
                                h_divisible=True)
        pres = potential_to_presentation(pot)
        if not certify(pres, "default").passed:
            _report(6, False, started, f"default certificate failed for {pot}")
        if cubic and pres.filtration_ok:
            # flatness is established by the certificate just checked, so the
            # single-depth counts are exact as soon as they match
            dims = build_rules(pres, "generic").complete(5).normal_word_counts(4)
            if dims != [1, 3, 6, 10, 15]:
                _report(6, False, started, f"generic dims {dims} for {pot}")
            hilbert_runs += 1
    _report(6, True, started,
            f"200 potential certificates passed; {hilbert_runs} generic "
            f"Hilbert runs all (1,3,6,10,15)")


def test_criterion_07_counterexample_reproduction():
    started = time.time()
    pres = potential_to_presentation(STRANGE)
    rep = hilbert(pres, 3, a=Fraction(1))
    ok = (rep.dims == [1, 3, 6, 12] and rep.expected == [1, 3, 6, 10]
          and rep.verdicts == ["match", "match", "match", "defect"])
    if not ok:
        _report(7, False, started, f"dims {rep.dims} verdicts {rep.verdicts}")
    system = build_rules(pres, "at", Fraction(1)).complete(4)
    normal = system.normal_words(3)
    forbidden = {(1, 2), (2, 3), (3, 1)}
    for degree in range(4):
        brute = [w for w in _all_words(3, degree)
                 if not any(w[t:t + 2] in forbidden for t in range(len(w) - 1))]
        if sorted(normal[degree]) != sorted(brute):
            _report(7, False, started, f"normal words differ at degree {degree}")
    # block pattern x^a z^b y^c x^d ...: distinct consecutive letters step 1->3->2->1
    step = {1: 3, 3: 2, 2: 1}
    for w in normal[3]:
        for t in range(len(w) - 1):
            if w[t] != w[t + 1] and step[w[t]] != w[t + 1]:
                _report(7, False, started, f"word {w} violates the block pattern")
    _report(7, True, started,
            "defect (1,3,6,12) vs (1,3,6,10) first at k=3; basis matches the block pattern")


def test_criterion_08_torsion_witness():
    started = time.time()
    pres = potential_to_presentation(STRANGE)
    T = NCPoly(3, {(3, 2, 1): -HPoly.one(), (1, 3, 2): HPoly.one()})
    out = torsion_check(pres, T, HPoly([1, -1]), 5)
    if not out.is_witness:
        _report(8, False, started, f"expected witness, got {out.status}: {out.detail}")
    _report(8, True, started,
            f"witness: (1-h)T in the ideal, T nonzero at h={out.refuting_specialization}")


def test_criterion_09_classical_pbw():
    started = time.time()
    sl2 = from_lie(LieData(3, {(1, 2, 3): Fraction(1), (1, 3, 1): Fraction(-2),
                               (2, 3, 2): Fraction(2)}))
    heis = from_lie(LieData(3, {(1, 2, 3): Fraction(1)}))
    expected = [1, 3, 6, 10, 15, 21]
    for name, pres in (("sl2", sl2), ("heisenberg", heis)):
        for a in (Fraction(1), Fraction(1, 2), Fraction(-2)):
            rep = hilbert(pres, 5, a=a)
            if rep.dims != expected:
                _report(9, False, started, f"{name} at {a}: {rep.dims}")
        rep = hilbert(pres, 5, generic=True)
        if rep.dims != expected:
            _report(9, False, started, f"{name} generic: {rep.dims}")
    _report(9, True, started, "sl2 and heisenberg match (1,3,6,10,15,21) at all requested modes")


def _all_words(n, degree):
    words = [()]
    for _ in range(degree):
        words = [w + (letter,) for w in words for letter in range(1, n + 1)]
    return words


def _random_presentation(rng):
    n = rng.randint(2, 3)
    kind = rng.choice(["lie", "quad", "mixed", "potential" if n == 3 else "lie"])
    if kind == "lie":
        return from_lie(_random_lie(rng, n, 3))
    if kind == "quad":
        return from_quadratic(_random_quad(rng, n, 3))
    if kind == "potential":
        return potential_to_presentation(
            _random_potential(rng, 3, max_len=3, h_divisible=True, max_terms=2))
    phi = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            poly = NCPoly.zero(n)
            for _ in range(rng.randint(0, 2)):
                deg = rng.randint(0, 2)
                word = tuple(rng.randint(1, n) for _ in range(deg))
                coeff = HPoly([0] * rng.randint(1, 2) + [Fraction(rng.choice([-1, 1]))])
                poly = poly + NCPoly(n, {word: coeff})
            if poly:
                phi[(i, j)] = poly
    return Presentation(n, phi)


def test_criterion_10_oracle_cross_validation():
    """Completion dimensions against exact row reduction of relation multiples.

    The row-reduction span at margin M = K + 2 can miss ideal elements whose
    derivation cascades through lower degrees; in that event the margin is
    raised until the span saturates, and the saturated count must agree.  A
    completion count exceeding the span count at any margin is a hard failure.
    """
    started = time.time()
    rng = random.Random(110)
    agreed_at_stated = 0
    escalated = 0
    done = 0
    while done < 50:
        pres = _random_presentation(rng)
        K = rng.randint(2, 3)
        a = Fraction(rng.choice([1, -1, 2, 3, 5]), rng.choice([1, 1, 2]))
        try:
            rep = hilbert(pres, K, a=a)
        except BadSpecialization:
            continue
        margin = 2
        dims = span_dims(pres, a, K, margin)
        if rep.dims == dims:
            agreed_at_stated += 1
        else:
            if any(h > o for h, o in zip(rep.dims, dims)):
                _report(10, False, started,
                        f"completion exceeds the span bound: {rep.dims} vs {dims}")
            while rep.dims != dims and margin < 5:
                margin += 1
                dims = span_dims(pres, a, K, margin)
            if rep.dims != dims:
                _report(10, False, started,
                        f"disagreement persists at margin {margin}: {rep.dims} vs {dims}")
            escalated += 1
        done += 1
    _report(10, True, started,
            f"50 presentations: {agreed_at_stated} agree at margin 2, "
            f"{escalated} agree after saturating the span")


def test_criterion_11_specialization_stability():
    started = time.time()
    rng = random.Random(111)
    sl2 = from_lie(LieData(3, {(1, 2, 3): Fraction(1), (1, 3, 1): Fraction(-2),
                               (2, 3, 2): Fraction(2)}))
    heis = from_lie(LieData(3, {(1, 2, 3): Fraction(1)}))
    strange = potential_to_presentation(STRANGE)
    qplane = from_quadratic(QuadData(2, {(1, 2, 1, 2): Fraction(1)}))
    qline = from_quadratic(QuadData(3, {(1, 2, 1, 2): Fraction(1)}))
    fixtures = [("sl2", sl2, "lie"), ("heisenberg", heis, "lie"),
                ("strange", strange, "default"), ("quantum-plane", qplane, "quadratic"),
                ("quantum-line", qline, "quadratic")]
    for name, pres, path in fixtures:
        if not certify(pres, path).passed:
            _report(11, False, started, f"fixture {name} does not pass its certificate")
        for _ in range(5):
            ok = False
            for _attempt in range(2):  # one re-randomization allowed
                a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                try:
                    rep = hilbert(pres, 4, a=a)
                except BadSpecialization:
                    continue
                if rep.all_match:
                    ok = True
                    break
            if not ok:
                _report(11, False, started, f"fixture {name} failed twice near a={a}")
    _report(11, True, started,
            "5 certificate-passing fixtures match at 5 random specializations each")

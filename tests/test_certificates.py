import json
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import (certify_residues_reference, koszul_at_zero_reference,
                     quadratic_condition_reference, quadratic_residue_bruteforce)
from pbwlab import certificates, koszul
from pbwlab.certificates import (D2_CHOICES, build_differential, certify, check_poisson,
                                 check_quadratic_condition, jacobiator, obstruction)
from pbwlab.errors import BadTriple, NoObstruction, NotDeformation, PathMismatch
from pbwlab.freealg import NCPoly, hbar_coefficient
from pbwlab.jsonio import quad_data_from_json
from pbwlab.koszul import KoszulPoly, d2_default, d2_lie, kterm, triples
from pbwlab.presentations import (LieData, Presentation, QuadData, from_lie,
                                  from_quadratic, lie_data_of, quad_data_of, validate)
from pbwlab.cyclic import potential_to_presentation
from pbwlab.rewriting import build_rules, member
from pbwlab.scalars import HPoly, HRat, _ZPoly


class TestCertify:
    def test_sl2_lie_passes(self, sl2):
        report = certify(from_lie(sl2), "lie")
        assert report.passed
        assert all(not r for r in report.residues.values())
        assert any("every specialization" in c for c in report.claims)

    def test_potential_default_passes(self, strange_presentation):
        assert certify(strange_presentation, "default").passed

    def test_quantum_plane_vacuous(self, quantum_plane):
        report = certify(from_quadratic(quantum_plane), "quadratic")
        assert report.passed
        assert not report.residues

    def test_path_mismatch(self, quantum_plane, sl2):
        with pytest.raises(PathMismatch):
            certify(from_quadratic(quantum_plane), "lie")
        with pytest.raises(PathMismatch):
            certify(from_lie(sl2), "quadratic")

    def test_invalid_presentation_rejected(self):
        p = Presentation(3, {(1, 2): NCPoly(3, {(1, 2): HPoly.one()})})
        with pytest.raises(NotDeformation):
            certify(p, "default")

    @pytest.mark.parametrize("d2_choice", D2_CHOICES)
    def test_not_deformation_text(self, d2_choice):
        """Tails not divisible by h are named in validate's words, followed by the
        filtration line when some tail also has x-degree > 2."""
        h, one = HPoly.h(), HPoly.one()
        cases = [
            ({(1, 2): NCPoly(3, {(3,): one}), (2, 3): NCPoly(3, {(1,): HPoly([1, 1])})},
             "NotDeformation: phi_12 is not divisible by h; "
             "NotDeformation: phi_23 is not divisible by h"),
            ({(1, 2): NCPoly(3, {(3,): HPoly([2, 1])}), (1, 3): NCPoly(3, {(1, 2, 3): h})},
             "NotDeformation: phi_12 is not divisible by h; "
             "FiltrationUnbounded: some phi has x-degree > 2; Hilbert comparison disabled"),
            ({(2, 3): NCPoly(3, {(1, 1, 1): one, (2,): h})},
             "NotDeformation: phi_23 is not divisible by h; "
             "FiltrationUnbounded: some phi has x-degree > 2; Hilbert comparison disabled"),
        ]
        for phi, text in cases:
            p = Presentation(3, phi)
            assert "; ".join(validate(p).problems) == text
            for fn in (certify, obstruction):
                with pytest.raises(NotDeformation) as exc:
                    fn(p, d2_choice)
                assert str(exc.value) == text

    def test_pass_path_builds_no_tail_report(self, monkeypatch, sl2, quantum_plane, non_jacobi):
        """check_tails, with its per-pair report, runs only to word a NotDeformation."""
        calls = Counter()
        original = certificates.check_tails

        def counting(p):
            calls["check_tails"] += 1
            return original(p)

        monkeypatch.setattr(certificates, "check_tails", counting)
        certify(from_lie(sl2), "lie")
        certify(from_quadratic(quantum_plane), "quadratic")
        obstruction(from_lie(non_jacobi), "lie")
        assert calls == Counter()
        with pytest.raises(NotDeformation):
            certify(Presentation(3, {(1, 2): NCPoly(3, {(3,): HPoly.one()})}), "default")
        assert calls == Counter(check_tails=1)

    def test_custom_d2_equivalent_to_lie(self, sl2):
        from pbwlab.koszul import d2_lie

        report = certify(from_lie(sl2), "custom", custom_d2=d2_lie(sl2))
        assert report.passed

    def test_custom_d2_must_cover_triples(self, sl2):
        with pytest.raises(PathMismatch):
            certify(from_lie(sl2), "custom", custom_d2={})

    def test_custom_d2_keys_must_be_triples(self, sl2):
        """A key that is not i < j < k ends certify, build_differential and the
        reference with one text, even when every triple is covered."""
        custom = {**d2_lie(sl2), (3, 2, 1): d2_default(3)[(1, 2, 3)]}
        for run in (certify, build_differential, certify_residues_reference):
            with pytest.raises(PathMismatch, match=r"triples \[\(3, 2, 1\)\] not i < j < k in 1..3"):
                run(from_lie(sl2), "custom", custom)

    def test_custom_d2_with_rational_function_coefficients_rejected(self, sl2):
        """h / (1 + h) * x1 xi23 added to the Koszul d2 passes the h = 0 check,
        but a d2 outside Q[h] proves nothing: certify, obstruction and
        build_differential reject it before any residue is built."""
        h = HPoly.h()
        custom = d2_default(3)
        custom[(1, 2, 3)] = custom[(1, 2, 3)] + kterm(3, [("x", 1), ("xi2", 2, 3)], HRat(h, 1 + h))
        for run in (certify, obstruction, build_differential):
            with pytest.raises(PathMismatch, match=r"value for \(1, 2, 3\) has coefficients outside Q\[h\]"):
                run(from_lie(sl2), "custom", custom)

    def test_custom_d2_must_be_supplied(self, sl2):
        with pytest.raises(PathMismatch, match="custom differential requested but none supplied"):
            certify(from_lie(sl2), "custom")

    def test_custom_d2_must_reduce_to_koszul_at_h0(self, non_jacobi):
        """The cycle xi12 r - r xi12, r = d1(xi12) = x1x2 - x2x1 - h x1, has
        d1 . d2 = 0 but is not the Koszul d2 at h = 0, so it proves nothing:
        both certify and obstruction reject it."""
        pres = from_lie(non_jacobi)
        xi12 = kterm(3, [("xi2", 1, 2)])
        r = KoszulPoly.from_ncpoly(pres.relation(1, 2))
        assert r == kterm(3, [("x", 1), ("x", 2)]) - kterm(3, [("x", 2), ("x", 1)]) \
            - kterm(3, [("x", 1)], HPoly.h())
        cycle = {(1, 2, 3): xi12 * r - r * xi12}
        for run in (certify, obstruction):
            with pytest.raises(PathMismatch, match="does not reduce to the Koszul d2 at h = 0"):
                run(pres, "custom", cycle)


class TestJacobiator:
    def test_sl2_vanishes(self, sl2):
        assert not jacobiator(sl2, 1, 2, 3)

    def test_abelian_vanishes(self):
        assert not jacobiator(LieData(3, {}), 1, 2, 3)

    def test_non_jacobi_value(self, non_jacobi):
        assert jacobiator(non_jacobi, 1, 2, 3) == NCPoly(3, {(2,): HPoly.h(2)})

    def test_repeated_indices_rejected(self, sl2):
        with pytest.raises(BadTriple):
            jacobiator(sl2, 1, 1, 2)

    @settings(max_examples=40)
    @given(sts.lie_datas(3))
    def test_free_algebra_identity(self, data):
        """The jacobiator equals the cyclic sum of h * c_ij^a phi_ak, exactly."""
        p = from_lie(data)
        h = HPoly.h()
        expected = NCPoly.zero(3)
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            for a in range(1, 4):
                c = data.c_at(i, j, a)
                if c:
                    expected = expected + p.phi_at(a, k).scale(h * c)
        assert jacobiator(data, 1, 2, 3) == expected

    @settings(max_examples=15, deadline=None)
    @given(sts.lie_datas(3, max_entries=3))
    def test_reduces_to_zero_through_relations(self, data):
        """As an identity in the quotient, the jacobiator is an ideal member."""
        system = build_rules(from_lie(data), "generic").complete(4)
        assert member(system, jacobiator(data, 1, 2, 3))


class TestQuadraticCondition:
    def test_zero_passes(self):
        assert check_quadratic_condition(QuadData(3, {})).passed

    def test_quantum_plane_passes(self, quantum_plane):
        assert check_quadratic_condition(quantum_plane).passed

    def test_single_pair_scan(self):
        report = check_quadratic_condition(QuadData(3, {(1, 2, 1, 1): Fraction(1)}))
        assert report.passed

    def test_two_pair_failure_with_witness(self):
        data = QuadData(3, {(1, 2, 1, 1): Fraction(1), (2, 3, 2, 2): Fraction(1)})
        report = check_quadratic_condition(data)
        assert not report.passed
        assert report.witness is not None and report.value


def _assert_matches_dense_scan(data):
    got, want = check_quadratic_condition(data), quadratic_condition_reference(data)
    assert (got.passed, got.witness, got.value, type(got.value)) \
        == (want.passed, want.witness, want.value, type(want.value))


def _passing_shapes(n):
    """Every upper index is n and n is never a lower index, so each product vanishes."""
    pairs = st.sampled_from(list(combinations(range(1, n), 2)))
    return st.dictionaries(pairs, sts.rationals(2, 2).filter(bool), min_size=1) \
        .map(lambda d: QuadData(n, {(i, j, n, n): v for (i, j), v in d.items()}))


# A passing n = 4 tensor costs the dense scan 196,608 alpha_at reads, so n = 4 draws few examples.
@settings(max_examples=40, deadline=None)
@given(st.one_of(sts.quad_datas(3), _passing_shapes(3)))
@example(QuadData(3, {(1, 2, 3, 3): Fraction(-2)}))
def test_condition_matches_dense_scan_n3(data):
    _assert_matches_dense_scan(data)


@settings(max_examples=6, deadline=None)
@given(st.one_of(sts.quad_datas(4), _passing_shapes(4)))
@example(QuadData(4, {(1, 2, 4, 4): Fraction(1), (2, 3, 4, 4): Fraction(-1, 2)}))
def test_condition_matches_dense_scan_n4(data):
    _assert_matches_dense_scan(data)


_TWELVE_FAILING = QuadData(3, {(1, 2, 1, 1): Fraction(1), (2, 3, 2, 2): Fraction(1)})
_CONDITION_EDGES = {
    "empty": QuadData(3, {}),
    "zero values": QuadData(3, {(1, 2, 1, 1): Fraction(0), (2, 3, 2, 2): Fraction(0)}),
    # alpha_at reads only keys with i < j and every index in 1..n
    "i > j and i == j": QuadData(3, {(2, 1, 1, 1): Fraction(1), (3, 2, 2, 2): Fraction(1),
                                     (2, 2, 1, 1): Fraction(1)}),
    # with (1, 2, 1, 2) beside it, each of these keys fails the condition if read
    "a outside 1..n": QuadData(3, {(2, 3, 4, 1): Fraction(1), (1, 2, 1, 2): Fraction(1)}),
    "b outside 1..n": QuadData(3, {(2, 3, 1, 0): Fraction(1), (1, 2, 1, 2): Fraction(1)}),
    "i outside 1..n": QuadData(3, {(0, 2, 1, 1): Fraction(1), (1, 2, 1, 2): Fraction(1)}),
    "j outside 1..n": QuadData(3, {(1, 4, 1, 1): Fraction(1), (1, 2, 1, 2): Fraction(1)}),
    "ignored keys beside a failure": QuadData(3, {**_TWELVE_FAILING.alpha,
                                                  (2, 1, 1, 1): Fraction(-1),
                                                  (1, 2, 1, 4): Fraction(1)}),
    "int values": QuadData(3, {(1, 2, 1, 1): 1, (2, 3, 2, 2): -2}),
    "cubic-potential shape": QuadData(3, {(1, 2, 2, 1): Fraction(-1), (2, 3, 3, 2): Fraction(-1),
                                          (1, 3, 1, 3): Fraction(1)}),
    "twelve failing tuples": _TWELVE_FAILING,
    "n = 4, twenty-four failing tuples": QuadData(4, {(3, 4, 1, 2): Fraction(1),
                                                      (1, 3, 4, 4): Fraction(1),
                                                      (2, 4, 3, 1): Fraction(-1, 2)}),
}


@pytest.mark.parametrize("name", sorted(_CONDITION_EDGES))
def test_condition_matches_dense_scan_on_edges(name):
    _assert_matches_dense_scan(_CONDITION_EDGES[name])


@pytest.mark.parametrize("fixture", ["quantum_plane", "poisson_not_special"])
def test_condition_matches_dense_scan_on_fixtures(request, fixture):
    _assert_matches_dense_scan(request.getfixturevalue(fixture))


def test_condition_matches_dense_scan_on_quantum3():
    doc = json.loads((Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"
                      / "quantum3.json").read_text())
    _assert_matches_dense_scan(quad_data_from_json(doc["quadratic"]))


def test_condition_witness_is_lexicographically_first():
    """Failing tuples come in threes, one per rotation of (i, j, k); the witness is
    the smallest of all, not the first the contraction happens to reach."""
    report = check_quadratic_condition(_TWELVE_FAILING)
    assert (report.witness, report.value) == ((1, 2, 3, 1, 2, 1), Fraction(1))
    report = check_quadratic_condition(_CONDITION_EDGES["n = 4, twenty-four failing tuples"])
    assert report.witness == (1, 2, 3, 1, 4, 3)


def test_condition_reads_no_alpha_at(monkeypatch, poisson_not_special):
    """The contraction reads the stored entries, never the signed accessor."""
    calls = Counter()
    original = QuadData.alpha_at

    def counting(self, *args):
        calls["alpha_at"] += 1
        return original(self, *args)

    monkeypatch.setattr(QuadData, "alpha_at", counting)
    quadratic_condition_reference(QuadData(2, {(1, 2, 1, 2): Fraction(1)}))
    assert calls["alpha_at"] > 0
    calls.clear()
    for data in [*_CONDITION_EDGES.values(), poisson_not_special]:
        check_quadratic_condition(data)
    assert calls == Counter()


class TestPoisson:
    def test_zero_passes(self):
        assert check_poisson(QuadData(3, {})).passed

    def test_quantum_plane_passes(self, quantum_plane):
        assert check_poisson(quantum_plane).passed

    def test_fixture_separates_conditions(self, poisson_not_special):
        assert check_poisson(poisson_not_special).passed
        assert not check_quadratic_condition(poisson_not_special).passed

    def test_random_failure_exists(self):
        data = QuadData(3, {(1, 2, 1, 1): Fraction(1), (1, 3, 1, 2): Fraction(1),
                            (2, 3, 3, 3): Fraction(1)})
        assert not check_poisson(data).passed


class TestObstruction:
    def test_matches_jacobiator(self, non_jacobi):
        report = obstruction(from_lie(non_jacobi), "lie")
        assert report.hbar_order == 2
        triples_seen = [tri for tri, _ in report.generators]
        assert triples_seen == [(1, 2, 3)]
        gen = report.generators[0][1]
        assert gen == hbar_coefficient(jacobiator(non_jacobi, 1, 2, 3), 2)

    def test_matches_bruteforce_quadratic(self):
        data = QuadData(3, {(1, 2, 1, 1): Fraction(1), (2, 3, 2, 2): Fraction(1)})
        rep = certify(from_quadratic(data), "quadratic")
        assert not rep.passed
        for tri in triples(3):
            assert rep.residues[tri] == quadratic_residue_bruteforce(data, *tri)
        ob = obstruction(from_quadratic(data), "quadratic")
        assert ob.hbar_order == 2

    def test_no_obstruction_error(self, sl2):
        with pytest.raises(NoObstruction):
            obstruction(from_lie(sl2), "lie")


@settings(max_examples=60)
@given(st.integers(3, 4).flatmap(lambda n: sts.lie_datas(n)))
def test_lie_certificate_iff_jacobi(data):
    report = certify(from_lie(data), "lie")
    all_jacobi = all(not jacobiator(data, i, j, k)
                     for (i, j, k) in triples(data.n))
    assert report.passed == all_jacobi
    if not report.passed:
        ob = obstruction(from_lie(data), "lie")
        assert ob.hbar_order >= 2


@settings(max_examples=60)
@given(sts.quad_datas(3))
def test_quadratic_certificate_iff_condition(data):
    report = certify(from_quadratic(data), "quadratic")
    assert report.passed == check_quadratic_condition(data).passed
    if not report.passed:
        ob = obstruction(from_quadratic(data), "quadratic")
        assert ob.hbar_order >= 2


@settings(max_examples=40, deadline=None)
@given(sts.potentials(3, max_terms=2, max_len=5, h_divisible=True))
def test_potential_certificate_always_passes(pot):
    assert certify(potential_to_presentation(pot), "default").passed


def _tails(n):
    """Tails with words of length 0, 1 and 2 and coefficients of h-degree up to 3;
    one coefficient kind in five keeps its constant term, so some are no deformation."""
    coeffs = st.lists(sts.rationals(2, 3), min_size=1, max_size=3)
    divisible = coeffs.map(lambda cs: HPoly([0, *cs]))
    coeff = st.one_of(divisible, divisible, divisible, divisible, coeffs.map(HPoly))
    poly = st.dictionaries(sts.words(n, 2), coeff, min_size=1, max_size=3)
    pairs = st.sampled_from(list(combinations(range(1, n + 1), 2)))
    return st.dictionaries(pairs, poly.map(lambda d: NCPoly(n, d)), max_size=3) \
        .map(lambda phi: Presentation(n, phi))


@st.composite
def _custom_d2(draw, n):
    """The default values plus terms c * u xi_st v with c = h * (a + b h), a and b
    fractions; now and then a triple is missing or a value has mixed degrees."""
    d2 = d2_default(n)
    for tri in d2:
        for _ in range(draw(st.integers(0, 3))):
            s, t = draw(st.permutations(range(1, n + 1)))[:2]
            u, v = draw(sts.words(n, 2)), draw(sts.words(n, 2))
            symbols = [("x", i) for i in u] + [("xi2", s, t)] + [("x", i) for i in v]
            d2[tri] = d2[tri] + kterm(n, symbols, draw(sts.hpolys(1, 2)) * HPoly.h())
    flaw = draw(st.sampled_from([None] * 8 + ["missing", "mixed"]))
    if flaw and d2:
        tri = draw(st.sampled_from(sorted(d2)))
        if flaw == "missing":
            del d2[tri]
        else:
            d2[tri] = d2[tri] + kterm(n, [("x", 1)])
    return d2


@st.composite
def _certify_cases(draw):
    """A d2 choice and a presentation; Lie and quadratic tails mostly on their own path."""
    n = draw(st.sampled_from([2, 3, 4]))
    choice = draw(st.sampled_from(D2_CHOICES))
    kind = draw(st.sampled_from([choice, "lie", "quadratic", "tails"]))
    if kind == "lie":
        pres = from_lie(draw(sts.lie_datas(n)))
    elif kind == "quadratic":
        pres = from_quadratic(draw(sts.quad_datas(n)))
    else:
        pres = draw(_tails(n))
    return pres, choice, draw(_custom_d2(n)) if choice == "custom" else None


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the exception is the answer to compare
        return type(exc), str(exc)


_NON_JACOBI4 = LieData(4, {(1, 2, 3): Fraction(1), (1, 3, 4): Fraction(-1, 2),
                           (2, 4, 1): Fraction(2), (3, 4, 3): Fraction(1)})
_FAILING_QUAD = QuadData(3, {(1, 2, 1, 1): Fraction(1), (2, 3, 2, 2): Fraction(-2, 3)})
_HUGE = 2 ** 80
# h^4 terms of +-2^80 that cancel in the residue's x1 x2 x3 coefficient and
# leave 2^80 h - 2^80 h^4 (x2 x1 x3) and -2^80 h^4 (x1 x3 x2) elsewhere
_CANCELLING_D2 = {(1, 2, 3): d2_default(3)[(1, 2, 3)]
                  + kterm(3, [("x", 1), ("xi2", 2, 3)], HPoly([0, 0, 0, 0, _HUGE]))
                  + kterm(3, [("xi2", 1, 2), ("x", 3)], HPoly([0, _HUGE, 0, 0, -_HUGE]))}
# -h + h^3 at x2 x1 x3: a negative low coefficient borrows from the packed h^3 digit
_BORROWING_D2 = {(1, 2, 3): d2_default(3)[(1, 2, 3)]
                 + kterm(3, [("x", 2), ("xi2", 1, 3)], HPoly([0, -1, 0, 1]))}


@settings(max_examples=300, deadline=None)
@given(_certify_cases())
@example(case=(from_lie(_NON_JACOBI4), "lie", None))
@example(case=(from_quadratic(_FAILING_QUAD), "quadratic", None))
@example(case=(from_quadratic(_FAILING_QUAD), "custom",
               {tri: v.scale(HPoly([1, Fraction(-1, 2), 3]))
                for tri, v in d2_default(3).items()}))
@example(case=(from_lie(_NON_JACOBI4), "custom", {(1, 2, 3): d2_default(4)[(1, 2, 3)]}))
@example(case=(from_quadratic(_FAILING_QUAD), "custom", _CANCELLING_D2))
@example(case=(from_lie(LieData(3, {(1, 2, 3): Fraction(1, 2)})), "custom",
               _CANCELLING_D2))
@example(case=(from_quadratic(_FAILING_QUAD), "custom", _BORROWING_D2))
def test_residues_match_reference(case):
    """The Z[h] residues of certify equal the Leibniz expansion of the Koszul
    formulas over Q[h], with the same exception type and text where one is
    raised; on the Lie and quadratic paths they are the jacobiator and the
    bruteforce quadratic residue."""
    pres, choice, custom = case
    got = _outcome(lambda: certify(pres, choice, custom).residues)
    assert got == _outcome(lambda: certify_residues_reference(pres, choice, custom))
    if isinstance(got, tuple):
        return
    assert all(isinstance(c, HPoly) for r in got.values() for c in r.terms.values())
    for tri, residue in got.items():
        if choice == "lie":
            assert residue == jacobiator(lie_data_of(pres), *tri)
        elif choice == "quadratic":
            assert residue == quadratic_residue_bruteforce(quad_data_of(pres), *tri)


@st.composite
def _perturbed_d2(draw, n):
    """(n, d2): the Koszul d2 plus terms c * u xi_st v, c one of h q, q, q / h and
    q h^e / (k + h), k = 1 or 2, for a nonzero fraction q: h-divisible, constant,
    a pole at h = 0 or a non-constant denominator.  Half of the terms sit on a
    Koszul word, so a constant can cancel it; the others have at most one letter
    on each side and often meet one another."""
    h = HPoly.h()
    d2 = d2_default(n)
    for tri in d2:
        koszul_words = sorted(d2[tri].terms)
        for _ in range(draw(st.integers(0, 3))):
            s, t = draw(st.permutations(range(1, n + 1)))[:2]
            u, v = draw(sts.words(n, 1)), draw(sts.words(n, 1))
            word = tuple(("x", i) for i in u) + (("xi2", s, t),) + tuple(("x", i) for i in v)
            word = draw(st.sampled_from([word, draw(st.sampled_from(koszul_words))]))
            q = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)]))
            rational = HRat(HPoly.h(draw(st.integers(0, 2))) * q, draw(st.sampled_from([1 + h, 2 + h])))
            coeff = draw(st.sampled_from([h * q] * 3 + [HPoly.const(q), HRat(HPoly.const(q), h), rational]))
            d2[tri] = d2[tri] + kterm(n, word, coeff)
    return n, d2


def _non_jacobi_cycle():
    """xi12 r - r xi12 for r = d1(xi12) = x1x2 - x2x1 - h x1 of the non_jacobi
    Lie data: d1 . d2 = 0, but it is not the Koszul d2 at h = 0."""
    pres = from_lie(LieData(3, {(1, 2, 1): Fraction(1), (1, 3, 2): Fraction(1)}))
    xi12, r = kterm(3, [("xi2", 1, 2)]), KoszulPoly.from_ncpoly(pres.relation(1, 2))
    return {(1, 2, 3): xi12 * r - r * xi12}


def _plus_x1_xi23(coeff):
    d2 = d2_default(3)
    d2[(1, 2, 3)] = d2[(1, 2, 3)] + kterm(3, [("x", 1), ("xi2", 2, 3)], coeff)
    return d2


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(_perturbed_d2))
@example(case=(3, _non_jacobi_cycle()))
@example(case=(3, _plus_x1_xi23(HRat(HPoly.h(), 1 + HPoly.h()))))
@example(case=(3, _plus_x1_xi23(HRat(HPoly.one(), HPoly.h()))))
@example(case=(3, _plus_x1_xi23(HPoly.const(-1))))
def test_h0_check_on_entries_matches_field_rule(case):
    """The h = 0 check of `custom_entries`, made on the integers N(0) and D(0) of
    each primitive Z[h] row, against the field rule of `koszul_at_zero_reference`:
    triple by triple in i < j < k order, certify raises the h = 0 PathMismatch
    exactly when the reference rejects, and else the Q[h] one for a value with
    a non-polynomial coefficient; an admissible d2 passes both checks."""
    n, d2 = case
    expected = None
    for tri in triples(n):
        if not koszul_at_zero_reference(n, tri, d2[tri]):
            expected = (PathMismatch, f"custom value for {tri} does not reduce to the Koszul d2 at h = 0")
        elif not all(HRat(c).is_polynomial() for c in d2[tri].terms.values()):
            expected = (PathMismatch, f"custom value for {tri} has coefficients outside Q[h]")
        if expected:
            break
    got = _outcome(lambda: certify(Presentation(n), "custom", d2))
    assert got == expected if expected else isinstance(got, certificates.CertificateReport)


def test_unknown_d2_choice_is_a_path_mismatch(sl2):
    with pytest.raises(PathMismatch) as err:
        certify(from_lie(sl2), "bogus")
    assert str(err.value) == "unknown d2 choice 'bogus'"


def test_residue_sum_takes_no_zpoly_product_or_sum(monkeypatch, sl2, non_jacobi,
                                                   multiparameter_quantum, strange_presentation):
    """certify and obstruction add the residues up on packed ints: while
    `koszul.residues` runs, d1 included, no `_ZPoly` is multiplied or added."""
    calls, inside, entered = Counter(), [False], [0]

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += inside[0]
            return fn(*args)
        return wrapper

    def marked(flag, fn):
        def wrapper(*args):
            entered[0] += flag
            outer, inside[0] = inside[0], flag
            try:
                return fn(*args)
            finally:
                inside[0] = outer
        return wrapper

    for name in ("__mul__", "__rmul__", "__add__"):
        monkeypatch.setattr(_ZPoly, name, counting(name, getattr(_ZPoly, name)))
    monkeypatch.setattr(certificates, "residues", marked(True, koszul.residues))
    quad = QuadData(3, {(1, 2, 1, 1): Fraction(1, 2), (2, 3, 2, 2): Fraction(-2, 3)})
    cases = [(from_lie(sl2), "lie", None), (from_lie(non_jacobi), "lie", None),
             (from_quadratic(multiparameter_quantum), "quadratic", None),
             (from_quadratic(quad), "quadratic", None), (from_quadratic(quad), "default", None),
             (strange_presentation, "default", None),
             (from_lie(non_jacobi), "custom", d2_lie(non_jacobi)),
             (from_quadratic(_FAILING_QUAD), "custom", _CANCELLING_D2)]
    for pres, choice, custom in cases:
        certify(pres, choice, custom)
        try:
            obstruction(pres, choice, custom)
        except NoObstruction:
            pass
    assert entered[0] == 2 * len(cases) and calls == Counter()
    inside[0] = True  # the counters do see a product taken inside
    assert _ZPoly((1, 2)) * _ZPoly((3,)) == _ZPoly((3, 6)) and calls == Counter(__mul__=1)


def test_certify_calls_neither_apply_d_nor_relation(monkeypatch, sl2, non_jacobi,
                                                    multiparameter_quantum,
                                                    strange_presentation):
    """certify and obstruction read d1 from the tails and sum on Z[h] rows:
    no Presentation.relation and no koszul.apply_d, wherever either is bound."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    original = koszul.apply_d
    wrapper = counting("apply_d", original)
    for mod in [m for key, m in sys.modules.items() if key.startswith("pbwlab") and m]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)
    monkeypatch.setattr(Presentation, "relation", counting("relation", Presentation.relation))
    quad = QuadData(3, {(1, 2, 1, 1): Fraction(1), (2, 3, 2, 2): Fraction(1)})
    cases = [(from_lie(sl2), "lie", None), (from_lie(non_jacobi), "lie", None),
             (from_quadratic(multiparameter_quantum), "quadratic", None),
             (from_quadratic(quad), "quadratic", None),
             (strange_presentation, "default", None), (Presentation(4), "default", None),
             (from_lie(non_jacobi), "custom", d2_lie(non_jacobi))]
    for pres, choice, custom in cases:
        certify(pres, choice, custom)
        try:
            obstruction(pres, choice, custom)
        except NoObstruction:
            pass
    assert calls == Counter()
    diff = build_differential(from_lie(sl2), "lie")
    koszul.apply_d(diff, diff.d2[(1, 2, 3)])
    assert calls == Counter(relation=3, apply_d=1)

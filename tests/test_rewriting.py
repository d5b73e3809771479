import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import module_membership_reference, words_up_to
from pbwlab.errors import (BadSpecialization, FiltrationUnbounded, InputError,
                           OutOfRange)
from pbwlab.freealg import NCPoly, specialize
from pbwlab.presentations import LieData, Presentation, from_lie, from_quadratic
from pbwlab.rewriting import (build_rules, hilbert, member, module_membership,
                              torsion_check)
from pbwlab.scalars import HPoly


def terms_of(tail):
    return {w: c for w, c in tail.items()}


class TestBuildRules:
    def test_polynomial_commutation_rules(self):
        sys = build_rules(Presentation(3), "at", Fraction(1))
        assert set(sys.rules) == {(2, 1), (3, 1), (3, 2)}
        assert terms_of(sys.rules[(2, 1)]) == {(1, 2): Fraction(1)}

    def test_sl2_at_one(self, sl2):
        sys = build_rules(from_lie(sl2), "at", Fraction(1))
        assert terms_of(sys.rules[(2, 1)]) == {(1, 2): Fraction(1), (3,): Fraction(-1)}
        assert terms_of(sys.rules[(3, 1)]) == {(1, 3): Fraction(1), (1,): Fraction(2)}
        assert terms_of(sys.rules[(3, 2)]) == {(2, 3): Fraction(1), (2,): Fraction(-2)}

    def test_strange_lead_flip_at_one(self, strange_presentation):
        sys = build_rules(strange_presentation, "at", Fraction(1))
        assert set(sys.rules) == {(1, 2), (2, 3), (3, 1)}
        assert all(not tail for tail in sys.rules.values())

    def test_degenerate_specialization_rejected(self):
        h = HPoly.h()
        phi = NCPoly(2, {(1, 2): h, (2, 1): -h})
        p = Presentation(2, {(1, 2): phi})
        with pytest.raises(BadSpecialization):
            build_rules(p, "at", Fraction(1))
        # generically the relation survives
        build_rules(p, "generic")


class TestReduce:
    def test_single_step(self, sl2):
        sys = build_rules(from_lie(sl2), "at", Fraction(1))
        got = sys.reduce(NCPoly.word(3, (2, 1)))
        assert got == NCPoly(3, {(1, 2): Fraction(1), (3,): Fraction(-1)})

    def test_lead_reduces_to_tail(self, sl2):
        sys = build_rules(from_lie(sl2), "at", Fraction(1))
        for lead, tail in sys.rules.items():
            got = sys.reduce(NCPoly.word(3, lead))
            assert got.terms == tail

    def test_strange_monomial_kill(self, strange_presentation):
        sys = build_rules(strange_presentation, "at", Fraction(1))
        assert not sys.reduce(NCPoly.word(3, (1, 2, 3)))


class TestComplete:
    def test_polynomial_no_new_rules(self):
        sys = build_rules(Presentation(3), "at", Fraction(2)).complete(5)
        assert set(sys.rules) == {(2, 1), (3, 1), (3, 2)}
        assert sys.complete_through == 4

    def test_sl2_no_new_rules(self, sl2):
        sys = build_rules(from_lie(sl2), "at", Fraction(1)).complete(5)
        assert set(sys.rules) == {(2, 1), (3, 1), (3, 2)}

    def test_strange_monomial_completion(self, strange_presentation):
        sys = build_rules(strange_presentation, "at", Fraction(1)).complete(4)
        assert set(sys.rules) == {(1, 2), (2, 3), (3, 1)}
        counts = sys.normal_word_counts(3)
        assert counts == [1, 3, 6, 12]

    def test_degree_bound_validation(self, sl2):
        with pytest.raises(InputError):
            build_rules(from_lie(sl2), "at", Fraction(1)).complete(1)

    def test_non_jacobi_collapse(self, non_jacobi):
        # x2 and then x1 are forced to zero at h=1
        sys = build_rules(from_lie(non_jacobi), "at", Fraction(1)).complete(4)
        assert (1,) in sys.rules and (2,) in sys.rules
        assert sys.normal_word_counts(3) == [1, 1, 1, 1]


class TestHilbert:
    def test_polynomial_matches_symmetric_dims(self):
        rep = hilbert(Presentation(3), 4, a=Fraction(1))
        assert rep.dims == [1, 3, 6, 10, 15]
        assert rep.all_match

    def test_strange_defect_at_three(self, strange_presentation):
        rep = hilbert(strange_presentation, 3, a=Fraction(1))
        assert rep.dims == [1, 3, 6, 12]
        assert rep.expected == [1, 3, 6, 10]
        assert rep.verdicts == ["match", "match", "match", "defect"]
        assert rep.defects[3] == 2

    def test_sl2_matches(self, sl2):
        rep = hilbert(from_lie(sl2), 4, a=Fraction(1))
        assert rep.dims == [1, 3, 6, 10, 15]

    def test_generic_mode_records_excluded(self, strange_presentation):
        rep = hilbert(strange_presentation, 4, generic=True)
        assert rep.all_match
        assert rep.excluded == ["-1 + h"]

    def test_cascading_collapse_needs_stabilization(self):
        """Constant relation tails can hide low-degree collapses behind deep
        overlaps: single-depth counts overshoot, stabilized counts are exact.
        Frozen from a randomized cross-validation run."""
        phi = {
            (1, 2): NCPoly(3, {(): HPoly([0, 0, 2]), (3, 1): HPoly([0, 0, 1]),
                               (3, 2): HPoly([0, 2])}),
            (1, 3): NCPoly(3, {(): HPoly([0, 0, -2]), (1, 1): HPoly([0, 2, 2])}),
            (2, 3): NCPoly(3, {(1,): HPoly([0, -2]), (1, 3): HPoly([0, 0, 2])}),
        }
        pres = Presentation(3, phi)
        shallow = hilbert(pres, 3, a=Fraction(3), stabilize=False)
        assert shallow.dims == [1, 3, 6, 9]  # upper bound only
        deep = hilbert(pres, 3, a=Fraction(3))
        assert deep.dims == [1, 1, 0, 0]  # matches the saturated span oracle
        assert all(hd <= sd for hd, sd in zip(deep.dims, shallow.dims))

    def test_stabilization_reports_unknown_at_cap(self):
        phi = {
            (1, 2): NCPoly(3, {(): HPoly([0, 0, 2]), (3, 1): HPoly([0, 0, 1]),
                               (3, 2): HPoly([0, 2])}),
            (1, 3): NCPoly(3, {(): HPoly([0, 0, -2]), (1, 1): HPoly([0, 2, 2])}),
            (2, 3): NCPoly(3, {(1,): HPoly([0, -2]), (1, 3): HPoly([0, 0, 2])}),
        }
        pres = Presentation(3, phi)
        rep = hilbert(pres, 3, a=Fraction(3), max_extra_depth=1)
        assert set(rep.verdicts) == {"unknown"}

    def test_filtration_required(self):
        p = Presentation(2, {(1, 2): NCPoly(2, {(1, 1, 1): HPoly.h()})})
        with pytest.raises(FiltrationUnbounded):
            hilbert(p, 3, a=Fraction(1))


class TestMember:
    def test_generator_membership(self, sl2):
        p = from_lie(sl2)
        sys = build_rules(p, "generic").complete(4)
        assert member(sys, p.relation(1, 2))

    def test_normal_word_not_member(self, sl2):
        sys = build_rules(from_lie(sl2), "generic").complete(4)
        assert not member(sys, NCPoly.word(3, (1,), HPoly.one()))

    def test_scaled_torsion_element(self, strange_presentation):
        sys = build_rules(strange_presentation, "generic").complete(5)
        T = NCPoly(3, {(3, 2, 1): -HPoly.one(), (1, 3, 2): HPoly.one()})
        assert member(sys, T.scale(HPoly([1, -1])))

    def test_out_of_range(self, sl2):
        sys = build_rules(from_lie(sl2), "generic").complete(3)
        with pytest.raises(OutOfRange):
            member(sys, NCPoly.word(3, (1, 2, 3, 1), HPoly.one()))


class TestModuleMembership:
    def test_explicit_combination_found(self, strange_presentation):
        T = NCPoly(3, {(3, 2, 1): -HPoly.one(), (1, 3, 2): HPoly.one()})
        assert module_membership(strange_presentation, T.scale(HPoly([1, -1])), 5, 8)

    def test_nonmember_not_found(self, strange_presentation):
        T = NCPoly(3, {(3, 2, 1): -HPoly.one(), (1, 3, 2): HPoly.one()})
        assert not module_membership(strange_presentation, T, 5, 8)

    def test_zero_target_is_member(self, strange_presentation):
        assert module_membership(strange_presentation, NCPoly.zero(3), 2, 0)

    def test_target_beyond_word_bound(self, strange_presentation):
        T = NCPoly(3, {(3, 2, 1): -HPoly.one(), (1, 3, 2): HPoly.one()})
        assert not module_membership(strange_presentation, T.scale(HPoly([1, -1])), 2, 8)

    def test_target_beyond_h_bound(self, strange_presentation):
        rel = strange_presentation.relation(1, 2)
        assert module_membership(strange_presentation, rel.scale(HPoly.h(2)), 2, 3)
        assert not module_membership(strange_presentation, rel.scale(HPoly.h(2)), 2, 2)


_RATIONALS = [Fraction(2, 7), Fraction(-5, 3), Fraction(1, 2), Fraction(-3, 4),
              Fraction(9, 5), Fraction(3), Fraction(-1)]


def _random_hpoly(rng, low):
    coeffs = [Fraction(0)] * low + [rng.choice(_RATIONALS + [Fraction(0)])
                                    for _ in range(low, 3)]
    return HPoly(coeffs) or HPoly.h(low)


def _random_presentation(rng, n):
    phi = {}
    for pair in Presentation(n).pairs():
        terms = {}
        for _ in range(rng.randint(0, 2)):
            word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
            terms[word] = _random_hpoly(rng, 1)
        phi[pair] = NCPoly(n, terms)
    return Presentation(n, phi)


def _random_combination(rng, pres, max_word_degree, max_h_degree):
    n = pres.n
    out = NCPoly.zero(n)
    for _ in range(rng.randint(1, 3)):
        rel = pres.relation(*rng.choice(pres.pairs()))
        room = max_word_degree - rel.deg_x()
        u = rng.choice(words_up_to(n, room))
        v = rng.choice(words_up_to(n, room - len(u)))
        hdeg = max(c.degree for c in rel.terms.values())
        scalar = HPoly([Fraction(0)] * rng.randint(0, max_h_degree - hdeg)
                       + [rng.choice(_RATIONALS)])
        out = out + (NCPoly.word(n, u, HPoly.one()) * rel
                     * NCPoly.word(n, v, HPoly.one())).scale(scalar)
    return out


def _random_target(rng, n, max_word_degree, max_h_degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_word_degree)))
        terms[word] = HPoly([rng.choice(_RATIONALS + [Fraction(0)])
                             for _ in range(max_h_degree + 1)]) or HPoly.one()
    return NCPoly(n, terms)


def test_module_membership_matches_fraction_reference():
    """Integer elimination against the independent rational one, seeded."""
    rng = random.Random(20131)
    answers = []
    for case in range(160):
        n = 2 if case % 2 else 3
        pres = _random_presentation(rng, n)
        max_word_degree = rng.randint(2, 4 if n == 2 else 3)
        max_h_degree = rng.randint(2, 3)
        combo = _random_combination(rng, pres, max_word_degree, max_h_degree)
        target = _random_target(rng, n, max_word_degree, max_h_degree)
        assert module_membership(pres, combo, max_word_degree, max_h_degree)
        assert module_membership_reference(pres, combo, max_word_degree, max_h_degree)
        got = module_membership(pres, target, max_word_degree, max_h_degree)
        assert got == module_membership_reference(pres, target, max_word_degree,
                                                  max_h_degree), (case, pres, target)
        answers.append(got)
    assert answers.count(False) > len(answers) // 2


class TestTorsion:
    def test_witness(self, strange_presentation):
        T = NCPoly(3, {(3, 2, 1): -HPoly.one(), (1, 3, 2): HPoly.one()})
        out = torsion_check(strange_presentation, T, HPoly([1, -1]), 5)
        assert out.is_witness
        assert out.refuting_specialization == 1

    def test_witness_at_degree_six(self, strange_presentation):
        T = NCPoly(3, {(3, 2, 1): -HPoly.one(), (1, 3, 2): HPoly.one()})
        out = torsion_check(strange_presentation, T, HPoly([1, -1]), 6)
        assert out.status == "witness"
        assert out.degree_bound == 6
        assert out.refuting_specialization == 1

    def test_constant_factor_refuted(self, strange_presentation):
        T = NCPoly(3, {(3, 2, 1): -HPoly.one(), (1, 3, 2): HPoly.one()})
        out = torsion_check(strange_presentation, T, HPoly.one(), 5)
        assert out.status == "refuted"

    def test_normal_form_refutes(self, sl2):
        out = torsion_check(from_lie(sl2), NCPoly.word(3, (1,), HPoly.one()),
                            HPoly([1, -1]), 5)
        assert out.status == "refuted"

    def test_degree_precondition(self, strange_presentation):
        T = NCPoly.word(3, (1, 2, 3, 1, 2), HPoly.one())
        with pytest.raises(OutOfRange):
            torsion_check(strange_presentation, T, HPoly([1, -1]), 5)


class TestConfluence:
    @staticmethod
    def _random_reduce(system, poly, rng):
        terms = dict(system._field_poly(poly))
        while True:
            sites = []
            for w in terms:
                for pos in range(len(w) + 1):
                    for lead in system.rules:
                        L = len(lead)
                        if pos + L <= len(w) and w[pos:pos + L] == lead:
                            sites.append((w, pos, lead))
            if not sites:
                return terms
            w, pos, lead = rng.choice(sites)
            coeff = terms.pop(w)
            left, right = w[:pos], w[pos + len(lead):]
            for tw, tc in system.rules[lead].items():
                key = left + tw + right
                acc = terms.get(key)
                acc = coeff * tc if acc is None else acc + coeff * tc
                if acc:
                    terms[key] = acc
                elif key in terms:
                    del terms[key]

    @settings(max_examples=20, deadline=None)
    @given(sts.lie_datas(3, max_entries=3), sts.ncpolys(3, max_terms=3, max_len=3),
           st.integers(0, 10_000))
    def test_reduction_order_irrelevant_after_completion(self, data, poly, seed):
        system = build_rules(from_lie(data), "at", Fraction(1)).complete(4)
        rng = random.Random(seed)
        expected = system.reduce(specialize(poly, Fraction(1)))
        got = self._random_reduce(system, specialize(poly, Fraction(1)), rng)
        assert got == expected.terms


@settings(max_examples=25, deadline=None)
@given(st.one_of(sts.lie_datas(3, max_entries=3),
                 sts.quad_datas(3, max_entries=3)),
       st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]))
def test_descending_leads_cap_dimensions(data, a):
    """Whenever every pair keeps its descending lead x_j x_i, the graded algebra
    is a quotient of a polynomial ring and dimensions stay below C(n+k-1, k)."""
    pres = from_lie(data) if isinstance(data, LieData) else from_quadratic(data)
    try:
        sys = build_rules(pres, "at", a).complete(4)
    except BadSpecialization:
        return
    pair_leads_intact = all((j, i) in sys.rules for (i, j) in pres.pairs())
    if pair_leads_intact:
        for k, count in enumerate(sys.normal_word_counts(3)):
            assert count <= comb(pres.n + k - 1, k)


def test_certificate_passing_fixture_matches_generically(sl2, strange_presentation):
    for pres in (from_lie(sl2), strange_presentation):
        rep = hilbert(pres, 4, generic=True)
        assert rep.all_match


@settings(max_examples=25, deadline=None)
@given(sts.lie_datas(3, max_entries=3), sts.ncpolys(3, max_terms=3, max_len=3))
def test_reduce_idempotent(data, poly):
    system = build_rules(from_lie(data), "generic").complete(4)
    once = system.reduce(poly)
    assert system.reduce(once) == once

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import quadratic_residue_bruteforce
from pbwlab.certificates import (D2_CHOICES, certify, check_poisson,
                                 check_quadratic_condition, jacobiator, obstruction)
from pbwlab.errors import BadTriple, NoObstruction, NotDeformation, PathMismatch
from pbwlab.freealg import NCPoly, hbar_coefficient
from pbwlab.koszul import triples
from pbwlab.presentations import (LieData, Presentation, QuadData, from_lie,
                                  from_quadratic, validate)
from pbwlab.cyclic import potential_to_presentation
from pbwlab.rewriting import build_rules, member
from pbwlab.scalars import HPoly


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

    def test_custom_d2_equivalent_to_lie(self, sl2):
        from pbwlab.koszul import d2_lie

        report = certify(from_lie(sl2), "custom", custom_d2=d2_lie(sl2))
        assert report.passed

    def test_custom_d2_must_cover_triples(self, sl2):
        with pytest.raises(PathMismatch):
            certify(from_lie(sl2), "custom", custom_d2={})


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


@settings(max_examples=60, deadline=None)
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

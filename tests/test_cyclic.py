import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from pbwlab.cyclic import (CyclicWord, Potential, all_cuttings, cyclic_derivative,
                           euler_pairing, potential_of, potential_to_presentation,
                           rotate)
from pbwlab.errors import (BadIndex, EmptyCycle, NotDeformation,
                           UnsupportedArity)
from pbwlab.freealg import NCPoly, commutator
from pbwlab.presentations import Presentation
from pbwlab.scalars import HPoly


class TestCanonicalRotation:
    def test_reversed_triple(self):
        assert CyclicWord(3, (3, 2, 1)).letters == (1, 3, 2)

    def test_constant_word(self):
        assert CyclicWord(3, (1, 1, 1)).letters == (1, 1, 1)

    def test_periodic_word(self):
        assert CyclicWord(3, (2, 1, 2, 1)).letters == (1, 2, 1, 2)

    def test_every_short_word_is_keyed_by_its_least_rotation(self):
        """Brute force over all words of length <= 6 on 3 letters, periodic ones included."""
        for length in range(1, 7):
            for w in itertools.product((1, 2, 3), repeat=length):
                rotations = [w[r:] + w[:r] for r in range(length)]
                assert CyclicWord(3, w).letters == min(rotations)
                assert all(CyclicWord(3, rot) == CyclicWord(3, w) for rot in rotations)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCycle):
            CyclicWord(3, ())

    @given(sts.nonempty_words(4, 6), st.integers(0, 5))
    def test_rotation_invariance(self, w, r):
        assert CyclicWord(4, rotate(w, r)) == CyclicWord(4, w)


class TestDerivative:
    def test_strange_in_x(self, strange_potential):
        # d/dx of h*Cycl(-zyx) is -h*zy
        got = cyclic_derivative(strange_potential, 1)
        assert got == NCPoly(3, {(3, 2): -HPoly.h()})

    def test_strange_in_y(self, strange_potential):
        got = cyclic_derivative(strange_potential, 2)
        assert got == NCPoly(3, {(1, 3): -HPoly.h()})

    def test_cube(self):
        pot = Potential.single(3, (1, 1, 1))
        assert cyclic_derivative(pot, 1) == NCPoly(3, {(1, 1): HPoly([3])})

    def test_bad_index(self, strange_potential):
        with pytest.raises(BadIndex):
            cyclic_derivative(strange_potential, 4)

    @given(sts.nonempty_words(3, 5), st.integers(0, 4), st.integers(1, 3))
    def test_derivative_ignores_rotation(self, w, r, i):
        a = Potential(3, {CyclicWord(3, w): HPoly.one()})
        b = Potential(3, {CyclicWord(3, rotate(w, r)): HPoly.one()})
        assert cyclic_derivative(a, i) == cyclic_derivative(b, i)


@settings(max_examples=150)
@given(st.integers(1, 4).flatmap(lambda n: sts.potentials(n, max_terms=3, max_len=6)))
def test_master_cancellation(pot):
    total = NCPoly.zero(pot.n)
    for i in range(1, pot.n + 1):
        total = total + commutator(cyclic_derivative(pot, i),
                                   NCPoly.gen(pot.n, i, HPoly.one()))
    assert not total


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(lambda n: sts.potentials(n, max_terms=3, max_len=6)))
def test_euler_pairing_equals_all_cuttings(pot):
    assert euler_pairing(pot) == all_cuttings(pot)


class TestPotentialToPresentation:
    def test_strange(self, strange_potential):
        p = potential_to_presentation(strange_potential)
        h = HPoly.h()
        assert p.phi_at(1, 2) == NCPoly(3, {(2, 1): -h})
        assert p.phi_at(2, 3) == NCPoly(3, {(3, 2): -h})
        assert p.phi_at(3, 1) == NCPoly(3, {(1, 3): -h})

    def test_zero_potential(self):
        p = potential_to_presentation(Potential.zero(3))
        assert not p.phi

    def test_xyz(self):
        pot = Potential(3, {CyclicWord(3, (1, 2, 3)): HPoly.h()})
        p = potential_to_presentation(pot)
        h = HPoly.h()
        assert p.phi_at(1, 2) == NCPoly(3, {(1, 2): h})
        assert p.phi_at(2, 3) == NCPoly(3, {(2, 3): h})
        assert p.phi_at(3, 1) == NCPoly(3, {(3, 1): h})

    def test_wrong_arity(self):
        with pytest.raises(UnsupportedArity):
            potential_to_presentation(Potential.single(2, (1, 2)))

    def test_not_deformation(self):
        with pytest.raises(NotDeformation):
            potential_to_presentation(Potential.single(3, (1, 2, 3)))

    def test_quartic_flags_filtration(self):
        pot = Potential(3, {CyclicWord(3, (1, 2, 3, 1)): HPoly.h()})
        p = potential_to_presentation(pot)
        assert not p.filtration_ok


class TestPotentialOf:
    @settings(max_examples=80)
    @given(sts.potentials(3, max_terms=2, max_len=4, h_divisible=True))
    def test_roundtrip(self, pot):
        p = potential_to_presentation(pot)
        back = potential_of(p)
        assert back is not None
        assert potential_to_presentation(back) == p

    def test_rejects_non_gradient_triple(self):
        # phi_12 = h x1 alone admits no potential
        p = Presentation(3, {(1, 2): NCPoly(3, {(1,): HPoly.h()})})
        assert potential_of(p) is None


def test_potential_rejects_a_cycle_over_another_n():
    with pytest.raises(BadIndex) as err:
        Potential(3, {CyclicWord(2, (1, 2)): HPoly.h()})
    assert str(err.value) == "cycle over n=2 in a potential over n=3"


@pytest.mark.parametrize("p", [
    Presentation(2, {(1, 2): NCPoly(2, {(1,): HPoly.h()})}),
    Presentation(3, {(1, 2): NCPoly(3, {(3,): HPoly.one()})}),
], ids=["n-2", "candidate-not-h-divisible"])
def test_no_potential(p):
    assert potential_of(p) is None

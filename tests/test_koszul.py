import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from oracles import apply_d_reference
from pbwlab.cyclic import Potential, potential_to_presentation
from pbwlab.errors import BadIndex, Inhomogeneous
from pbwlab.freealg import NCPoly, commutator
from pbwlab.certificates import build_differential
from pbwlab.koszul import (Differential, KoszulPoly, apply_d, d1_from_presentation,
                           d2_default, d2_lie, d2_quadratic, kterm, triples,
                           word_degree, xi2, xi3, xi3_generator)
from pbwlab.presentations import (LieData, Presentation, QuadData, from_lie,
                                  from_quadratic)
from pbwlab.scalars import HPoly


def xgen(n, i):
    return NCPoly.gen(n, i, HPoly.one())


class TestSymbols:
    def test_xi2_antisymmetry(self):
        assert xi2(2, 1) == (-1, ("xi2", 1, 2))
        assert xi2(1, 2) == (1, ("xi2", 1, 2))
        assert xi2(1, 1) == (0, None)

    def test_xi3_signs(self):
        assert xi3(1, 2, 3) == (1, ("xi3", 1, 2, 3))
        assert xi3(2, 1, 3) == (-1, ("xi3", 1, 2, 3))
        assert xi3(3, 1, 2) == (1, ("xi3", 1, 2, 3))
        assert xi3(1, 1, 2) == (0, None)

    def test_xi3_matches_permutation_sign(self):
        """Every index triple over 1..4: the even permutations of three are the rotations."""
        for tri in itertools.product(range(1, 5), repeat=3):
            if len(set(tri)) < 3:
                assert xi3(*tri) == (0, None)
                continue
            ordered = tuple(sorted(tri))
            even = {ordered[r:] + ordered[:r] for r in range(3)}
            assert xi3(*tri) == (1 if tri in even else -1, ("xi3", *ordered))

    @given(st.lists(st.sampled_from([("x", 1), ("x", 2), ("xi2", 1, 2), ("xi3", 1, 2, 3)]),
                    max_size=6))
    def test_degree_minus_one_is_one_xi2_and_no_xi3(self, word):
        """x has degree 0, xi2 -1 and xi3 -2, so a word has degree -1 exactly when it
        carries one xi2 symbol and no xi3: a custom d2 value of degree -1 needs no
        separate count of its xi symbols."""
        kinds = [sym[0] for sym in word]
        assert (word_degree(tuple(word)) == -1) == (kinds.count("xi2") == 1 and "xi3" not in kinds)

    def test_kterm_kills_repeats(self):
        assert not kterm(3, [("xi2", 2, 2)])
        assert kterm(3, [("xi2", 3, 1)]) == kterm(3, [("xi2", 1, 3)]).scale(-1)


class TestD1:
    def test_polynomial(self):
        d1 = d1_from_presentation(Presentation(2))
        assert d1[(1, 2)] == NCPoly(2, {(1, 2): HPoly.one(), (2, 1): -HPoly.one()})

    def test_sl2(self, sl2):
        d1 = d1_from_presentation(from_lie(sl2))
        assert d1[(1, 2)] == NCPoly(3, {(1, 2): HPoly.one(), (2, 1): -HPoly.one(),
                                        (3,): -HPoly.h()})

    def test_strange(self, strange_presentation):
        d1 = d1_from_presentation(strange_presentation)
        assert d1[(1, 2)] == NCPoly(3, {(1, 2): HPoly.one(),
                                        (2, 1): HPoly([-1, 1])})


class TestD2Default:
    def test_explicit_value(self):
        value = d2_default(3)[(1, 2, 3)]
        expected = (kterm(3, [("x", 1), ("xi2", 2, 3)])
                    - kterm(3, [("xi2", 2, 3), ("x", 1)])
                    - kterm(3, [("x", 2), ("xi2", 1, 3)])
                    + kterm(3, [("xi2", 1, 3), ("x", 2)])
                    + kterm(3, [("x", 3), ("xi2", 1, 2)])
                    - kterm(3, [("xi2", 1, 2), ("x", 3)]))
        assert value == expected

    def test_no_triples_below_three(self):
        assert d2_default(2) == {}

    def test_shifted_indices(self):
        v234 = d2_default(4)[(2, 3, 4)]
        relabeled = KoszulPoly.zero(4)
        for word, coeff in d2_default(4)[(1, 2, 3)].terms.items():
            shifted = tuple((kind, *[i + 1 for i in idx])
                            for kind, *idx in word)
            relabeled = relabeled + KoszulPoly(4, {shifted: coeff})
        # d2 over (1,2,3) with every index shifted up by one is d2 over (2,3,4)
        assert v234 == relabeled

    def test_one_xi_per_word(self):
        for value in d2_default(5).values():
            for word in value.terms:
                assert sum(1 for s in word if s[0] == "xi2") == 1


class TestD2Lie:
    def test_abelian_is_default(self):
        assert d2_lie(LieData(4, {})) == d2_default(4)

    def test_sl2_correction_cancels(self, sl2):
        assert d2_lie(sl2) == d2_default(3)

    def test_single_constant(self):
        data = LieData(3, {(1, 2, 1): Fraction(1)})
        got = d2_lie(data)[(1, 2, 3)]
        assert got == d2_default(3)[(1, 2, 3)] + kterm(3, [("xi2", 1, 3)], -HPoly.h())


class TestD2Quadratic:
    def test_zero_is_default(self):
        assert d2_quadratic(QuadData(3, {})) == d2_default(3)

    def test_repeated_index_correction_vanishes(self):
        data = QuadData(3, {(2, 3, 1, 1): Fraction(1)})
        assert d2_quadratic(data)[(1, 2, 3)] == d2_default(3)[(1, 2, 3)]

    def test_mixed_correction(self):
        data = QuadData(3, {(2, 3, 1, 2): Fraction(1)})
        got = d2_quadratic(data)[(1, 2, 3)]
        expected = (d2_default(3)[(1, 2, 3)]
                    + kterm(3, [("x", 1), ("xi2", 1, 2)], HPoly.h()))
        assert got == expected


def _unperturbed(n):
    """The default values written out from their formula, sharing nothing with d2_default."""
    out = {}
    for i, j, k in triples(n):
        total = KoszulPoly.zero(n)
        for s, t, u in ((i, j, k), (j, k, i), (k, i, j)):
            total = (total + kterm(n, [("x", s), ("xi2", t, u)])
                     - kterm(n, [("xi2", t, u), ("x", s)]))
        out[(i, j, k)] = total
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_d2_default_is_fresh_and_unperturbed(n):
    """Each call hands out a new dict, and neither a caller's changes to it nor
    the corrections of d2_lie and d2_quadratic reach the next call."""
    first = d2_default(n)
    assert d2_default(n) is not first
    first[(1, 2, 3)] = KoszulPoly.zero(n)
    first.clear()
    lie = LieData(n, {(1, 2, 1): Fraction(1), (1, 2, n): Fraction(-3, 2)})
    quad = QuadData(n, {(1, 2, 1, 2): Fraction(1), (n - 1, n, 1, n): Fraction(2)})
    perturbed = [d2_lie(lie), d2_quadratic(quad)]
    expected = _unperturbed(n)
    if n >= 3:  # the corrections are not zero, so a shared value changed in place would show
        assert all(d != expected for d in perturbed)
    again = d2_default(n)
    assert again == expected
    assert list(again) == triples(n)
    assert all(list(again[tri].terms.items()) == list(expected[tri].terms.items())
               for tri in again)


class TestApplyD:
    def test_xi12(self):
        p = Presentation(2)
        diff = Differential(2, d1_from_presentation(p), d2_default(2))
        got = apply_d(diff, kterm(2, [("xi2", 1, 2)]))
        assert got == NCPoly(2, {(1, 2): HPoly.one(), (2, 1): -HPoly.one()})

    def test_left_degree_zero_factor(self):
        p = Presentation(2)
        diff = Differential(2, d1_from_presentation(p), d2_default(2))
        got = apply_d(diff, kterm(2, [("x", 1), ("xi2", 1, 2)]))
        assert got == NCPoly(2, {(1, 1, 2): HPoly.one(), (1, 2, 1): -HPoly.one()})

    def test_two_xi_sign(self):
        p = Presentation(4)
        diff = Differential(4, d1_from_presentation(p), d2_default(4))
        word = kterm(4, [("xi2", 1, 2), ("xi2", 3, 4)])
        got = apply_d(diff, word)
        d12 = KoszulPoly.from_ncpoly(diff.d1[(1, 2)])
        d34 = KoszulPoly.from_ncpoly(diff.d1[(3, 4)])
        expected = (d12 * kterm(4, [("xi2", 3, 4)])
                    - kterm(4, [("xi2", 1, 2)]) * d34)
        assert got == expected

    def test_nilpotence_on_jacobiator_expansion(self):
        n = 3
        p = Presentation(n)
        diff = Differential(n, d1_from_presentation(p), d2_default(n))
        # summand by summand, [x_s, xi_tu] maps to [x_s, [x_t, x_u]]
        for s, t, u in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            piece = (kterm(n, [("x", s), ("xi2", t, u)])
                     - kterm(n, [("xi2", t, u), ("x", s)]))
            got = apply_d(diff, piece)
            expected = commutator(xgen(n, s), commutator(xgen(n, t), xgen(n, u)))
            assert got == expected
        total = apply_d(diff, diff.d2[(1, 2, 3)])
        assert not total

    def test_mixed_degree_rejected(self):
        p = Presentation(3)
        diff = Differential(3, d1_from_presentation(p), d2_default(3))
        mixed = kterm(3, [("xi2", 1, 2)]) + kterm(3, [("xi3", 1, 2, 3)])
        with pytest.raises(Inhomogeneous):
            apply_d(diff, mixed)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_unperturbed_nilpotence(n):
    p = Presentation(n)
    diff = Differential(n, d1_from_presentation(p), d2_default(n))
    for tri in triples(n):
        assert not apply_d(diff, diff.d2[tri])


def test_apply_on_xi3_returns_d2(sl2):
    p = from_lie(sl2)
    diff = Differential(3, d1_from_presentation(p), d2_lie(sl2))
    assert apply_d(diff, xi3_generator(3, (1, 2, 3))) == diff.d2[(1, 2, 3)]


@settings(max_examples=40)
@given(a=sts.ncpolys(3, max_terms=2, max_len=2),
       b=sts.ncpolys(3, max_terms=2, max_len=2),
       pair1=st.sampled_from([(1, 2), (1, 3), (2, 3)]),
       pair2=st.sampled_from([(1, 2), (1, 3), (2, 3)]))
def test_leibniz_rule_on_products(a, b, pair1, pair2):
    """d(w1 * w2) = d(w1) * w2 + (-1)^(deg w1) w1 * d(w2) for degree -1 factors."""
    data = LieData(3, {(1, 2, 3): Fraction(1), (1, 3, 1): Fraction(-2),
                       (2, 3, 2): Fraction(2)})
    p = from_lie(data)
    diff = Differential(3, d1_from_presentation(p), d2_lie(data))
    w1 = KoszulPoly.from_ncpoly(a) * kterm(3, [("xi2", *pair1)])
    w2 = KoszulPoly.from_ncpoly(b) * kterm(3, [("xi2", *pair2)])
    if not w1 or not w2:
        return
    lhs = apply_d(diff, w1 * w2)
    d_w1 = KoszulPoly.from_ncpoly(apply_d(diff, w1))
    d_w2 = KoszulPoly.from_ncpoly(apply_d(diff, w2))
    rhs = d_w1 * w2 - w1 * d_w2
    assert lhs == rhs


def test_cyclic_orbit_orientation_irrelevant(sl2, multiparameter_quantum):
    """Summing over (i,j,k),(j,k,i),(k,i,j) or the reverse orbit is the same."""
    def reverse_orbit_lie(data):
        out = d2_default(data.n)
        h = HPoly.h()
        for tri in triples(data.n):
            corr = KoszulPoly.zero(data.n)
            for sa, sb, sc in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
                s, t, u = tri[sa], tri[sb], tri[sc]
                for pg in range(1, data.n + 1):
                    cval = data.c_at(s, t, pg)
                    if cval:
                        corr = corr + kterm(data.n, [("xi2", pg, u)], -(h * cval))
            out[tri] = out[tri] + corr
        return out

    assert reverse_orbit_lie(sl2) == d2_lie(sl2)

    def reverse_orbit_quadratic(data):
        out = d2_default(data.n)
        h = HPoly.h()
        for tri in triples(data.n):
            corr = KoszulPoly.zero(data.n)
            for sa, sb, sc in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
                s, t, u = tri[sa], tri[sb], tri[sc]
                for a in range(1, data.n + 1):
                    for b in range(1, data.n + 1):
                        aval = data.alpha_at(t, u, a, b)
                        if aval:
                            corr = corr + kterm(data.n, [("xi2", s, a), ("x", b)], h * aval)
                            corr = corr + kterm(data.n, [("x", a), ("xi2", s, b)], h * aval)
            out[tri] = out[tri] + corr
        return out

    assert reverse_orbit_quadratic(multiparameter_quantum) == d2_quadratic(multiparameter_quantum)


_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]


def _random_differential(rng, kind):
    """A differential of a random Lie, quadratic or potential presentation."""
    n = rng.choice([3, 4]) if kind != "potential" else 3
    if kind == "lie":
        c = {}
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            c[(i, j, rng.randint(1, n))] = rng.choice(_COEFFS)
        data = LieData(n, c)
        p, d2 = from_lie(data), d2_lie(data)
    elif kind == "quadratic":
        alpha = {}
        for _ in range(rng.randint(1, 4)):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            alpha[(i, j, rng.randint(1, n), rng.randint(1, n))] = rng.choice(_COEFFS)
        data = QuadData(n, alpha)
        p, d2 = from_quadratic(data), d2_quadratic(data)
    else:
        pot = Potential.zero(3)
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
            pot = pot + Potential.single(3, word, HPoly.h() * rng.choice(_COEFFS))
        p, d2 = potential_to_presentation(pot), d2_default(3)
    return Differential(n, d1_from_presentation(p), d2)


def test_apply_d_matches_product_reference():
    """apply_d against the prefix * image * suffix expansion, seeded: the same
    values in the same key order, on d2 values, xi3 words and two-xi2 words."""
    rng = random.Random(20134)
    cases = 0
    for kind in ("lie", "quadratic", "potential") * 8:
        diff = _random_differential(rng, kind)
        n = diff.n
        inputs = []
        for tri in triples(n):
            a, b = rng.randint(1, n), rng.randint(1, n)
            inputs.append(diff.d2[tri])
            inputs.append(kterm(n, [("x", a)]) * diff.d2[tri] * kterm(n, [("x", b)]))
            inputs.append(kterm(n, [("x", a), ("xi3", *tri), ("x", b)], HPoly([1, -2])))
        for _ in range(3):
            s, t, u, v = (rng.randint(1, n) for _ in range(4))
            inputs.append(kterm(n, [("xi2", s, t), ("x", rng.randint(1, n)), ("xi2", u, v)])
                          + kterm(n, [("x", s), ("xi2", u, v), ("xi2", t, s)], HPoly.h()))
        for word in inputs:
            got = apply_d(diff, word)
            expected = list(apply_d_reference(diff, word.terms).items())
            if word.degree() == -1:
                expected = [(tuple(sym[1] for sym in w), c) for w, c in expected]
            assert list(got.terms.items()) == expected, (kind, word)
            cases += 1
    assert cases >= 200


def test_direct_differential_matches_build_differential(sl2, multiparameter_quantum,
                                                        strange_presentation):
    """A Differential built from NCPoly d1 images, as the tests above build it,
    applies as the one build_differential returns: the same values in the same
    key order, and both match the reference expansion."""
    non_jacobi = LieData(3, {(1, 2, 1): Fraction(1), (2, 3, 3): Fraction(-1, 2)})
    cases = [(from_lie(sl2), "lie", d2_lie(sl2)),
             (from_lie(non_jacobi), "lie", d2_lie(non_jacobi)),
             (from_quadratic(multiparameter_quantum), "quadratic",
              d2_quadratic(multiparameter_quantum)),
             (strange_presentation, "default", d2_default(3)),
             (Presentation(4), "default", d2_default(4))]
    for p, choice, d2 in cases:
        n = p.n
        direct = Differential(n, d1_from_presentation(p), d2)
        built = build_differential(p, choice)
        assert direct.d1 == built.d1 and direct.d2 == built.d2
        assert all(isinstance(v, NCPoly) for v in direct.d1.values())
        inputs = list(d2.values())
        for tri in triples(n):
            inputs.append(kterm(n, [("x", tri[2]), ("xi3", *tri), ("x", tri[0])], HPoly([1, -2])))
        for s, t in itertools.combinations(range(1, n + 1), 2):
            inputs.append(kterm(n, [("xi2", t, s), ("x", s)], HPoly.h()))
            inputs.append(kterm(n, [("xi2", s, t), ("x", n), ("xi2", 1, n)]))
        for word in inputs:
            got = apply_d(direct, word)
            assert list(got.terms.items()) == list(apply_d(built, word).terms.items())
            expected = list(apply_d_reference(direct, word.terms).items())
            if word.degree() == -1:
                expected = [(tuple(sym[1] for sym in w), c) for w, c in expected]
            assert list(got.terms.items()) == expected


@pytest.mark.parametrize("call, error, text", [
    (lambda: kterm(3, [("x", 1), ("xi2", 1, 2)]).to_ncpoly(), Inhomogeneous,
     "only a degree-0 element converts to an NCPoly"),
    (lambda: kterm(3, [("y", 1)]), BadIndex, "unknown symbol kind 'y'"),
    (lambda: apply_d(Differential(3, d1_from_presentation(Presentation(3)), d2_default(3)),
                     kterm(3, [("x", 1)])),
     Inhomogeneous, "apply_d expects degree -1 or -2, got 0"),
], ids=["to-ncpoly-with-xi", "unknown-kind", "apply-d-degree-0"])
def test_rejections(call, error, text):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == text

"""Independent oracles used against the library implementations.

Nothing here calls the rewriting or certificate machinery: dimensions come
from exact row reduction of explicit relation multiples, residue
expansions from direct index summation, and differentials of Koszul words
from plain dict products.  `reduce_ring_reference` reads a rewrite system's
rule rows but calls none of its methods, and `ring_row_reference` clears
with `scalars.clear_denominators` and this module's `clear_hrat_denominators`,
whose lcm is taken with Euclidean gcds in Fractions.
`certify_residues_reference` builds d2 from the Koszul formulas one `kterm`
at a time and applies d1 through `apply_d_reference`.
`quadratic_condition_reference` scans all n^6 tuples of the cyclic
coefficient condition through `QuadData.alpha_at`; it shares only the
`ConditionReport` record with `certificates`.  Disagreement with the library
is a build failure, not a tolerance question.
"""

import heapq
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from pbwlab.freealg import NCPoly, deglex_key, specialize
from pbwlab.presentations import Presentation, QuadData
from pbwlab.scalars import HPoly, HRat, _zpoly_gcd, _ZPoly, clear_denominators


def words_up_to(n, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (letter,) for w in frontier for letter in range(1, n + 1)]
        out.extend(frontier)
    return out


def _echelon_insert(pivots, row):
    """Add row's remainder as a pivot scaled to a leading 1; its leading word,
    or None when row lies in the span already."""
    row = {w: c for w, c in row.items() if c}
    while row:
        top = max(row, key=deglex_key)
        pivot = pivots.get(top)
        if pivot is None:
            lc = row[top]
            pivots[top] = {w: c / lc for w, c in row.items()}
            return top
        factor = row[top]
        for w, c in pivot.items():
            acc = row.get(w, Fraction(0)) - factor * c
            if acc:
                row[w] = acc
            elif w in row:
                del row[w]


def span_dims(pres: Presentation, a, K: int, margin: int = 2):
    """Filtration dimensions via row reduction of {u * r * v} up to degree K + margin.

    dim(F_k/F_{k-1}) = n^k minus the number of echelon pivots in degree k,
    because each pivot word is the deglex-largest word of its row.
    """
    n = pres.n
    M = K + margin
    pivots = {}
    for pair in pres.pairs():
        rel = specialize(pres.relation(*pair), a)
        if not rel.terms:
            continue
        top = rel.deg_x()
        for u in words_up_to(n, M - top):
            for v in words_up_to(n, M - top - len(u)):
                row = {}
                for w, c in rel.terms.items():
                    key = u + w + v
                    row[key] = row.get(key, Fraction(0)) + c
                _echelon_insert(pivots, row)
    per_degree = Counter(len(w) for w in pivots)
    return [n ** k - per_degree[k] for k in range(K + 1)]


def closure_pivots(pres: Presentation, a, D: int):
    """Leading words of the smallest space of polynomials of degree <= D that
    holds the relation multiples u * r * v at h = a and, with every f whose
    leading word is shorter than D, x * f and f * x for every letter x.

    The multiples are row-reduced over Fractions; then every pivot row with a
    leading word shorter than D is multiplied by each letter on either side
    and reduced in turn, until no new pivot appears.  The pivot rows span the
    space, and an element whose leading word is shorter than D combines only
    pivot rows with shorter leading words, so the space is then closed."""
    n = pres.n
    pivots = {}
    for pair in pres.pairs():
        rel = specialize(pres.relation(*pair), a)
        if not rel.terms:
            continue
        top = rel.deg_x()
        for u in words_up_to(n, D - top):
            for v in words_up_to(n, D - top - len(u)):
                _echelon_insert(pivots, {u + w + v: c for w, c in rel.terms.items()})
    fresh = [w for w in pivots if len(w) < D]
    while fresh:
        grown = []
        for top in fresh:
            row = pivots[top]
            for x in range(1, n + 1):
                for product_row in ({(x,) + w: c for w, c in row.items()},
                                    {w + (x,): c for w, c in row.items()}):
                    new = _echelon_insert(pivots, product_row)
                    if new is not None and len(new) < D:
                        grown.append(new)
        fresh = grown
    return set(pivots)


def quadratic_residue_bruteforce(data: QuadData, i: int, j: int, k: int) -> NCPoly:
    """Order-h^2 residue of the quadratic certificate by direct index summation.

    With the convention d(xi_ij) = x_i x_j - x_j x_i - phi_ij the surviving
    terms are -h^2 times the cyclic sum over (i,j,k) of
    alpha_jk^{ab} alpha_ia^{cd} x_c x_d x_b + alpha_jk^{ab} alpha_ib^{cd} x_a x_c x_d.
    """
    n = data.n
    h2 = HPoly.h(2)
    out = NCPoly.zero(n)
    for ii, jj, kk in ((i, j, k), (j, k, i), (k, i, j)):
        for a, b, c, d in product(range(1, n + 1), repeat=4):
            v1 = data.alpha_at(jj, kk, a, b) * data.alpha_at(ii, a, c, d)
            if v1:
                out = out + NCPoly(n, {(c, d, b): -(h2 * v1)})
            v2 = data.alpha_at(jj, kk, a, b) * data.alpha_at(ii, b, c, d)
            if v2:
                out = out + NCPoly(n, {(a, c, d): -(h2 * v2)})
    return out


def _cyclic_slots(i, j, k):
    return ((i, j, k), (j, k, i), (k, i, j))


def quadratic_condition_reference(data: QuadData):
    """The cyclic coefficient condition by a dense scan of all n^6 tuples, in
    `itertools.product` order: (passed, witness, value) with the first failing
    tuple as witness, as a `certificates.ConditionReport`."""
    from pbwlab.certificates import ConditionReport

    n = data.n
    rng = range(1, n + 1)
    for i, j, k, b, c, d in product(rng, repeat=6):
        total = Fraction(0)
        for ii, jj, kk in _cyclic_slots(i, j, k):
            for s in rng:
                total += (data.alpha_at(jj, kk, s, b) * data.alpha_at(ii, s, c, d)
                          + data.alpha_at(jj, kk, c, s) * data.alpha_at(ii, s, d, b))
        if total:
            return ConditionReport(False, (i, j, k, b, c, d), total)
    return ConditionReport(True)


def _cell_key(cell):
    word, power = cell
    return (len(word), word, power)


def _cell_echelon_reduce(pivots, row):
    row = dict(row)
    while row:
        top = max(row, key=_cell_key)
        pivot = pivots.get(top)
        if pivot is None:
            return row
        factor = row[top]
        for cell, value in pivot.items():
            acc = row.get(cell, Fraction(0)) - factor * value
            if acc:
                row[cell] = acc
            elif cell in row:
                del row[cell]
    return row


def module_membership_reference(pres: Presentation, target: NCPoly, max_word_degree: int,
                                max_h_degree: int) -> bool:
    """Q[h]-module membership by row reduction over Q on (word, h-power) cells.

    Rows are h^s * u * r * v for every relation r, with word degree at most
    max_word_degree and h-power at most max_h_degree; the pivots are scaled
    to a leading 1 with Fraction arithmetic.
    """
    pivots = {}
    for pair in pres.pairs():
        rel = pres.relation(*pair).with_hpoly_coeffs()
        room = max_word_degree - rel.deg_x()
        if room < 0:
            continue
        hdeg = max(c.degree for c in rel.terms.values())
        for u in words_up_to(pres.n, room):
            for v in words_up_to(pres.n, room - len(u)):
                for shift in range(max_h_degree - hdeg + 1):
                    row = {}
                    for w, c in rel.terms.items():
                        for k, q in enumerate(c.coeffs):
                            if q:
                                row[(u + w + v, k + shift)] = q
                    rem = _cell_echelon_reduce(pivots, row)
                    if rem:
                        top = max(rem, key=_cell_key)
                        lc = rem[top]
                        pivots[top] = {cell: value / lc for cell, value in rem.items()}
    goal = {}
    for w, c in target.with_hpoly_coeffs().terms.items():
        if len(w) > max_word_degree or c.degree > max_h_degree:
            return False
        for k, q in enumerate(c.coeffs):
            if q:
                goal[(w, k)] = q
    return not _cell_echelon_reduce(pivots, goal)


def hpoly_divmod_reference(p: HPoly, d: HPoly):
    """Quotient and remainder of p by d by long division in Fractions: each
    step divides the remainder's top coefficient by the lead of d."""
    if not d.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    deg, lc = len(d.coeffs) - 1, d.coeffs[-1]
    quo = [Fraction(0)] * max(len(rem) - deg, 0)
    for shift in range(len(quo) - 1, -1, -1):
        factor = rem[shift + deg] / lc
        quo[shift] = factor
        for i, c in enumerate(d.coeffs):
            rem[shift + i] -= factor * c
    return HPoly(quo), HPoly(rem[:deg])


def monic_reference(p: HPoly) -> HPoly:
    """p divided by its leading coefficient; 0 for 0."""
    return HPoly([c / p.lead for c in p.coeffs]) if p else p


def hpoly_gcd_reference(a: HPoly, b: HPoly) -> HPoly:
    """Monic gcd by the Euclidean algorithm in Fractions; gcd(0, 0) = 0."""
    while b:
        a, b = b, hpoly_divmod_reference(a, b)[1]
    return monic_reference(a)


def clear_hrat_denominators(values) -> tuple:
    """(d, nums) with values equal to [HRat(v, d) for v in nums], d the monic lcm
    of the denominators."""
    values = list(values)
    den = HPoly.one()
    for v in values:
        den = den * (v.den // hpoly_gcd_reference(den, v.den))
    return den, [v.num * (den // v.den) for v in values]


def _primitive_hpoly_row(den: HPoly, values: list) -> tuple:
    g = monic_reference(den)
    for v in values:
        if not g.degree:
            break
        g = hpoly_gcd_reference(g, v)
    content = g * den.lead
    return den // content, [v // content for v in values]


def _split_hpoly(c: HPoly, e: HPoly) -> tuple:
    g = hpoly_gcd_reference(c, e)
    return e // g, c // g


def _inverted_hpoly(lc: HPoly, den: HPoly):
    num = lc // hpoly_gcd_reference(lc, den) if den.degree > 0 else lc
    return monic_reference(num) if num.degree >= 1 else None


def ring_row_reference(poly: NCPoly, a):
    """`Ring.row` in two steps: the field terms of poly, then their clearing.
    At h = a the terms are poly's values there, cleared in Z by
    `clear_denominators`.  When a is None they are its Q(h) coefficients,
    put over one monic denominator by `clear_hrat_denominators`, and every
    polynomial is then multiplied by the lcm of all their rational
    coefficients' denominators."""
    if a is not None:
        terms = specialize(poly, a).terms
        den, nums = clear_denominators(terms.values())
        return den, dict(zip(terms, nums))
    terms = poly.with_hrat_coeffs().terms
    den, nums = clear_hrat_denominators(terms.values())
    big = lcm(*(c.denominator for q in (den, *nums) for c in q.coeffs))
    den, *nums = [_ZPoly([int(c * big) for c in q.coeffs]) for q in (den, *nums)]
    return den, dict(zip(terms, nums))


def _qh_row(poly: NCPoly, a):
    """The Q[h] row of poly, a ignored: its Q(h) coefficients over one monic denominator."""
    terms = poly.with_hrat_coeffs().terms
    den, nums = clear_hrat_denominators(terms.values())
    return den, dict(zip(terms, nums))


# The generic completion ring over Q[h]: rows lead -> (E, row) with E monic
# and gcd(E, row) = 1 in Q[h], every gcd a Euclidean one in Fractions.  It has
# the fields of `pbwlab.scalars.Ring`, so a RewriteSystem built with it in
# place of the Z[h] ring completes the same system in other arithmetic.
QhRing = namedtuple("QhRing", "unit split to_field row primitive_row inverted")
QH_RING = QhRing(HPoly.one(), _split_hpoly, HRat, _qh_row, _primitive_hpoly_row, _inverted_hpoly)


def rational_roots_reference(p: HPoly):
    """Rational roots of p by the rational root test: every +-a/b with a
    dividing the constant term and b the leading coefficient, after the
    factor h is taken out, is evaluated exactly."""
    if not p or p.is_constant():
        return []
    _, ints = clear_denominators(p.coeffs)
    while ints and ints[0] == 0:
        ints.pop(0)
    roots = set()
    if len(ints) < len(p.coeffs):
        roots.add(Fraction(0))
    if not ints:
        return sorted(roots)
    lead, const = ints[-1], ints[0]
    for num in _divisors(abs(const)):
        for den in _divisors(abs(lead)):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p.eval(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _divisors(m):
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.extend({d, m // d})
        d += 1
    return sorted(out)


def _first_lead_match(by_len, word):
    lengths = sorted(by_len)
    for pos in range(len(word) + 1):
        for length in lengths:
            if pos + length > len(word):
                break
            if word[pos:pos + length] in by_len[length]:
                return pos, word[pos:pos + length]
    return None


def reduce_ring_reference(system, den, terms):
    """`RewriteSystem.reduce_ring` without its rewrite cache: the same deglex
    max-heap and fraction-free steps, but the rule leads are scanned afresh for
    every popped word and each tail word is spliced at every step, and each step
    takes its gcd and divisions itself (`math.gcd`, `_zpoly_gcd` or
    `hpoly_gcd_reference`, by the ring's unit) instead of calling `Ring.split`.
    terms is updated in place; returns (den', terms')."""
    one, n = system.ring.unit, system.n
    gcd_ = {int: gcd, _ZPoly: _zpoly_gcd, HPoly: hpoly_gcd_reference}[type(one)]

    def rank(word):
        value = 0
        for letter in word:
            value = value * n + letter
        return value

    heap = [(-rank(w), w) for w in terms]
    heapq.heapify(heap)
    while heap:
        best = heapq.heappop(heap)[1]
        if best not in terms:
            continue
        hit = _first_lead_match(system._by_len, best)
        if hit is None:
            continue
        coeff = terms.pop(best)
        pos, lead = hit
        scale, tail = system._rows[lead]
        if scale != one:
            g = gcd_(coeff, scale)
            if g != scale:
                mult = scale // g
                den *= mult
                for w in terms:
                    terms[w] *= mult
            if g != one:
                coeff //= g
        left, right = best[:pos], best[pos + len(lead):]
        for tw, tc in tail:
            word = left + tw + right
            add = coeff * tc
            acc = terms.get(word)
            if acc is None:
                if add:
                    terms[word] = add
                    heapq.heappush(heap, (-rank(word), word))
            else:
                acc = acc + add
                if acc:
                    terms[word] = acc
                else:
                    del terms[word]
    return den, terms


def normal_form_reference(rules, terms):
    """Normal form of a word -> coefficient dict under rules lead -> tail.

    Every step rescans all terms for the deglex-largest word containing a
    lead and rewrites it at its leftmost position, with the shortest lead
    there, in the coefficients' own arithmetic.  New words are appended to
    the dict and cancelled ones removed, so the key order is part of the
    answer.
    """
    by_len = {}
    for lead in rules:
        by_len.setdefault(len(lead), set()).add(lead)
    terms = dict(terms)
    while True:
        best = best_hit = None
        for w in terms:
            if best is not None and deglex_key(w) <= deglex_key(best):
                continue
            hit = _first_lead_match(by_len, w)
            if hit is not None:
                best, best_hit = w, hit
        if best is None:
            return terms
        coeff = terms.pop(best)
        pos, lead = best_hit
        left, right = best[:pos], best[pos + len(lead):]
        for tw, tc in rules[lead].items():
            word = left + tw + right
            add = coeff * tc
            acc = terms.get(word)
            acc = add if acc is None else acc + add
            if acc:
                terms[word] = acc
            elif word in terms:
                del terms[word]


def _accumulate(terms, word, coeff):
    acc = terms.get(word)
    acc = coeff if acc is None else acc + coeff
    if acc:
        terms[word] = acc
    elif word in terms:
        del terms[word]


def _word_product(p, q):
    """Concatenation product of two word -> coefficient dicts."""
    out = {}
    for wp, cp in p.items():
        for wq, cq in q.items():
            _accumulate(out, wp + wq, cp * cq)
    return out


def apply_d_reference(diff, terms):
    """Graded Leibniz extension of a differential on a symbol-word -> coefficient dict.

    Every xi symbol of every word is replaced by its image as the product
    prefix * image * suffix, which is then added into a copy of the result
    so far; crossing an xi2 symbol flips the sign.  Images of xi2 are read
    from diff.d1 with each letter i renamed to ("x", i).  Returns the raw
    dict over symbol words, whose key order is part of the answer.
    """
    result = {}
    for word, coeff in terms.items():
        sign = 1
        for pos, sym in enumerate(word):
            if sym[0] == "x":
                continue
            if sym[0] == "xi2":
                image = {tuple(("x", i) for i in w): c
                         for w, c in diff.d1[sym[1:]].terms.items()}
            else:
                image = diff.d2[sym[1:]].terms
            product = _word_product(_word_product({word[:pos]: coeff * sign}, image),
                                    {word[pos + 1:]: 1})
            result = dict(result)
            for w, c in product.items():
                _accumulate(result, w, c)
            if sym[0] == "xi2":
                sign = -sign
    return result


_CYCLIC_SLOTS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def d2_reference(n, data=None):
    """d2 values by the Koszul formula, one kterm at a time: for each triple,
    [x_s, xi_tu] over the cyclic slots (s, t, u), plus h times the Lie
    correction -sum_p c_st^p xi_pu (LieData) or the quadratic correction
    sum alpha_tu^{ab} (xi_sa x_b + x_a xi_sb) (QuadData)."""
    from pbwlab.koszul import KoszulPoly, kterm, triples
    from pbwlab.presentations import LieData

    h = HPoly.h()
    out = {}
    for tri in triples(n):
        total = KoszulPoly.zero(n)
        for slot in _CYCLIC_SLOTS:
            s, t, u = (tri[k] for k in slot)
            total = total + kterm(n, [("x", s), ("xi2", t, u)])
            total = total + kterm(n, [("xi2", t, u), ("x", s)], -HPoly.one())
            for p in range(1, n + 1):
                if isinstance(data, LieData) and data.c_at(s, t, p):
                    total = total + kterm(n, [("xi2", p, u)], -(h * data.c_at(s, t, p)))
                for b in range(1, n + 1):
                    if isinstance(data, QuadData) and data.alpha_at(t, u, p, b):
                        value = h * data.alpha_at(t, u, p, b)
                        total = total + kterm(n, [("xi2", s, p), ("x", b)], value)
                        total = total + kterm(n, [("x", p), ("xi2", s, b)], value)
        out[tri] = total
    return out


def certify_residues_reference(pres: Presentation, d2_choice, custom_d2=None):
    """The residues d1(d2(xi_ijk)) of `certify`, through `apply_d_reference` on
    d1 read from `Presentation.relation`, with `certify`'s checks and error texts."""
    from pbwlab.errors import NotDeformation, PathMismatch
    from pbwlab.koszul import Differential, triples
    from pbwlab.presentations import check_tails, lie_data_of, quad_data_of

    valid, _, problems = check_tails(pres)
    if not valid:
        raise NotDeformation("; ".join(problems))
    n = pres.n
    if d2_choice == "default":
        d2 = d2_reference(n)
    elif d2_choice in ("lie", "quadratic"):
        data = (lie_data_of if d2_choice == "lie" else quad_data_of)(pres)
        if data is None:
            kind = "linear" if d2_choice == "lie" else "quadratic"
            raise PathMismatch(f"relation tails are not h * {kind}; "
                               f"the {d2_choice} differential does not apply")
        d2 = d2_reference(n, data)
    elif d2_choice == "custom":
        if custom_d2 is None:
            raise PathMismatch("custom differential requested but none supplied")
        missing = [tri for tri in triples(n) if tri not in custom_d2]
        if missing:
            raise PathMismatch(f"custom differential misses triples {missing}")
        extra = [tri for tri in custom_d2 if tri not in triples(n)]
        if extra:
            raise PathMismatch(f"custom differential has triples {extra} not i < j < k in 1..{n}")
        for tri, value in custom_d2.items():
            if value and value.degree() != -1:
                raise PathMismatch(f"custom value for {tri} is not of degree -1")
            for word in value.terms:
                if [sym[0] for sym in word].count("xi2") != 1 or any(sym[0] == "xi3" for sym in word):
                    raise PathMismatch(f"custom value for {tri} must carry exactly one xi symbol per word")
        d2 = custom_d2
    else:
        raise PathMismatch(f"unknown d2 choice {d2_choice!r}")
    diff = Differential(n, {pair: pres.relation(*pair) for pair in pres.pairs()}, d2)
    return {tri: NCPoly(n, {tuple(sym[1] for sym in w): c
                            for w, c in apply_d_reference(diff, d2[tri].terms).items()})
            for tri in triples(n)}

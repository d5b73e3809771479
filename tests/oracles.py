"""Independent oracles used against the library implementations.

Nothing here calls the rewriting or certificate machinery: dimensions come
from exact row reduction of explicit relation multiples, residue
expansions from direct index summation, and differentials of Koszul words
from plain dict products.  Disagreement with the library is a
build failure, not a tolerance question.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

from pbwlab.freealg import NCPoly, deglex_key, specialize
from pbwlab.presentations import Presentation, QuadData
from pbwlab.scalars import HPoly, clear_denominators


def words_up_to(n, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (letter,) for w in frontier for letter in range(1, n + 1)]
        out.extend(frontier)
    return out


def _echelon_insert(pivots, row):
    row = {w: c for w, c in row.items() if c}
    while row:
        top = max(row, key=deglex_key)
        pivot = pivots.get(top)
        if pivot is None:
            lc = row[top]
            pivots[top] = {w: c / lc for w, c in row.items()}
            return
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

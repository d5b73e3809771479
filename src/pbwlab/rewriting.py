"""Degree-truncated rewriting oracle: completion, normal forms, Hilbert functions, torsion.

The relations x_i x_j - x_j x_i - phi_ij are oriented into rewrite rules by
solving each for its deglex-largest word (x_1 < ... < x_n, degree first).
`complete` resolves every overlap ambiguity whose overlap word has degree at
most D, in increasing degree, FIFO within a degree; dimensions and membership
answers are then certified through degree D - 1.  Coefficients live either in
Q (at a specialization h = a) or in the rational-function field Q(h); in the
generic mode every polynomial inverted while normalizing a rule is recorded,
since its roots are the specializations at which the completed system may
degenerate.

Completion stays in the `Ring` whose field of fractions holds the coefficients,
Z at h = a and Q[h] over Q(h).  A rule is only a primitive row lead -> (E,
[(word, r)]), tail sum(r * word) / E; overlap differences come from the rows,
normal forms run over one common denominator, and a new rule is the primitive
row of a normal form.  Intermediate rules can carry coefficients of tens of
thousands of bits, where field arithmetic would pay a gcd for every product
and sum.  `rules` derives the Fraction or HRat tails from the rows.

Torsion probing works over Q[h] itself: factor * T is certified to lie in the
ideal by exhibiting an explicit polynomial combination of the relations
(bounded-degree exact linear algebra), while T is certified to stay outside
it by a specialization at which T has a nonzero normal form.  When all the
words of every relation have one length (h times a quadratic tail), the
multiples of the relations split into a direct sum by word length, and only
the lengths that T's words have are row-reduced.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from typing import Dict, List, Optional, Tuple

from .errors import (BadSpecialization, FiltrationUnbounded, InputError,
                     OutOfRange)
from .freealg import NCPoly, Word, add_terms, deglex_key, specialize
from .presentations import Presentation
from .scalars import (HPoly, HRat, clear_denominators, clear_hrat_denominators,
                      hpoly_gcd, rational_roots)

TermDict = Dict[Word, object]


class Ring(namedtuple("Ring", "unit gcd clear to_field field_poly primitive_row inverted")):
    """The ring a completion reduces in, inside the field of its coefficients.

    clear(values) is (d, nums) over one denominator d, to_field(v, d) is v / d,
    field_poly(p, a) the field terms of p (at h = a over Q), and primitive_row(d,
    values) is (d / c, [v / c]) for c the gcd of d and the values, scaled so that
    d / c is positive in Z and monic in Q[h].  inverted(lc, d) is the monic
    numerator of lc / d when it has a root (None in Z): the polynomial that a
    rule with lead coefficient lc / d inverts."""


def _primitive_int_row(den: int, values: list) -> tuple:
    content = gcd(den, *values) if den > 0 else -gcd(den, *values)
    return den // content, [v // content for v in values]


def _primitive_hpoly_row(den: HPoly, values: list) -> tuple:
    g = den.monic()
    for v in values:
        if not g.degree:
            break
        g = hpoly_gcd(g, v)
    content = g * den.lead
    return den // content, [v // content for v in values]


def _inverted_hpoly(lc: HPoly, den: HPoly) -> Optional[HPoly]:
    num = lc // hpoly_gcd(lc, den) if den.degree > 0 else lc
    return num.monic() if num.degree >= 1 else None


INTEGERS = Ring(1, gcd, clear_denominators, Fraction,
                lambda poly, a: specialize(poly, a).terms,
                _primitive_int_row, lambda lc, den: None)
HPOLYS = Ring(HPoly.one(), hpoly_gcd, clear_hrat_denominators, HRat,
              lambda poly, a: poly.with_hrat_coeffs().terms,
              _primitive_hpoly_row, _inverted_hpoly)


class RewriteSystem:
    """Rules lead -> tail over a field, lead coefficient 1, kept as rows over a `Ring`."""

    def __init__(self, p: Presentation, mode: str, a: Optional[Fraction] = None):
        if mode not in ("at", "generic"):
            raise InputError(f"unknown field mode {mode!r}")
        if mode == "at" and a is None:
            raise InputError("specialization mode needs a value for h")
        self.n = p.n
        self.mode = mode
        self.a = a
        self.presentation = p
        self.ring = INTEGERS if mode == "at" else HPOLYS
        self._rows: Dict[Word, tuple] = {}
        self._by_len: Dict[int, set] = {}
        self.degree_bound: Optional[int] = None
        self.complete_through: Optional[int] = None
        self.excluded: List[HPoly] = []
        self._resolved: set = set()
        for pair in p.pairs():
            rel = self.ring.field_poly(p.relation(*pair), a)
            if not rel:
                raise BadSpecialization(pair, a)
            den, nums = self.ring.clear(rel.values())
            self._add_poly(den, dict(zip(rel, nums)), queue=None)

    def _note_inversion(self, m: Optional[HPoly]) -> None:
        if m is not None and all(m != seen for seen in self.excluded):
            self.excluded.append(m)

    # -- the rule set ------------------------------------------------------
    @property
    def rules(self) -> Dict[Word, TermDict]:
        """The rules lead -> tail over the field, derived afresh from the rows."""
        to_field = self.ring.to_field
        return {lead: {w: to_field(c, scale) for w, c in row}
                for lead, (scale, row) in self._rows.items()}

    def _set_rule(self, lead: Word, scale, row: list) -> None:
        """Install lead -> row / scale, row a list of (word, ring coefficient)."""
        self._rows[lead] = (scale, row)
        self._by_len.setdefault(len(lead), set()).add(lead)

    def _drop_rule(self, lead: Word) -> tuple:
        scale_row = self._rows.pop(lead)
        bucket = self._by_len[len(lead)]
        bucket.discard(lead)
        if not bucket:
            del self._by_len[len(lead)]
        return scale_row

    def _first_match(self, word: Word, lengths: List[int]):
        """Leftmost position carrying a rule lead; shortest lead at that position."""
        wlen = len(word)
        for pos in range(wlen + 1):
            for length in lengths:
                if pos + length > wlen:
                    break
                cand = word[pos:pos + length]
                if cand in self._by_len[length]:
                    return pos, cand
        return None

    def reduce_ring(self, den, terms: TermDict) -> tuple:
        """Normal form (den', terms') of terms / den, terms a word -> ring value
        dict, updated in place.

        Words come from a deglex max-heap: a step only creates smaller words, so
        a popped word without a rule match is final, and the leftmost, shortest
        match of the largest reducible word is rewritten first.  Rewriting c * w
        by lead -> row / E, g = gcd(c, E), multiplies the other terms and den by
        E / g and adds (c / g) * row, so nothing is divided; E = 1 costs no gcd.
        """
        one, gcd_ = self.ring.unit, self.ring.gcd
        heap = [(_worklist_key(w), w) for w in terms]
        heapq.heapify(heap)
        lengths = sorted(self._by_len)
        while heap:
            best = heapq.heappop(heap)[1]
            if best not in terms:
                continue
            hit = self._first_match(best, lengths)
            if hit is None:
                continue
            coeff = terms.pop(best)
            pos, lead = hit
            scale, tail = self._rows[lead]
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
                        heapq.heappush(heap, (_worklist_key(word), word))
                else:
                    acc = acc + add
                    if acc:
                        terms[word] = acc
                    else:
                        del terms[word]
        return den, terms

    def reduce_dict(self, terms: TermDict) -> TermDict:
        """Normal form of a word -> field coefficient dict with respect to the
        current rules: the field wrapper of `reduce_ring`."""
        ring = self.ring
        den, nums = ring.clear(terms.values())
        den, out = self.reduce_ring(den, dict(zip(terms, nums)))
        return {w: ring.to_field(v, den) for w, v in out.items()}

    def reduce(self, p: NCPoly) -> NCPoly:
        """Normal form of p with respect to the current rules."""
        return NCPoly.adopt(self.n, self.reduce_dict(self.ring.field_poly(p, self.a)))

    def _add_poly(self, den, terms: TermDict, queue) -> None:
        """Install the normal form of terms / den as a rule; rules whose leads
        contain the new lead are retired and their polynomials reduced again."""
        ring = self.ring
        stack = [(den, terms)]
        while stack:
            den, current = self.reduce_ring(*stack.pop())
            if not current:
                continue
            lead = max(current, key=deglex_key)
            lc = current.pop(lead)
            self._note_inversion(ring.inverted(lc, den))
            scale, row = ring.primitive_row(lc, [-c for c in current.values()])
            doomed = [u for u in self._rows if len(u) > len(lead) and _contains(u, lead)]
            for u in doomed:
                old_scale, old_row = self._drop_rule(u)
                requeued = {w: -c for w, c in old_row}
                requeued[u] = old_scale
                stack.append((old_scale, requeued))
            self._set_rule(lead, scale, list(zip(current, row)))
            if queue is not None:
                queue.push_overlaps(lead, self._rows)

    # -- completion --------------------------------------------------------
    def complete(self, degree: int) -> "RewriteSystem":
        """Resolve all overlap ambiguities of overlap-word degree <= degree.

        Calling again with a larger degree resumes: ambiguities already
        resolved at the previous bound are not reprocessed, so deepening an
        already completed system only pays for the new degrees.
        """
        if degree < 2:
            raise InputError("completion degree must be at least 2")
        if self.degree_bound is not None and degree <= self.degree_bound:
            return self
        ring = self.ring
        queue = _AmbiguityQueue(degree, self._resolved)
        for lead in list(self._rows):
            queue.push_overlaps(lead, self._rows)
        while queue.heap:
            left, right, k = queue.pop()
            if left not in self._rows or right not in self._rows:
                continue
            # overlap word left + right[k:]: the difference of the two rewrites
            # over the denominator E_l * E_r / gcd(E_l, E_r)
            (e_left, row_left), (e_right, row_right) = self._rows[left], self._rows[right]
            suffix, prefix = right[k:], left[:len(left) - k]
            if e_left == e_right:
                p1 = add_terms({}, ((tw + suffix, tc) for tw, tc in row_left))
                add_terms(p1, ((prefix + tw, -tc) for tw, tc in row_right))
            else:
                g = ring.gcd(e_left, e_right)
                m_left, m_right = e_right // g, -(e_left // g)
                p1 = add_terms({}, ((tw + suffix, tc * m_left) for tw, tc in row_left))
                add_terms(p1, ((prefix + tw, tc * m_right) for tw, tc in row_right))
            if p1:
                self._add_poly(e_left if e_left == e_right else e_left * m_left, p1, queue)
        for lead in list(self._rows):
            scale, row = self._drop_rule(lead)
            den, tail = self.reduce_ring(scale, dict(row))
            scale, nums = ring.primitive_row(den, list(tail.values()))
            self._set_rule(lead, scale, list(zip(tail, nums)))
        self.degree_bound = degree
        self.complete_through = degree - 1
        return self

    # -- normal words --------------------------------------------------------
    def normal_words(self, max_degree: int) -> List[List[Word]]:
        """Blockwise lists of irreducible words of each degree 0..max_degree."""
        out: List[List[Word]] = [[] for _ in range(max_degree + 1)]
        if () in self._rows:
            return out
        lengths = sorted(self._by_len)

        def blocked(word: Word) -> bool:
            for length in lengths:
                if length > len(word):
                    break
                if word[-length:] in self._by_len[length]:
                    return True
            return False

        frontier: List[Word] = [()]
        out[0].append(())
        for deg in range(1, max_degree + 1):
            nxt: List[Word] = []
            for w in frontier:
                for letter in range(1, self.n + 1):
                    cand = w + (letter,)
                    if not blocked(cand):
                        nxt.append(cand)
            out[deg] = nxt
            frontier = nxt
        return out

    def normal_word_counts(self, max_degree: int) -> List[int]:
        return [len(block) for block in self.normal_words(max_degree)]


def _worklist_key(word: Word):
    """Heap key that pops the deglex-largest word first."""
    return (-len(word), tuple(-x for x in word))


def _contains(word: Word, sub: Word) -> bool:
    ls = len(sub)
    return any(word[pos:pos + ls] == sub for pos in range(len(word) - ls + 1))


class _AmbiguityQueue:
    """Overlap ambiguities ordered by overlap-word degree, FIFO within a degree."""

    def __init__(self, max_degree: int, seen: Optional[set] = None):
        self.max_degree = max_degree
        self.heap: list = []
        self.seen: set = set() if seen is None else seen
        self._seq = 0

    def _push(self, left: Word, right: Word, k: int) -> None:
        degree = len(left) + len(right) - k
        if degree > self.max_degree:
            return
        key = (left, right, k)
        if key in self.seen:
            return
        self.seen.add(key)
        heapq.heappush(self.heap, (degree, self._seq, left, right, k))
        self._seq += 1

    def push_overlaps(self, lead: Word, rules: Dict[Word, tuple]) -> None:
        for other in rules:
            for left, right in ((lead, other), (other, lead)):
                top = min(len(left), len(right)) - 1
                for k in range(1, top + 1):
                    if left[len(left) - k:] == right[:k]:
                        self._push(left, right, k)

    def pop(self):
        _, _, left, right, k = heapq.heappop(self.heap)
        return left, right, k


def build_rules(p: Presentation, mode: str, a: Optional[Fraction] = None) -> RewriteSystem:
    """Orient the pair relations into an (uncompleted) rewrite system."""
    return RewriteSystem(p, mode, a)


@dataclass
class HilbertReport:
    n: int
    max_degree: int
    mode: str  # "at" | "generic"
    a: Optional[Fraction]
    dims: List[int]
    expected: List[int]
    verdicts: List[str]  # "match" | "defect" | "unknown"
    defects: List[int]   # dims[k] - expected[k], 0 where matching/unknown
    complete_through: int
    excluded: List[str] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return all(v == "match" for v in self.verdicts)


def hilbert(p: Presentation, K: int, a: Optional[Fraction] = None,
            generic: bool = False, stabilize: bool = True,
            max_extra_depth: int = 4) -> HilbertReport:
    """Dimensions of the degree filtration quotients against C(n+k-1, k), k <= K.

    Completion starts at overlap degree K + 1.  With stabilize (the default)
    it is deepened, reusing the completed system, until the counts through
    degree K agree at two consecutive depths: relation tails of lower degree
    can cascade consequences several degrees down (a degree-2 relation with a
    constant term may only reveal a degree-1 collapse through degree-5
    overlaps), so the fixed one-degree margin alone is not reliable.  If the
    counts are still moving at depth K + 1 + max_extra_depth, every degree is
    reported as unknown rather than guessed.

    stabilize=False stops at K + 1 and reports the counts as they stand.
    They are always upper bounds for the true dimensions, so this mode is the
    cheap choice when flatness is already known from a passing certificate:
    counts that equal the symmetric dimensions are then provably exact.
    """
    if K < 1:
        raise InputError("degree bound must be at least 1")
    if not p.filtration_ok:
        raise FiltrationUnbounded("a relation tail has x-degree > 2; dimension comparison disabled")
    if not generic and a is None:
        raise InputError("either a specialization value or generic mode is required")
    mode = "generic" if generic else "at"
    system = build_rules(p, mode, a)
    depth = K + 1
    system.complete(depth)
    dims = system.normal_word_counts(K)
    stable = not stabilize
    while stabilize and depth < K + 1 + max_extra_depth:
        depth += 1
        system.complete(depth)
        nxt = system.normal_word_counts(K)
        if nxt == dims:
            stable = True
            break
        dims = nxt
    expected = [comb(p.n + k - 1, k) for k in range(K + 1)]
    verdicts, defects = [], []
    for k in range(K + 1):
        if not stable:
            verdicts.append("unknown")
            defects.append(0)
        elif dims[k] == expected[k]:
            verdicts.append("match")
            defects.append(0)
        else:
            verdicts.append("defect")
            defects.append(dims[k] - expected[k])
    return HilbertReport(p.n, K, mode, a, dims, expected, verdicts, defects,
                         system.complete_through, [str(q) for q in system.excluded])


def member(system: RewriteSystem, p: NCPoly) -> bool:
    """Ideal membership over the system's field, exact within the certified degree."""
    if system.complete_through is None:
        raise InputError("membership needs a completed system")
    if not p.terms:
        return True
    if p.deg_x() > system.complete_through:
        raise OutOfRange(f"degree {p.deg_x()} exceeds certified degree {system.complete_through}")
    return not system.reduce(p)


# -- membership over Q[h] ----------------------------------------------------

def module_membership(p: Presentation, target: NCPoly, max_word_degree: int,
                      max_h_degree: int) -> bool:
    """Is target a Q[h]-combination of one- and two-sided relation multiples?

    Exact row reduction over the basis (word, h-power) with word degree up to
    max_word_degree and h-power up to max_h_degree.  A positive answer is a
    certificate; a negative answer only means no combination exists within
    these bounds.

    The elimination is fraction-free and runs in integers: the cell
    (word, k) is column rank(word) * (max_h_degree + 1) + k, with rank the
    word's deglex position, so a row's deglex-largest cell is its largest
    column and an h-shift adds to every column.  Rows are scaled to coprime
    integers, and reducing by a pivot cross-multiplies instead of dividing,
    so the span, and with it the answer, is exactly that of the rational
    elimination.

    When all the words of each relation have one length (h times a
    quadratic tail: potentials, quantum spaces), every row h^s * u * r * v
    is homogeneous in word length, so the cell space and the row span split
    into a direct sum by length, and target lies in the span exactly when
    each of its length components does.  Only the multiples with
    |u| + |v| + deg r equal to a length of a target word are then built:
    rows of any other length never meet the target's cells.
    """
    target = target.with_hpoly_coeffs()
    for w, c in target.terms.items():
        if len(w) > max_word_degree or c.degree > max_h_degree:
            return False
    width = max_h_degree + 1
    rank = {w: i for i, w in enumerate(_words_up_to(p.n, max_word_degree))}
    relations = [p.relation(*pair).with_hpoly_coeffs() for pair in p.pairs()]
    graded = all(len({len(w) for w in rel.terms}) == 1 for rel in relations)
    lengths = {len(w) for w in target.terms}
    pivots: Dict[int, Dict[int, int]] = {}
    for rel in relations:
        deg = rel.deg_x()
        room = max_word_degree - deg
        cells = _primitive_cells(rel)
        shifts = range(width - max(k for _, k, _ in cells))
        if room < 0 or not shifts:
            continue
        for u in _words_up_to(p.n, room):
            for v in _words_up_to(p.n, room - len(u)):
                if graded and len(u) + len(v) + deg not in lengths:
                    continue
                base = {rank[u + w + v] * width + k: c for w, k, c in cells}
                for shift in shifts:
                    _echelon_insert(pivots, {col + shift: c for col, c in base.items()})
    goal = {rank[w] * width + k: c for w, k, c in _primitive_cells(target)}
    return not _echelon_reduce(pivots, goal)


def _words_up_to(n: int, max_len: int) -> List[Word]:
    out: List[Word] = [()]
    frontier: List[Word] = [()]
    for _ in range(max_len):
        frontier = [w + (letter,) for w in frontier for letter in range(1, n + 1)]
        out.extend(frontier)
    return out


def _primitive_cells(poly: NCPoly) -> List[Tuple[Word, int, int]]:
    """The (word, h-power, coefficient) cells of poly, scaled to coprime integers."""
    cells = [(w, k, q) for w, c in poly.terms.items() for k, q in enumerate(c.coeffs) if q]
    _, ints = clear_denominators(q for _, _, q in cells)
    content = gcd(*ints) or 1
    return [(w, k, v // content) for (w, k, _), v in zip(cells, ints)]


def _echelon_reduce(pivots: Dict[int, Dict[int, int]], row: Dict[int, int]) -> Dict[int, int]:
    """Cancel the leading column of row against the pivots until none matches.

    Pivots are primitive; row * (lc / g) - pivot * (f / g) with g = gcd(lc, f)
    keeps every entry an integer, and dividing out the content after each
    step keeps the entries small.  row may be updated in place.
    """
    while row:
        top = max(row)
        pivot = pivots.get(top)
        if pivot is None:
            return row
        f, lc = row[top], pivot[top]
        g = gcd(f, lc)
        a, b = lc // g, f // g
        if a != 1:
            row = {col: value * a for col, value in row.items()}
        for col, value in pivot.items():
            acc = row.get(col, 0) - b * value
            if acc:
                row[col] = acc
            else:
                row.pop(col, None)
        content = gcd(*row.values())
        if content > 1:
            row = {col: value // content for col, value in row.items()}
    return row


def _echelon_insert(pivots: Dict[int, Dict[int, int]], row: Dict[int, int]) -> None:
    """Add row's remainder as a pivot, with a positive leading entry so that a
    leading 1 reduces later rows without rescaling them."""
    rem = _echelon_reduce(pivots, row)
    if rem:
        top = max(rem)
        if rem[top] < 0:
            rem = {col: -value for col, value in rem.items()}
        pivots[top] = rem


# -- torsion -----------------------------------------------------------------

@dataclass
class TorsionOutcome:
    status: str  # "witness" | "refuted" | "unknown"
    detail: str
    element: NCPoly
    factor: HPoly
    degree_bound: int
    h_degree_bound: int
    refuting_specialization: Optional[Fraction] = None

    @property
    def is_witness(self) -> bool:
        return self.status == "witness"


def torsion_check(p: Presentation, element: NCPoly, factor: HPoly,
                  degree: int) -> TorsionOutcome:
    """Probe whether factor * element witnesses h-torsion of the quotient.

    A witness requires factor * element in the relation ideal over Q[h] while
    element itself is not; the first fact is certified by an explicit bounded
    combination, the second by a specialization with a nonzero normal form.
    """
    if not element.terms:
        raise InputError("the probed element must be nonzero")
    if not factor:
        raise InputError("the scalar factor must be nonzero")
    if element.deg_x() > degree - 1:
        raise OutOfRange(f"element degree {element.deg_x()} exceeds {degree - 1}")
    element = element.with_hpoly_coeffs()
    h_bound = (max(c.degree for c in element.terms.values()) + factor.degree + degree + 2)

    generic = build_rules(p, "generic").complete(degree)
    if generic.reduce(element):
        return TorsionOutcome(
            "refuted",
            "factor*T is not in the ideal even with rational-function coefficients",
            element, factor, degree, h_bound)

    candidates: List[Fraction] = []
    for root in rational_roots(factor):
        candidates.append(root)
    for poly in generic.excluded:
        for root in rational_roots(poly):
            if root not in candidates:
                candidates.append(root)
    for extra in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                  Fraction(-2), Fraction(1, 2), Fraction(-1, 2), Fraction(3)):
        if extra not in candidates:
            candidates.append(extra)

    refuting = None
    for a in candidates:
        try:
            special = build_rules(p, "at", a).complete(degree)
        except BadSpecialization:
            continue
        if special.reduce(specialize(element, a)):
            refuting = a
            break

    if refuting is None:
        if module_membership(p, element, degree, h_bound):
            return TorsionOutcome(
                "refuted", "T itself lies in the ideal over Q[h]",
                element, factor, degree, h_bound)
        return TorsionOutcome(
            "unknown",
            "T could not be separated from the ideal at any tried specialization",
            element, factor, degree, h_bound)

    if factor.is_constant():
        return TorsionOutcome(
            "refuted",
            "factor is a nonzero constant, so factor*T lies in the ideal iff T does, "
            f"and T has a nonzero normal form at h={refuting}",
            element, factor, degree, h_bound, refuting)

    scaled = element.scale(factor)
    if module_membership(p, scaled, degree, h_bound):
        return TorsionOutcome(
            "witness",
            f"factor*T is an explicit Q[h]-combination of the relations, while T has a "
            f"nonzero normal form at h={refuting}",
            element, factor, degree, h_bound, refuting)
    return TorsionOutcome(
        "unknown",
        "membership of factor*T over Q[h] was not established within the degree bounds",
        element, factor, degree, h_bound, refuting)

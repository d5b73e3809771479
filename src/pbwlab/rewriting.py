"""Degree-truncated rewriting oracle: completion, normal forms, Hilbert functions, torsion.

The relations x_i x_j - x_j x_i - phi_ij are oriented into rewrite rules by
solving each for its deglex-largest word (x_1 < ... < x_n, degree first).
`complete` resolves every overlap ambiguity whose overlap word has degree at
most D, in increasing degree: at h = a all the ambiguities of one degree as
one batch, over Q(h) one at a time; dimensions and membership answers are
then certified through degree D - 1.  Coefficients live either in Q (at a
specialization h = a) or in the rational-function field Q(h); in the generic
mode every polynomial inverted while normalizing a rule is recorded, since
its roots are the specializations at which the completed system may
degenerate.

Completion stays in the `scalars.Ring` whose field of fractions holds the
coefficients, `INTEGERS` (Z) at h = a and `ZPOLYS` (Z[h]) over Q(h), both
integer arithmetic without a Fraction; every row operation is the ring's.  A
rule is only a primitive row lead -> (E, [(word, r)]), tail sum(r * word) / E,
E positive (a positive lead in Z[h]); overlap differences come from the rows,
normal forms run over one common denominator (`Ring.split` gives each step's
factors, in Z[h] with a gcd only when E does not divide the coefficient), and
new rules are the primitive rows of normal forms; at h = a a fraction-free
echelon step over the whole batch divides out a row's content once, when the
row is finished, and installs each pivot as it stands.  A last pass reduces
every tail against the finished rules, then installs them all.  Field
arithmetic would pay a gcd per product and sum of intermediate rules, which
carry hundreds of bits.  `rules` derives the Fraction or HRat tails from the
rows with `Ring.to_field`.  Every polynomial, `reduce_dict`'s terms and
`module_membership`'s rows included, enters the ring through `Ring.row`.  The
normal-form kernel keys its terms and its rewrite cache (cleared by
`_set_rule` and `_drop_rule`) by deglex rank; word tuples are built only where
words enter or leave it and on a cache miss, and a map per system decodes
ranks.  `member` and torsion's separation probes answer from the ranked normal
form, `_residue`, without words or field values.

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
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, gcd
from typing import Dict, List, Optional

from .errors import (BadSpecialization, FiltrationUnbounded, InputError,
                     OutOfRange)
from .freealg import NCPoly, Word, add_terms, check_ambient
from .presentations import Presentation
from .scalars import INTEGERS, ZPOLYS, HPoly, _hpoly_over, rational_roots

TermDict = Dict[Word, object]


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
        self.ring = INTEGERS if mode == "at" else ZPOLYS
        self._rows: Dict[Word, tuple] = {}
        self._by_len: Dict[int, set] = {}
        self._rewrites: Dict[int, Optional[tuple]] = {}
        self._words: Dict[int, Word] = {}
        self.degree_bound: Optional[int] = None
        self.complete_through: Optional[int] = None
        self.excluded: List[HPoly] = []
        self._resolved: set = set()
        for pair in p.pairs():
            den, rel = self.ring.row(p.relation(*pair), a)
            if not rel:
                raise BadSpecialization(pair, a)
            self._add_poly(den, rel, queue=None)

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
        self._rewrites.clear()

    def _drop_rule(self, lead: Word) -> tuple:
        scale_row = self._rows.pop(lead)
        self._rewrites.clear()
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

    def _ranked(self, pairs) -> list:
        """[(deglex rank, value)] of the (word, value) pairs, each word noted for decoding."""
        n, words, out = self.n, self._words, []
        for word, value in pairs:
            rank = 0
            for letter in word:  # _deglex_rank, inlined
                rank = rank * n + letter
            words[rank] = word
            out.append((rank, value))
        return out

    def _reduce_ranked(self, den, terms: TermDict) -> tuple:
        """(den', {deglex rank: ring value}), the normal form of the word -> ring
        value dict terms / den: the kernel behind `reduce`.  Ranks come from
        a max-heap: a step only creates smaller words, so a popped rank without a
        rule match is final, and the leftmost, shortest match of the largest
        reducible word is rewritten first.  Rewriting c * w by lead -> row / E,
        g = gcd(c, E), multiplies the other terms and den by E / g and adds
        (c / g) * row; `Ring.split` gives both, in Z[h] by one synthetic division
        when E divides c (g = E) and a gcd only when not; E = 1 costs neither.
        The leads are scanned once per word and rule set: `_rewrites` maps the
        rank to None (no lead) or to (E, [(rank of left + tail word + right, r)])
        of that match, so the steps and their integers are those of a fresh scan.
        """
        one, split, rewrites, words = self.ring.unit, self.ring.split, self._rewrites, self._words
        terms = dict(self._ranked(terms.items()))
        heap = [-rank for rank in terms]
        heapq.heapify(heap)
        lengths = sorted(self._by_len)
        while heap:
            best = -heapq.heappop(heap)
            if best not in terms:
                continue
            entry = rewrites.get(best, False)
            if entry is False:
                word = words[best]
                entry = self._first_match(word, lengths)
                if entry is not None:
                    pos, lead = entry
                    left, right = word[:pos], word[pos + len(lead):]
                    scale, tail = self._rows[lead]
                    entry = scale, self._ranked((left + tw + right, tc) for tw, tc in tail)
                rewrites[best] = entry
            if entry is None:
                continue
            coeff = terms.pop(best)
            scale, spliced = entry
            if scale != one:
                mult, coeff = split(coeff, scale)
                if mult != one:
                    den *= mult
                    for rank in terms:
                        terms[rank] *= mult
            for rank, tc in spliced:
                add = coeff * tc
                acc = terms.get(rank)
                if acc is None:
                    if add:
                        terms[rank] = add
                        heapq.heappush(heap, -rank)
                else:
                    acc = acc + add
                    if acc:
                        terms[rank] = acc
                    else:
                        del terms[rank]
        return den, terms

    def _residue(self, p: NCPoly) -> dict:
        """The ranked normal form of p: empty exactly when p reduces to zero."""
        return self._reduce_ranked(*self.ring.row(p, self.a))[1]

    def reduce_dict(self, terms: TermDict) -> TermDict:
        """Normal form of a word -> field coefficient dict with respect to the
        current rules: `reduce` of the polynomial with those terms."""
        return self.reduce(NCPoly.adopt(self.n, terms)).terms

    def reduce(self, p: NCPoly) -> NCPoly:
        """Normal form of p with respect to the current rules: `_reduce_ranked` of its
        ring row, with the ranks decoded."""
        check_ambient(self.n, p)
        den, out = self._reduce_ranked(*self.ring.row(p, self.a))
        return NCPoly.adopt(self.n, {self._words[r]: self.ring.to_field(v, den) for r, v in out.items()})

    def _retire(self, lead: Word) -> list:
        """Drop the rules whose leads contain lead; their polynomials (den, terms)."""
        out = []
        for u in [u for u in self._rows if len(u) > len(lead) and _contains(u, lead)]:
            scale, row = self._drop_rule(u)
            out.append((scale, {**{w: -c for w, c in row}, u: scale}))
        return out

    def _add_poly(self, den, terms: TermDict, queue) -> None:
        """Install the normal form of terms / den as a rule; rules whose leads
        contain the new lead are retired and their polynomials reduced again."""
        ring, words = self.ring, self._words
        stack = [(den, terms)]
        while stack:
            den, current = self._reduce_ranked(*stack.pop())
            if not current:
                continue
            top = max(current)
            lead, lc = words[top], current.pop(top)
            self._note_inversion(ring.inverted(lc, den))
            scale, row = ring.primitive_row(lc, [-c for c in current.values()])
            stack += self._retire(lead)
            self._set_rule(lead, scale, list(zip(map(words.get, current), row)))
            if queue is not None:
                queue.push_overlaps(lead)

    def _add_batch(self, polys: list, queue) -> list:
        """Install the polynomials (den, terms) together, in Z: one rule per pivot
        of the fraction-free reduced echelon form of their normal forms, over
        their deglex-rank keys.  Returns the polynomials of the retired rules and
        of the pivots whose leads contain another pivot's lead."""
        words, pivots = self._words, {}
        for den, terms in polys:
            _echelon_insert(pivots, self._reduce_ranked(den, terms)[1])
        for top in sorted(pivots):  # reduced echelon form: lower pivots are reduced already
            row = pivots[top]
            for col in [c for c in row if c != top and c in pivots]:
                row = _eliminate(row, pivots[col], col)
            pivots[top] = _primitive(row, top)
        leads, carry = [words[top] for top in pivots], []
        for top, row in sorted(pivots.items()):
            lead = words[top]
            if any(len(other) < len(lead) and _contains(lead, other) for other in leads):
                carry.append((1, {words[col]: c for col, c in row.items()}))
                continue
            scale = row.pop(top)  # the pivot is primitive, with a positive entry at top
            carry += self._retire(lead)
            self._set_rule(lead, scale, [(words[col], -c) for col, c in row.items()])
            queue.push_overlaps(lead)
        return carry

    def _overlap(self, left: Word, right: Word, k: int) -> tuple:
        """(den, terms) of the difference of the two rewrites of the overlap
        word left + right[k:], over den = E_l * E_r / gcd(E_l, E_r); no terms
        when either rule has been retired."""
        if left not in self._rows or right not in self._rows:
            return self.ring.unit, {}
        (e_left, row_left), (e_right, row_right) = self._rows[left], self._rows[right]
        suffix, prefix = right[k:], left[:len(left) - k]
        m_left, m_right = self.ring.split(e_left, e_right)
        p1 = add_terms({}, ((tw + suffix, tc * m_left) for tw, tc in row_left))
        add_terms(p1, ((prefix + tw, -tc * m_right) for tw, tc in row_right))
        return e_left * m_left, p1

    # -- completion --------------------------------------------------------
    def complete(self, degree: int) -> "RewriteSystem":
        """Resolve all overlap ambiguities of overlap-word degree <= degree.

        At h = a the lowest overlap degree's FIFO list of pending ambiguities is
        one batch, installed together by `_add_batch`; one at a time, each new rule
        is reduced by the previous one and the coefficients swell (to tens of
        thousands of bits on the cascading fixture).  The order cannot change
        the result: over a field, the span of the final rules through the
        degree is the smallest space that holds the relations and x * f and
        f * x for each of its elements f with a leading word shorter than the
        degree, and that span fixes the reduced rules.  Over Q(h) `excluded`
        depends on the order, so each ambiguity is installed alone through
        `_add_poly`, FIFO within a degree.

        Calling again with a larger degree resumes: ambiguities already
        resolved at the previous bound are not reprocessed, so deepening an
        already completed system only pays for the new degrees.
        """
        if degree < 2:
            raise InputError("completion degree must be at least 2")
        if self.degree_bound is not None and degree <= self.degree_bound:
            return self
        ring = self.ring
        queue = _AmbiguityQueue(degree, self._resolved, self._rows)
        for lead in list(self._rows):
            queue.push_overlaps(lead)
        carry = []
        while queue.pending or carry:
            if ring is INTEGERS:
                carry += [self._overlap(*amb) for amb in queue.pop_degree()]
                carry = self._add_batch(carry, queue)
            else:
                self._add_poly(*self._overlap(*queue.pop()), queue)
        # a tail word is deglex-smaller than its lead, so no rewrite of it meets the lead
        tails = {lead: self._reduce_ranked(scale, dict(row))
                 for lead, (scale, row) in self._rows.items()}
        for lead, (den, tail) in tails.items():
            scale, nums = ring.primitive_row(den, list(tail.values()))
            self._set_rule(lead, scale, list(zip(map(self._words.get, tail), nums)))
        self.degree_bound = degree
        self.complete_through = degree - 1
        return self

    # -- normal words --------------------------------------------------------
    def normal_words(self, max_degree: int) -> List[List[Word]]:
        """Blockwise lists of irreducible words of each degree 0..max_degree."""
        out: List[List[Word]] = [[] for _ in range(max_degree + 1)]
        if () in self._rows:
            return out
        out[0].append(())
        for deg in range(1, max_degree + 1):
            suffixes = [(k, leads) for k, leads in sorted(self._by_len.items()) if k <= deg]
            for w in out[deg - 1]:  # a lead in w + x can only be a suffix
                for letter in range(1, self.n + 1):
                    cand = w + (letter,)
                    for k, leads in suffixes:
                        if cand[-k:] in leads:
                            break
                    else:
                        out[deg].append(cand)
        return out

    def normal_word_counts(self, max_degree: int) -> List[int]:
        return [len(block) for block in self.normal_words(max_degree)]


def _deglex_rank(word: Word, n: int) -> int:
    """Position of word in deglex order over x_1 < ... < x_n: the word read as a
    bijective base-n numeral, letters 1..n as digits, () ranked 0."""
    rank = 0
    for letter in word:
        rank = rank * n + letter
    return rank


def _contains(word: Word, sub: Word) -> bool:
    ls = len(sub)
    return any(word[pos:pos + ls] == sub for pos in range(len(word) - ls + 1))


class _AmbiguityQueue:
    """Pending overlap ambiguities of the rule map, one FIFO list per
    overlap-word degree; the lowest degree's list is handed out first."""

    def __init__(self, max_degree: int, seen: set, rules: Dict[Word, tuple]):
        self.max_degree, self.seen, self.rules = max_degree, seen, rules
        self.pending: Dict[int, deque] = {}

    def push_overlaps(self, lead: Word) -> None:
        """Queue each unseen overlap of lead with a rule, of degree <= max_degree."""
        for other in self.rules:
            for left, right in ((lead, other), (other, lead)):
                for k in range(1, min(len(left), len(right))):
                    if left[-k:] != right[:k]:
                        continue
                    key, degree = (left, right, k), len(left) + len(right) - k
                    if degree <= self.max_degree and key not in self.seen:
                        self.seen.add(key)
                        self.pending.setdefault(degree, deque()).append(key)

    def pop(self) -> tuple:
        """The first pending ambiguity of the lowest overlap degree."""
        low = min(self.pending)
        key = self.pending[low].popleft()
        if not self.pending[low]:
            del self.pending[low]
        return key

    def pop_degree(self) -> deque:
        """Every pending ambiguity of the lowest overlap degree, FIFO; () when none is left."""
        return self.pending.pop(min(self.pending, default=None), ())


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


MAX_EXTRA_DEPTH = 4  # completion depths hilbert may add beyond K + 1 while stabilizing


def hilbert(p: Presentation, K: int, a: Optional[Fraction] = None,
            generic: bool = False) -> HilbertReport:
    """Dimensions of the degree filtration quotients against C(n+k-1, k), k <= K.

    Completion starts at overlap degree K + 1 and is deepened, reusing the
    completed system, until the counts through degree K agree at two
    consecutive depths: relation tails of lower degree can cascade
    consequences several degrees down (a degree-2 relation with a constant
    term may only reveal a degree-1 collapse through degree-5 overlaps), so
    the fixed one-degree margin alone is not reliable.  If the counts are
    still moving at depth K + 1 + MAX_EXTRA_DEPTH, every degree is reported
    as unknown rather than guessed.  The counts at a single depth,
    `build_rules(p, mode, a).complete(K + 1).normal_word_counts(K)`, are
    always upper bounds for the true dimensions.

    Agreement at two consecutive depths is a heuristic, not a proof: a deeper
    overlap can still lower the counts, so a stabilized `match` is not proved
    (n = 3, h = 5, phi_12 = h^2 x3 x1, phi_13 = -h, phi_23 = -h^2 - h x2 x2
    matches (1, 3, 6) at K = 2, and has dims 0 at K = 3).  Only a `defect` with
    a count below C(n+k-1, k) is proved.
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
    stable = False
    while depth < K + 1 + MAX_EXTRA_DEPTH:
        depth += 1
        system.complete(depth)
        nxt = system.normal_word_counts(K)
        if nxt == dims:
            stable = True
            break
        dims = nxt
    expected = [comb(p.n + k - 1, k) for k in range(K + 1)]
    defects = [d - e if stable else 0 for d, e in zip(dims, expected)]
    verdicts = [("defect" if d else "match") if stable else "unknown" for d in defects]
    return HilbertReport(p.n, K, mode, a, dims, expected, verdicts, defects,
                         system.complete_through, [str(q) for q in system.excluded])


def member(system: RewriteSystem, p: NCPoly) -> bool:
    """Ideal membership over the system's field, exact within the certified degree."""
    if system.complete_through is None:
        raise InputError("membership needs a completed system")
    check_ambient(system.n, p)
    if not p.terms:
        return True
    if p.deg_x() > system.complete_through:
        raise OutOfRange(f"degree {p.deg_x()} exceeds certified degree {system.complete_through}")
    return not system._residue(p)


# -- membership over Q[h] ----------------------------------------------------

def module_membership(p: Presentation, target: NCPoly, max_word_degree: int,
                      max_h_degree: int) -> bool:
    """Is target a Q[h]-combination of one- and two-sided relation multiples?

    Exact row reduction over the basis (word, h-power) with word degree up to
    max_word_degree and h-power up to max_h_degree.  A positive answer is a
    certificate; a negative answer only means no combination exists within
    these bounds.

    The elimination is fraction-free and runs on the integers of `ZPOLYS.row`:
    the h^k coefficient at a word is the cell (word, k), column
    _deglex_rank(word) * (max_h_degree + 1) + k, so a row's deglex-largest
    cell is its largest column and an h-shift adds to every column.  Pivots
    are primitive and reducing by one cross-multiplies, so no row's scale
    changes the span or the answer.  A target whose row has a non-constant
    denominator is not over Q[h] and raises `InputError`.

    The multiples h^s * u * r * v are built by word length |u| + |v| + deg r.
    When all the words of each relation have one length (h times a quadratic
    tail: potentials, quantum spaces), every row is homogeneous in word
    length, so the cell space and the row span split into a direct sum by
    length, and target lies in the span exactly when each of its length
    components does.  Only the lengths of the target's words are then built:
    rows of any other length never meet the target's cells.  Otherwise every
    length up to max_word_degree is.
    """
    check_ambient(p.n, target)
    den, row = ZPOLYS.row(target, None)
    if len(den) > 1:
        raise InputError("module membership needs a target with coefficients in Q[h]")
    n, width = p.n, max_h_degree + 1
    if any(len(w) > max_word_degree or len(c) > width for w, c in row.items()):
        return False
    relations = [p.relation(*pair) for pair in p.pairs()]
    if all(len({len(w) for w in rel.terms}) == 1 for rel in relations):
        lengths = sorted({len(w) for w in row})
    else:
        lengths = range(max_word_degree + 1)
    letters = range(1, n + 1)
    pivots: Dict[int, Dict[int, int]] = {}
    for rel in relations:
        deg = rel.deg_x()
        cells = [(w, k, q) for w, c in ZPOLYS.row(rel, None)[1].items() for k, q in enumerate(c) if q]
        shifts = range(width - max(k for _, k, _ in cells))
        if not shifts:
            continue
        for length in lengths:
            for left in range(length - deg + 1):
                for u in product(letters, repeat=left):
                    for v in product(letters, repeat=length - deg - left):
                        base = [(_deglex_rank(u + w + v, n) * width + k, c) for w, k, c in cells]
                        for shift in shifts:
                            _echelon_insert(pivots, {col + shift: c for col, c in base})
    goal = {_deglex_rank(w, n) * width + k: q for w, c in row.items() for k, q in enumerate(c) if q}
    return not _echelon_reduce(pivots, goal)


def _eliminate(row: Dict[int, int], pivot: Dict[int, int], col: int) -> Dict[int, int]:
    """row * (lc / g) - pivot * (f / g), f and lc the entries at col and
    g = gcd(f, lc): integers; the content stays in.  row may change in place."""
    f, lc = row[col], pivot[col]
    g = gcd(f, lc)
    a, b = lc // g, f // g
    if a != 1:
        row = {c: value * a for c, value in row.items()}
    get = row.get
    for c, value in pivot.items():  # add_terms, inlined
        acc = get(c, 0) - b * value
        if acc:
            row[c] = acc
        else:
            del row[c]
    return row


def _primitive(row: Dict[int, int], top: int) -> Dict[int, int]:
    """row over its content, signed so that the entry at top is positive."""
    content = gcd(*row.values()) if row[top] > 0 else -gcd(*row.values())
    return row if content == 1 else {c: value // content for c, value in row.items()}


def _echelon_reduce(pivots: Dict[int, Dict[int, int]], row: Dict[int, int]) -> Dict[int, int]:
    """Cancel the leading column of row against the pivots until none
    matches.  row may be updated in place."""
    while row and (top := max(row)) in pivots:
        row = _eliminate(row, pivots[top], top)
    return row


def _echelon_insert(pivots: Dict[int, Dict[int, int]], row: Dict[int, int]) -> None:
    """Add row's remainder as a pivot, primitive and with a positive leading
    entry, so that a leading 1 reduces later rows without rescaling them."""
    rem = _echelon_reduce(pivots, row)
    if rem:
        top = max(rem)
        pivots[top] = _primitive(rem, top)


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
    An element with a coefficient outside Q[h] raises `InputError`.
    """
    check_ambient(p.n, element)
    if not element.terms:
        raise InputError("the probed element must be nonzero")
    if not factor:
        raise InputError("the scalar factor must be nonzero")
    if element.deg_x() > degree - 1:
        raise OutOfRange(f"element degree {element.deg_x()} exceeds {degree - 1}")
    den, row = ZPOLYS.row(element, None)
    if len(den) > 1:
        raise InputError("the probed element needs coefficients in Q[h]")
    element = NCPoly.adopt(p.n, {w: _hpoly_over(v, den[0]) for w, v in row.items()})
    h_bound = (max(c.degree for c in element.terms.values()) + factor.degree + degree + 2)

    def outcome(status: str, detail: str, refuting=None) -> TorsionOutcome:
        return TorsionOutcome(status, detail, element, factor, degree, h_bound, refuting)

    generic = build_rules(p, "generic").complete(degree)
    if generic._residue(element):
        return outcome("refuted", "factor*T is not in the ideal even with rational-function "
                                  "coefficients")

    candidates = list(dict.fromkeys([
        *rational_roots(factor),
        *(root for poly in generic.excluded for root in rational_roots(poly)),
        Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
        Fraction(-2), Fraction(1, 2), Fraction(-1, 2), Fraction(3)]))

    refuting = None
    for a in candidates:
        try:
            special = build_rules(p, "at", a).complete(degree)
        except BadSpecialization:
            continue
        if special._residue(element):
            refuting = a
            break

    if refuting is None:
        if module_membership(p, element, degree, h_bound):
            return outcome("refuted", "T itself lies in the ideal over Q[h]")
        return outcome("unknown",
                       "T could not be separated from the ideal at any tried specialization")

    if factor.is_constant():
        return outcome("refuted", "factor is a nonzero constant, so factor*T lies in the ideal "
                                  f"iff T does, and T has a nonzero normal form at h={refuting}",
                       refuting)

    scaled = element.scale(factor)
    if module_membership(p, scaled, degree, h_bound):
        return outcome("witness", "factor*T is an explicit Q[h]-combination of the relations, "
                                  f"while T has a nonzero normal form at h={refuting}", refuting)
    return outcome("unknown", "membership of factor*T over Q[h] was not established within "
                              "the degree bounds", refuting)

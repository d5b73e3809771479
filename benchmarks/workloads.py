"""The workloads: seeded input documents and the questions asked of them.

A workload is built in two steps.  `generate(name, seed)` draws the input
properties from the seed and writes them as JSON documents, using only the
standard library: pbwlab receives nothing but these documents and the frozen
corpus files.  `Plan.build(parsed, pbw)` then turns the parsed objects into
the questions of one round.  Every question carries a reference answer that
does not come from the code under test (see reference.py); references are
evaluated outside the timed region.

Why these two workloads:

* certify_batch: the certificate route.  Loads koszul, certificates and
  HPoly and never calls rewriting; the dense n^6 tensor conditions dominate.
* oracle: the rewriting oracle, in two question sets.  Over Q at h = a
  (oracle_at), completion writes rules and member batches read them, with
  Fraction swell and no HRat.  Over Q(h) and Q[h] (oracle_generic), generic
  completion pays for HRat gcds, and torsion probes add rational roots and
  the dense module_membership row reduction.

Seeded at-mode inputs are x-homogeneous quadratic tensors, or Lie algebras
that satisfy Jacobi, so their dimensions have an exact and cheap reference:
a margin-0 span for homogeneous relations, the PBW theorem for Lie algebras.
Inhomogeneous random presentations (the criterion-10 "mixed" shape) are not
drawn from the seed: single instances cost up to 27 s, and their references
need span margins whose row reduction takes minutes.  Six of them, with
their dimensions from the span oracle, are frozen in corpus/mixed.json,
beside the cascading-collapse fixture.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable, Dict, List

import reference

CORPUS = Path(__file__).resolve().parent / "corpus"
WORKLOADS = ("certify_batch", "oracle")
# The cascading-collapse fixture is asked at h = 1/2 and h = 1: there it
# takes the same stabilization path as at h = 3 (counts (1,3,6,9) at depth 4,
# (1,1,0,0) from depth 5) in 1.4 s and 1.7 s instead of 5.5 s, so that a
# round holds many dear questions instead of one.
CASCADING_AT = (Fraction(1, 2), Fraction(1))


@dataclass
class Question:
    label: str
    call: Callable[[], Any]            # asks pbwlab; the only timed part
    expect: Callable[[], Any]          # reference answer; untimed, run once
    answer: Callable[[Any], Any] = lambda raw: raw   # normalizes the raw result


@dataclass
class Plan:
    """Documents to parse during set-up, and the function that builds one round."""
    name: str
    seed: int
    docs: Dict[str, tuple] = field(default_factory=dict)   # name -> (kind, payload)
    build: Callable = None                                  # (parsed, pbw) -> [Question]


# -- h-polynomials and word polynomials on the benchmark side ---------------------
# A coefficient is a tuple of Fractions, lowest power of h first.

def hp(*cs) -> tuple:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def hp_eval(cs: tuple, a: Fraction) -> Fraction:
    return sum((c * a ** k for k, c in enumerate(cs)), Fraction(0))


def hp_add(x: tuple, y: tuple) -> tuple:
    size = max(len(x), len(y))
    return hp(*((x[k] if k < len(x) else 0) + (y[k] if k < len(y) else 0)
                for k in range(size)))


def poly_add(acc: dict, word: tuple, coeff: tuple) -> None:
    total = hp_add(acc.get(word, ()), coeff)
    if total:
        acc[word] = total
    else:
        acc.pop(word, None)


def coeff_json(cs: tuple) -> list:
    return [str(c) for c in cs] if cs else ["0"]


def poly_doc(n: int, poly: dict) -> dict:
    return {"n": n, "terms": [{"word": list(w), "coeff": coeff_json(c)}
                              for w, c in sorted(poly.items())]}


def phi_of(doc: dict) -> tuple:
    """(n, phi) of an explicit, lie or quadratic document; phi_ij for i < j."""
    phi: dict = {}
    if "lie" in doc:
        n = doc["lie"]["n"]
        for e in doc["lie"]["c"]:
            poly_add(phi.setdefault((e["i"], e["j"]), {}), (e["k"],), hp(0, Fraction(e["value"])))
    elif "quadratic" in doc:
        n = doc["quadratic"]["n"]
        for e in doc["quadratic"]["alpha"]:
            poly_add(phi.setdefault((e["i"], e["j"]), {}), (e["a"], e["b"]),
                     hp(0, Fraction(e["value"])))
    else:
        n = doc["n"]
        for e in doc["phi"]:
            target = phi.setdefault((e["i"], e["j"]), {})
            for t in e["terms"]:
                poly_add(target, tuple(t["word"]), hp(*[Fraction(c) for c in t["coeff"]]))
    return n, phi


def relations(n: int, phi: dict, a=None) -> list:
    """x_i x_j - x_j x_i - phi_ij for i < j, evaluated at h = a unless a is None."""
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rel = {(i, j): hp(1), (j, i): hp(-1)}
            for w, c in phi.get((i, j), {}).items():
                poly_add(rel, w, tuple(-x for x in c))
            if a is not None:
                rel = {w: hp(hp_eval(c, a)) for w, c in rel.items() if hp_eval(c, a)}
            out.append(rel)
    return out


def random_word(rng, n: int, length: int) -> tuple:
    return tuple(rng.randint(1, n) for _ in range(length))


def ideal_element(shape, rng, n: int, rels: list, degree: int, terms: int = 3) -> dict:
    """A combination of multiples u * r * v of the given degree: in the ideal by
    construction.  The words come from `shape`, the scalars from `rng`, so the
    cost of reducing a query does not depend on the workload seed."""
    out: dict = {}
    for _ in range(terms):
        rel = shape.choice(rels)
        room = degree - max(len(w) for w in rel)
        left = shape.randint(0, room)
        u = random_word(shape, n, left)
        v = random_word(shape, n, room - left)
        scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        for w, c in rel.items():
            poly_add(out, u + w + v, tuple(scale * x for x in c))
    return out


def make_queries(shape, rng, n: int, rels: list, degree: int, yes: int, no: int,
                 linear: bool) -> list:
    """(document, in the ideal by construction) pairs for a member batch.

    A non-member adds a nonzero constant, and with `linear` also a nonzero
    linear form, to an ideal element.
    """
    out = []
    for k in range(yes + no):
        poly = ideal_element(shape, rng, n, rels, degree)
        if k >= yes:
            poly_add(poly, (), hp(rng.choice([-2, -1, 1, 2])))
            if linear:
                poly_add(poly, (shape.randint(1, n),), hp(rng.choice([-1, 1, 3])))
        out.append((poly_doc(n, poly), k < yes))
    return out


# -- seeded families -------------------------------------------------------------

VALUES = [-2, -1, 1, 2]
POINTS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(3), Fraction(1, 2),
          Fraction(-1, 2), Fraction(2, 3)]


def quad_doc(n: int, alpha: dict) -> dict:
    return {"quadratic": {"n": n, "alpha": [
        {"i": i, "j": j, "a": a, "b": b, "value": str(v)}
        for (i, j, a, b), v in sorted(alpha.items()) if v]}}


# Seeded families draw their structure (which entries, words and sizes
# occur) from `shape`, a generator fixed per workload, and their values from
# `rng`, the seeded one: the structure sets what a question costs, so the
# cost of a round, and which questions rank at its median and its tail, do
# not depend on the seed.

def quad_keys(shape, n: int, entries: int) -> list:
    """Distinct (i, j, a, b) positions of a quadratic tensor, i < j."""
    keys: set = set()
    while len(keys) < entries:
        i = shape.randint(1, n - 1)
        j = shape.randint(i + 1, n)
        keys.add((i, j, shape.randint(1, n), shape.randint(1, n)))
    return sorted(keys)


def random_quad_doc(rng, n: int, keys: list) -> dict:
    return quad_doc(n, {key: rng.choice(VALUES) for key in keys})


def passing_quad_doc(shape, rng, n: int) -> dict:
    """Passes the cyclic coefficient condition by construction: upper index n
    never occurs as a lower index, so every product in the condition vanishes."""
    alpha: dict = {}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            if shape.random() < 0.7 or not alpha:
                alpha[(i, j, n, n)] = rng.choice(VALUES)
    return quad_doc(n, alpha)


def potential_shape_quad_doc(rng) -> dict:
    """A multiple of the cubic-potential tensor of the acceptance sample."""
    q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    return quad_doc(3, {(1, 2, 2, 1): -q, (2, 3, 3, 2): -q, (1, 3, 1, 3): q})


def lie_doc(n: int, c: dict) -> dict:
    return {"lie": {"n": n, "c": [{"i": i, "j": j, "k": k, "value": str(v)}
                                  for (i, j, k), v in sorted(c.items()) if v]}}


def random_lie_doc(shape, rng, n: int, entries: int) -> dict:
    keys: set = set()
    while len(keys) < entries:
        i = shape.randint(1, n - 1)
        j = shape.randint(i + 1, n)
        keys.add((i, j, shape.randint(1, n)))
    return lie_doc(n, {key: rng.choice(VALUES) for key in sorted(keys)})


def jacobi_lie_doc(rng, kind: int) -> dict:
    """Lie algebras that satisfy Jacobi: PBW at every h, dims C(n+k-1, k)."""
    t = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    if kind == 0:   # scaled sl2
        return lie_doc(3, {(1, 2, 3): t, (1, 3, 1): -2 * t, (2, 3, 2): 2 * t})
    if kind == 1:   # x3 acting on the abelian ideal span(x1, x2) by a 2x2 matrix
        m = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(4)]
        return lie_doc(3, {(1, 3, 1): m[0], (1, 3, 2): m[1], (2, 3, 1): m[2], (2, 3, 2): m[3]})
    if kind == 2:   # any bracket on two generators
        return lie_doc(2, {(1, 2, 1): t, (1, 2, 2): rng.choice(VALUES)})
    return lie_doc(3, {(1, 2, 3): t})   # scaled Heisenberg


def potential_doc(terms: dict) -> dict:
    """terms: cyclic word -> h-polynomial tuple."""
    return {"potential": {"n": 3, "terms": [
        {"cycle": list(w), "coeff": coeff_json(c)} for w, c in sorted(terms.items()) if c]}}


def random_potential_doc(shape, rng, max_terms: int) -> dict:
    """Distinct cyclic words with coefficients c * h^1 or c * h^2."""
    lowest: dict = {}
    for _ in range(shape.randint(1, max_terms)):
        lowest.setdefault(random_word(shape, 3, 3), shape.randint(1, 2))
    return potential_doc({w: hp(*([0] * low + [rng.choice(VALUES)]))
                          for w, low in lowest.items()})


# Cubic potentials h * (a xyz + b xzy + c x_i x_i x_j).  The position of the
# extra term sets the cost of generic completion, from a few milliseconds
# (1,1,2) to a second (3,3,2), and the coefficients move it by a factor of
# four, so the seed draws only the cheap shapes; the dear ones are frozen,
# with fixed coefficients, in corpus/hrat.json.
GENERIC_SHAPES = [None, None, None, (1, 1, 2), (1, 1, 3), (2, 2, 1)]


def shaped_potential_doc(rng, shape) -> dict:
    terms = {(1, 2, 3): hp(0, rng.choice(VALUES)), (1, 3, 2): hp(0, rng.choice(VALUES))}
    if shape is not None:
        terms[shape] = hp(0, rng.choice(VALUES))
    return potential_doc(terms)


def nonvanishing_at(doc: dict, a: Fraction) -> bool:
    """False when some relation vanishes at h = a, which the oracle refuses."""
    n, phi = phi_of(doc)
    return all(relations(n, phi, a))


def binomials(n: int, K: int) -> list:
    return [comb(n + k - 1, k) for k in range(K + 1)]


# -- corpus -----------------------------------------------------------------------

def corpus_doc(name: str):
    with open(CORPUS / name, encoding="utf-8") as fh:
        return json.load(fh)


def cli_entries(workload: str) -> list:
    return corpus_doc("cli_expected.json")[workload]


# -- questions ----------------------------------------------------------------------

def run_cli(pbw, argv: list) -> tuple:
    """One in-process CLI invocation: (exit code, report text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pbw.cli.main(list(argv))
    return code, out.getvalue()


def cli_questions(workload: str, pbw) -> List[Question]:
    return [Question(f"cli:{e['name']}",
                     call=lambda argv=e["argv"]: run_cli(pbw, argv),
                     expect=lambda e=e: (e["exit"], e["stdout"]))
            for e in cli_entries(workload)]


def hilbert_question(label: str, pbw, pres, K: int, a, expect) -> Question:
    if a is None:
        def call():
            return pbw.rewriting.hilbert(pres, K, generic=True)
    else:
        def call():
            return pbw.rewriting.hilbert(pres, K, a=a)
    return Question(f"hilbert:{label}:K{K}", call, expect, answer=lambda rep: rep.dims)


def member_batch(label: str, pbw, pres, a, degree: int, queries: list) -> List[Question]:
    """One write (orient and complete the rules) followed by reads against them.

    a is None for the generic mode.  queries: (parsed polynomial, expected
    answer as a zero-argument callable) pairs.
    """
    slot: dict = {}

    def write():
        system = pbw.rewriting.build_rules(pres, "generic" if a is None else "at", a)
        slot["system"] = system.complete(degree)
        return system.complete_through

    out = [Question(f"{label}:complete{degree}", write, lambda: degree - 1)]
    for k, (poly, expect) in enumerate(queries):
        out.append(Question(f"{label}:member{k}",
                            lambda poly=poly: pbw.rewriting.member(slot["system"], poly),
                            expect))
    return out


def batch_docs(plan: Plan, rng, tag: int, explicit: dict, a, degree: int,
               linear: bool, size: int) -> list:
    """Seeded member queries against one presentation, added to the plan's
    documents; returns, per query, whether it is in the ideal by construction.

    A non-member adds a nonzero constant, and with `linear` also a nonzero
    linear form, to an ideal element.  Such a query is outside the ideal
    when the reference dimensions start (1, n) (F1 then meets the ideal
    trivially), or, for a constant alone, when dim F0 = 1.
    """
    n, phi = phi_of(explicit)
    shape = random.Random(f"{plan.name}:batch{tag}")
    queries = make_queries(shape, rng, n, relations(n, phi, a), degree - 1,
                           size - size // 2, size // 2, linear)
    for q, (doc, _) in enumerate(queries):
        plan.docs[f"poly{tag}.{q}"] = ("poly", doc)
    return [member for _, member in queries]


def obstruction_or_none(pbw, pres, d2: str):
    try:
        return pbw.certificates.obstruction(pres, d2)
    except pbw.errors.NoObstruction:
        return None


# -- workloads ------------------------------------------------------------------------
#
# A round has a fixed number of questions (106 in certify_batch, 208 in
# oracle), so the tail percentile and the rank it lands on do not depend on
# how many rounds a run makes; the questions ranked around it are frozen
# fixtures or tensors that pass by construction.  Member reads are the most
# numerous questions of an oracle round and hold its median.

def generate(name: str, seed: int) -> Plan:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    make = {"certify_batch": _certify_batch, "oracle": _oracle}[name]
    return make(Plan(name, seed), rng)


def shape_of(plan: Plan):
    """The structure generator of a workload: the same for every seed."""
    return random.Random(f"{plan.name}:shape")


def _oracle(plan: Plan, rng) -> Plan:
    """The rewriting oracle over Q at h = a and over Q(h) and Q[h], one round
    each of the two question sets below; their documents are kept apart by a
    prefix."""
    parts = [("at/", _oracle_at(Plan("oracle_at", plan.seed), rng)),
             ("generic/", _oracle_generic(Plan("oracle_generic", plan.seed), rng))]
    for prefix, part in parts:
        plan.docs.update({prefix + name: doc for name, doc in part.docs.items()})

    def build(parsed, pbw):
        qs: List[Question] = []
        for prefix, part in parts:
            view = {name[len(prefix):]: obj for name, obj in parsed.items()
                    if name.startswith(prefix)}
            qs += part.build(view, pbw)
        return qs

    plan.build = build
    return plan


def _certify_batch(plan: Plan, rng) -> Plan:
    docs = plan.docs
    shape = shape_of(plan)
    quads, lies = [], []
    # The tensor conditions return at the first nonzero tuple, so a failing
    # n = 4 tensor costs anywhere from 10 to 450 ms.  The n = 4 tensors, and
    # half of the n = 3 ones, pass by construction and run the full n^6
    # loops, whose cost does not depend on the seed; they are the dearest
    # questions of a round, the tail among them.
    for k in range(12):
        n = 3 if k < 8 else 4
        if k in (4, 5, 6, 8, 9, 10, 11):
            doc = passing_quad_doc(shape, rng, n)
        elif k == 7:
            doc = potential_shape_quad_doc(rng)
        else:
            doc = random_quad_doc(rng, n, quad_keys(shape, n, shape.randint(3, 5)))
        docs[f"quad{k}"] = ("pres", doc)
        docs[f"quad{k}.data"] = ("quad", doc)
        quads.append(f"quad{k}")
    for k in range(22):
        # n and the number of entries follow the index, so the mix of sizes,
        # which sets the cost, does not depend on the seed
        doc = random_lie_doc(shape, rng, 3 + k % 2, 1 + (k // 2) % 4)
        docs[f"lie{k}"] = ("pres", doc)
        docs[f"lie{k}.data"] = ("lie", doc)
        lies.append(f"lie{k}")
    for k in range(8):
        docs[f"pot{k}"] = ("pres", random_potential_doc(shape, rng, 4))
    for name, kind in (("sl2", "lie"), ("heisenberg", "lie"), ("non_jacobi", "lie"),
                       ("quantum3", "quad"), ("poisson_not_special", "quad")):
        doc = corpus_doc(f"{name}.json")
        docs[name] = ("pres", doc)
        docs[f"{name}.data"] = (kind, doc)
        (lies if kind == "lie" else quads).append(name)

    def build(parsed, pbw):
        cert, ref = pbw.certificates, reference.Refs(pbw)
        qs: List[Question] = []
        for name in quads:
            pres, data, doc = parsed[name], parsed[f"{name}.data"], docs[name][1]
            qs.append(Question(f"certify-quadratic:{name}",
                               lambda pres=pres: cert.certify(pres, "quadratic"),
                               lambda data=data: ref.quadratic_certificate(data),
                               answer=reference.certificate_answer))
            qs.append(Question(f"condition:{name}",
                               lambda data=data: cert.check_quadratic_condition(data),
                               lambda data=data: ref.quadratic_certificate(data)[0] == "pass",
                               answer=lambda r: r.passed))
            qs.append(Question(f"poisson:{name}",
                               lambda data=data: cert.check_poisson(data),
                               lambda doc=doc: reference.poisson_holds(doc),
                               answer=lambda r: r.passed))
        for name in lies:
            pres, data = parsed[name], parsed[f"{name}.data"]
            qs.append(Question(f"certify-lie:{name}",
                               lambda pres=pres: cert.certify(pres, "lie"),
                               lambda data=data: "fail" if ref.lie_obstruction(data) else "pass",
                               answer=lambda r: r.verdict))
            qs.append(Question(f"obstruction-lie:{name}",
                               lambda pres=pres: obstruction_or_none(pbw, pres, "lie"),
                               lambda data=data: ref.lie_obstruction(data),
                               answer=reference.obstruction_answer))
        for k in range(8):
            # potential-induced presentations pass the default certificate (criterion 06)
            qs.append(Question(f"certify-default:pot{k}",
                               lambda pres=parsed[f"pot{k}"]: cert.certify(pres, "default"),
                               lambda: "pass", answer=lambda r: r.verdict))
        return qs + cli_questions(plan.name, pbw)

    plan.build = build
    return plan


def _oracle_at(plan: Plan, rng) -> Plan:
    docs = plan.docs
    shape = shape_of(plan)
    seeded = []
    for k in range(16):
        keys = quad_keys(shape, 3, shape.randint(1, 4)) if k < 12 else None
        while True:
            a = rng.choice(POINTS)
            if k < 12:
                doc, K = random_quad_doc(rng, 3, keys), 3
            else:
                doc, K = jacobi_lie_doc(rng, k - 12), 4
            if nonvanishing_at(doc, a):
                break
        docs[f"at{k}"] = ("pres", doc)
        seeded.append((f"at{k}", a, K, k < 12))
    for name in ("sl2", "heisenberg", "quantum3", "strange", "cascading"):
        docs[name] = ("pres", corpus_doc(f"{name}.json"))
    mixed = corpus_doc("mixed.json")
    for fixture in mixed:
        docs[fixture["name"]] = ("pres", fixture["presentation"])
    docs["T"] = ("poly", {"n": 3, "terms": corpus_doc("T.json")})
    # member batches against completed fixture systems:
    # (presentation, point, completion degree, explicit form, linear non-members)
    # (presentation, point, completion degree, explicit form, linear non-members,
    # queries).  The sl2 batch holds the median of a round: cheaper strange
    # queries rank below it, everything else above.
    batch_specs = [("strange", Fraction(1), 5, corpus_doc("strange_explicit.json"), True, 20),
                   ("sl2", Fraction(1, 2), 6, docs["sl2"][1], True, 36),
                   ("cascading", CASCADING_AT[0], 4, docs["cascading"][1], False, 6)]
    batches = [(name, a, degree, batch_docs(plan, rng, tag, explicit, a, degree, linear, size))
               for tag, (name, a, degree, explicit, linear, size) in enumerate(batch_specs)]

    def build(parsed, pbw):
        ref = reference.Refs(pbw)
        qs: List[Question] = cli_questions(plan.name, pbw)
        # Lie algebras satisfying Jacobi, and the quantum space away from
        # 1 - a*q_ij = 0, are PBW: the symmetric dimensions
        for name, a in (("sl2", Fraction(1, 2)), ("heisenberg", Fraction(2)),
                        ("quantum3", Fraction(1, 5))):
            qs.append(hilbert_question(f"{name}@{a}", pbw, parsed[name], 5, a,
                                       lambda: binomials(3, 5)))
        strange = parsed["strange"]
        qs.append(hilbert_question("strange@1", pbw, strange, 6, Fraction(1),
                                   lambda: ref.span_dims(strange, Fraction(1), 6)))
        for a in CASCADING_AT:
            qs.append(hilbert_question(f"cascading@{a}", pbw, parsed["cascading"], 3, a,
                                       lambda: reference.CASCADING_DIMS))
        for fixture in mixed:
            # criterion-10 mixed presentations; dims frozen from the span oracle
            qs.append(hilbert_question(f"{fixture['name']}@{fixture['at']}", pbw,
                                       parsed[fixture["name"]], fixture["degree"],
                                       Fraction(fixture["at"]), lambda f=fixture: f["dims"]))
        for name, a, K, homogeneous in seeded:
            pres = parsed[name]
            if homogeneous:
                expect = lambda pres=pres, a=a, K=K: ref.span_dims(pres, a, K)  # noqa: E731
            else:
                expect = lambda n=pres.n, K=K: binomials(n, K)  # noqa: E731
            qs.append(hilbert_question(f"{name}@{a}", pbw, pres, K, a, expect))
        for tag, (name, a, degree, members) in enumerate(batches):
            pres = parsed[name]
            # the PBW fixtures start (1, 3); the cascading one starts (1, 1)
            # and gets constant non-members only
            queries = [(parsed[f"poly{tag}.{q}"], lambda member=member: member)
                       for q, member in enumerate(members)]
            if name == "strange":
                # T = -zyx + xzy has a nonzero normal form at h = 1: the torsion witness
                queries.append((parsed["T"], lambda: False))
            qs.extend(member_batch(f"batch:{name}@{a}", pbw, pres, a, degree, queries))
        return qs

    plan.build = build
    return plan


TORSION_PROBES = [
    # (label, presentation, element file, factor, degree, expected status, why)
    ("witness-d5", "strange", "T.json", "1-h", 5, "witness",
     "(1-h)T lies in the ideal over Q[h] while T is nonzero at h=1 (the paper's witness)"),
    ("witness-d6", "strange", "T.json", "1-h", 6, "witness", "the same witness at degree 6"),
    ("unknown-h", "strange", "T.json", "h", 5, "unknown",
     "hT is not in the ideal over Q[h] (else T = (1-h)T + hT would be), but it is "
     "over Q(h): neither a witness nor refutable"),
    ("refuted-const", "strange", "T.json", "2", 5, "refuted",
     "a constant factor cannot witness torsion once T is separated at h=1"),
    ("refuted-sl2", "sl2", "x1.json", "1-h", 5, "refuted",
     "x1 is nonzero over Q(h) in U(sl2); Lie algebras have no h-torsion"),
]


def _oracle_generic(plan: Plan, rng) -> Plan:
    docs = plan.docs
    for k, shape in enumerate(GENERIC_SHAPES):
        docs[f"gen{k}"] = ("pres", shaped_potential_doc(rng, shape))
    for name in ("sl2", "heisenberg", "quantum3", "strange"):
        docs[name] = ("pres", corpus_doc(f"{name}.json"))
    hrat = [entry["name"] for entry in corpus_doc("hrat.json")]
    for entry in corpus_doc("hrat.json"):
        docs[entry["name"]] = ("pres", {"potential": entry["potential"]})
    for file in ("T.json", "x1.json"):
        docs[file] = ("poly", {"n": 3, "terms": corpus_doc(file)})
    for factor in sorted({probe[3] for probe in TORSION_PROBES}):
        docs[f"factor:{factor}"] = ("factor", factor)
    batch_specs = [("strange", 5, corpus_doc("strange_explicit.json")),
                   ("sl2", 4, docs["sl2"][1]),
                   ("heisenberg", 4, docs["heisenberg"][1]),
                   ("quantum3", 4, docs["quantum3"][1])]
    batches = [(name, degree, batch_docs(plan, rng, tag, explicit, None, degree, True, 19))
               for tag, (name, degree, explicit) in enumerate(batch_specs)]

    def build(parsed, pbw):
        ref = reference.Refs(pbw)
        qs: List[Question] = []
        for k in range(len(GENERIC_SHAPES)):
            pres = parsed[f"gen{k}"]
            qs.append(hilbert_question(f"gen{k}", pbw, pres, 4, None,
                                       lambda pres=pres: ref.generic_span_dims(pres, 4)))
        for name in ("sl2", "heisenberg", "quantum3"):
            # PBW over Q(h): Lie algebras, and the quantum space for generic h
            qs.append(hilbert_question(name, pbw, parsed[name], 5, None, lambda: binomials(3, 5)))
        for name in ["strange"] + hrat:
            pres = parsed[name]
            qs.append(hilbert_question(name, pbw, pres, 4, None,
                                       lambda pres=pres: ref.generic_span_dims(pres, 4)))
        for tag, (name, degree, members) in enumerate(batches):
            # homogeneous or Lie relations: dim F0 = 1 and F1 meets the ideal trivially
            queries = [(parsed[f"poly{tag}.{q}"], lambda member=member: member)
                       for q, member in enumerate(members)]
            if name == "strange":
                # T is in the ideal over Q(h): (1-h)T is, and 1-h is invertible
                queries.append((parsed["T.json"], lambda: True))
            qs.extend(member_batch(f"batch:{name}@generic", pbw, parsed[name], None,
                                   degree, queries))
        for label, name, element, factor, degree, status, _why in TORSION_PROBES:
            args = (parsed[name], parsed[element], parsed[f"factor:{factor}"], degree)
            qs.append(Question(f"torsion:{label}",
                               lambda args=args: pbw.rewriting.torsion_check(*args),
                               lambda status=status: status, answer=lambda o: o.status))
        return qs + cli_questions(plan.name, pbw)

    plan.build = build
    return plan

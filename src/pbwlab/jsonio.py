"""JSON encodings for all value types, plus the tiny h-polynomial string syntax.

Rationals serialize as decimal strings "p/q" or "p"; h-polynomials as
coefficient arrays lowest power first.  Parsers are tolerant (integers and
singleton arrays are accepted where a rational string is expected); emitters
always produce the canonical flat form with deterministically sorted terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Tuple

from .certificates import CertificateReport, ObstructionReport
from .cyclic import CyclicWord, Potential, potential_to_presentation
from .errors import InputError
from .freealg import NCPoly, add_terms
from .koszul import KoszulPoly, Triple, kterm, xi3
from .presentations import (LieData, Presentation, QuadData, ValidationReport, from_lie,
                            from_quadratic)
from .rewriting import HilbertReport, TorsionOutcome
from .scalars import HPoly, format_rational


# -- rationals and h-polynomials ----------------------------------------------

def rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational string {value!r}") from exc
    if isinstance(value, list) and len(value) == 1:
        return rational_from_json(value[0])
    raise InputError(f"not a rational: {value!r}")


def hpoly_from_json(value) -> HPoly:
    if isinstance(value, (int, str)):
        value = [value]
    if not isinstance(value, list):
        raise InputError(f"not an h-polynomial: {value!r}")
    return HPoly([rational_from_json(entry) for entry in value])


def hpoly_to_json(p: HPoly) -> List[str]:
    return [format_rational(c) for c in p.coeffs]


# one signed term: [+-] [p[/q][*]] [h[^e]], with spaces allowed between symbols
_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)(?:\s*/\s*(\d+))?(?:\s*\*)?)?"
                   r"(?:\s*(h)(?:\s*\^\s*(\d+))?)?")
MAX_H_EXPONENT = 1000


def parse_hpoly_string(text: str) -> HPoly:
    """Parse strings like "1-h", "2 + 3*h^2", "-1/2h" into an HPoly.

    Each term needs a number or an h, every term after the first a sign, and
    no exponent may exceed MAX_H_EXPONENT (checked before any allocation).
    """
    total, pos = HPoly.zero(), 0
    while not pos or pos < len(text):  # at least one term
        m = _TERM.match(text, pos)
        sign, num, den, h, exp = m.groups()
        if not (num or h) or (pos and not sign):
            raise InputError(f"bad scalar string {text!r} at position {pos}")
        try:
            coeff = Fraction(int(sign + (num or "1")), int(den or 1))
            power = int(exp) if exp else 1 if h else 0
        except ZeroDivisionError as exc:
            raise InputError(f"zero denominator in {text!r}") from exc
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"number too long in {text!r}") from exc
        if power > MAX_H_EXPONENT:
            raise InputError(f"exponent {power} above {MAX_H_EXPONENT} in {text!r}")
        total, pos = total + HPoly([0] * power + [coeff]), m.end()
    return total


# -- noncommutative polynomials ------------------------------------------------

def ncpoly_from_json(value, n: int) -> NCPoly:
    if not isinstance(value, list):
        raise InputError("an NCPoly must be a list of terms")

    def terms():
        for item in value:
            if not isinstance(item, dict) or "word" not in item or "coeff" not in item:
                raise InputError(f"bad NCPoly term: {item!r}")
            word = item["word"]
            if not (isinstance(word, list) and all(type(x) is int and 1 <= x <= n for x in word)):
                raise InputError(f"bad word {word!r}: needs letters in 1..{n}")
            yield tuple(word), hpoly_from_json(item["coeff"])

    return NCPoly.adopt(n, add_terms({}, terms()))


def ncpoly_to_json(p: NCPoly) -> List[dict]:
    p = p.with_hpoly_coeffs()
    return [{"word": list(w), "coeff": hpoly_to_json(c)} for w, c in p.sorted_terms()]


# -- potentials -----------------------------------------------------------------

def potential_from_json(doc, n: int | None = None) -> Potential:
    if isinstance(doc, dict):
        n = doc.get("n", n)
        terms = doc.get("terms", [])
    else:
        terms = doc
    terms = _entries(terms, "potential terms")
    if n is None:
        raise InputError("potential document needs a generator count n")
    n = _generator_count(n)

    def cycles():
        for item in terms:
            if not isinstance(item, dict) or "cycle" not in item or "coeff" not in item:
                raise InputError(f"bad potential term: {item!r}")
            cycle = item["cycle"]
            if not (isinstance(cycle, list) and all(type(x) is int for x in cycle)):
                raise InputError(f"bad cycle {cycle!r}: needs letters in 1..{n}")
            yield CyclicWord(n, tuple(cycle)), hpoly_from_json(item["coeff"])

    return Potential.adopt(n, add_terms({}, cycles()))


def potential_to_json(pot: Potential) -> dict:
    return {"n": pot.n,
            "terms": [{"cycle": list(cw.letters), "coeff": hpoly_to_json(c)}
                      for cw, c in pot.sorted_terms()]}


# -- presentations ----------------------------------------------------------------

def presentation_from_json(doc) -> Presentation:
    if not isinstance(doc, dict):
        raise InputError("presentation document must be an object")
    if "lie" in doc:
        return from_lie(lie_data_from_json(doc["lie"]))
    if "quadratic" in doc:
        return from_quadratic(quad_data_from_json(doc["quadratic"]))
    if "potential" in doc:
        return potential_to_presentation(potential_from_json(doc["potential"]))
    if "n" not in doc or "phi" not in doc:
        raise InputError("presentation document needs fields n and phi "
                         "(or a lie/quadratic/potential wrapper)")
    n = _generator_count(doc["n"])
    phi: Dict[Tuple[int, int], NCPoly] = {}
    for entry in _entries(doc["phi"], "phi"):
        if not isinstance(entry, dict) or not {"i", "j", "terms"} <= set(entry):
            raise InputError(f"bad phi entry: {entry!r}")
        i, j = _indices([entry["i"], entry["j"]], 2, n, "phi indices")
        poly = ncpoly_from_json(entry["terms"], n)
        if i == j:
            raise InputError(f"phi_{i}{i} must be zero and is not stored")
        if i > j:
            i, j, poly = j, i, -poly
        phi[(i, j)] = phi.get((i, j), NCPoly.zero(n)) + poly
    return Presentation(n, phi)


def _entries(value, what: str) -> list:
    """value, which must be a JSON array."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, not {value!r}")
    return value


def _indices(value, count: int, n: int, what: str) -> Tuple[int, ...]:
    """value as a tuple of count generator indices in 1..n (a bool is not an index)."""
    if not (isinstance(value, list) and len(value) == count
            and all(type(i) is int and 1 <= i <= n for i in value)):
        raise InputError(f"bad {what} {value!r}: needs {count} indices in 1..{n}")
    return tuple(value)


def _entry(entry, keys: Tuple[str, ...], n: int, what: str):
    """Indices named by keys, and the rational "value", of one constructor entry."""
    try:
        indices, value = [entry[key] for key in keys], entry["value"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad {what} entry {entry!r}: needs fields {', '.join(keys)}, value") from exc
    return _indices(indices, len(keys), n, f"{what} indices"), rational_from_json(value)


def _generator_count(n) -> int:
    """n as a generator count, a positive integer (a bool is not one)."""
    if type(n) is not int or n < 1:
        raise InputError(f"bad generator count {n!r}")
    return n


def lie_data_from_json(doc) -> LieData:
    n = _generator_count(doc.get("n") if isinstance(doc, dict) else None)
    c: Dict[Tuple[int, int, int], Fraction] = {}
    for entry in _entries(doc.get("c", []), "structure constants c"):
        (i, j, k), value = _entry(entry, ("i", "j", "k"), n, "structure constant")
        if i == j:
            raise InputError(f"c_{i}{i}^{k} is zero by antisymmetry and is not stored")
        if i > j:
            i, j, value = j, i, -value
        c[(i, j, k)] = c.get((i, j, k), Fraction(0)) + value
    return LieData(n, {key: v for key, v in c.items() if v})


def quad_data_from_json(doc) -> QuadData:
    n = _generator_count(doc.get("n") if isinstance(doc, dict) else None)
    alpha: Dict[Tuple[int, int, int, int], Fraction] = {}
    for entry in _entries(doc.get("alpha", []), "quadratic tensor alpha"):
        (i, j, a, b), value = _entry(entry, ("i", "j", "a", "b"), n, "quadratic tensor")
        if i == j:
            raise InputError(f"alpha_{i}{i} is zero by antisymmetry and is not stored")
        if i > j:
            i, j, value = j, i, -value
        key = (i, j, a, b)
        alpha[key] = alpha.get(key, Fraction(0)) + value
    return QuadData(n, {key: v for key, v in alpha.items() if v})


def presentation_to_json(p: Presentation) -> dict:
    return {"n": p.n, "scalar": "hpoly",
            "phi": [{"i": i, "j": j, "terms": ncpoly_to_json(p.phi[(i, j)])}
                    for (i, j) in sorted(p.phi)]}


# -- custom differentials -----------------------------------------------------------

def custom_d2_from_json(doc, n: int) -> Dict[Triple, KoszulPoly]:
    """d2 keyed by i < j < k: an unordered triple's value enters with xi3's permutation
    sign, and the values given for one triple are added."""
    if not isinstance(doc, list):
        raise InputError("a custom differential is a list of {triple, value} entries")
    out: Dict[Triple, KoszulPoly] = {}
    for entry in doc:
        if not isinstance(entry, dict) or "triple" not in entry \
                or not isinstance(entry.get("value"), list):
            raise InputError(f"bad custom differential entry {entry!r}: needs fields triple, value")
        sign, xi = xi3(*_indices(entry["triple"], 3, n, "triple"))
        if not sign:
            raise InputError(f"triple {entry['triple']!r} repeats an index; "
                             "xi_ijk is zero by antisymmetry and is not stored")
        value = KoszulPoly.zero(n)
        for term in entry["value"]:
            if not isinstance(term, dict) or not isinstance(term.get("word"), list) \
                    or "coeff" not in term:
                raise InputError(f"bad custom differential term {term!r}: needs fields word, coeff")
            symbols = []
            for sym in term["word"]:
                if isinstance(sym, dict) and "x" in sym:
                    symbols.append(("x", *_indices([sym["x"]], 1, n, "x index")))
                elif isinstance(sym, dict) and "xi2" in sym:
                    i, j = _indices(sym["xi2"], 2, n, "xi2 indices")
                    if i == j:
                        raise InputError(f"xi2 indices {sym['xi2']!r} repeat an index; "
                                         f"xi_{i}{i} is zero by antisymmetry and is not stored")
                    symbols.append(("xi2", i, j))
                else:
                    raise InputError(f"bad symbol {sym!r}")
            value = value + kterm(n, symbols, hpoly_from_json(term["coeff"]))
        tri = xi[1:]
        out[tri] = out.get(tri, KoszulPoly.zero(n)) + (value if sign > 0 else -value)
    return out


# -- reports --------------------------------------------------------------------

def validation_report_to_json(r: ValidationReport) -> dict:
    return {
        "valid": r.valid,
        "filtration_ok": r.filtration_ok,
        "paths": r.paths,
        "problems": r.problems,
        "pairs": [{"i": c.pair[0], "j": c.pair[1],
                   "hbar_divisible": c.hbar_divisible, "deg_x": c.deg_x}
                  for c in r.pair_checks],
    }


def certificate_report_to_json(r: CertificateReport) -> dict:
    return {
        "verdict": r.verdict,
        "path": r.path,
        "claims": r.claims,
        "residues": [{"triple": list(tri), "value": ncpoly_to_json(poly)}
                     for tri, poly in sorted(r.residues.items())],
    }


def obstruction_report_to_json(r: ObstructionReport) -> dict:
    return {
        "hbar_order": r.hbar_order,
        "generators": [{"triple": list(tri), "generator": ncpoly_to_json(gen)}
                       for tri, gen in r.generators],
    }


def hilbert_report_to_json(r: HilbertReport) -> dict:
    return {
        "n": r.n,
        "max_degree": r.max_degree,
        "mode": r.mode if r.mode == "generic" else f"at {format_rational(r.a)}",
        "dims": r.dims,
        "expected": r.expected,
        "verdicts": r.verdicts,
        "defects": r.defects,
        "complete_through": r.complete_through,
        "excluded_specializations_observed": r.excluded,
        "all_match": r.all_match,
    }


def torsion_outcome_to_json(r: TorsionOutcome) -> dict:
    return {
        "status": r.status,
        "detail": r.detail,
        "element": ncpoly_to_json(r.element),
        "factor": hpoly_to_json(r.factor),
        "degree_bound": r.degree_bound,
        "h_degree_bound": r.h_degree_bound,
        "refuting_specialization":
            None if r.refuting_specialization is None
            else format_rational(r.refuting_specialization),
    }

"""Span tracing installed from outside the program.

Wrappers go where each name is looked up, not only where it is defined: a
function imported by name into another module (`pbwlab.cli` binds `hilbert`,
`member`, `torsion_check` and `certify`; `HRat.__init__` resolves `hpoly_gcd`
through the `pbwlab.scalars` globals) is replaced in every loaded `pbwlab`
module that holds it, and `RewriteSystem` methods are replaced on the class.
`uninstall` puts every original back.

Self time of a span is its duration minus the time its child spans cover.
The program is single-threaded with no queues, so spans nest strictly and
no layer ever waits for another: waiting time is zero by construction.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module -> public functions wrapped in it
FUNCTIONS = {
    "scalars": ["hpoly_gcd", "rational_roots"],
    "freealg": ["nc_mul", "specialize", "commutator", "hbar_coefficient"],
    "cyclic": ["cyclic_derivative", "potential_to_presentation"],
    "presentations": ["validate", "from_lie", "from_quadratic", "lie_data_of", "quad_data_of"],
    "koszul": ["apply_d", "d1_from_presentation", "d2_default", "d2_lie", "d2_quadratic"],
    "certificates": ["build_differential", "certify", "obstruction", "jacobiator",
                     "check_quadratic_condition", "check_poisson"],
    "rewriting": ["build_rules", "hilbert", "member", "module_membership", "torsion_check"],
    "jsonio": ["presentation_from_json", "ncpoly_from_json", "potential_from_json",
               "lie_data_from_json", "quad_data_from_json", "custom_d2_from_json",
               "parse_hpoly_string",
               "presentation_to_json", "ncpoly_to_json", "potential_to_json",
               "validation_report_to_json", "certificate_report_to_json",
               "obstruction_report_to_json", "hilbert_report_to_json",
               "torsion_outcome_to_json"],
    "cli": ["main"],
}
# module -> class -> methods wrapped on the class
METHODS = {
    "rewriting": {"RewriteSystem": ["complete", "reduce_dict", "reduce", "normal_word_counts"]},
}
MODULES = list(FUNCTIONS)


def group_of(name: str) -> str:
    """Metric name a span is aggregated under; jsonio splits into parse and emit."""
    module, func = name.split(".", 1)
    if module == "jsonio":
        return "jsonio.emit" if func.endswith("_to_json") else "jsonio.parse"
    return name


def degree_bucket(degree: int) -> str:
    """Bucket of a `complete` span's degree argument in the per-layer metrics."""
    if degree <= 4:
        return "deg_le4"
    if degree >= 8:
        return "deg_ge8"
    return f"deg{degree}"


def coeff_bits(c) -> int:
    """Largest numerator or denominator bit size of a Fraction or an HRat."""
    if hasattr(c, "num"):
        return max(coeff_bits(q) for poly in (c.num, c.den) for q in poly.coeffs)
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Spans kept in memory, per-name call counts and self times, and the
    deterministic counters read from public state after wrapped calls."""

    def __init__(self, pbw):
        self.pbw = pbw
        self.spans: list = []      # (id, name, start, end, parent id, question, arg)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)   # and per-degree totals
        self.counters: Counter = Counter()
        self.question = None       # label of the question being answered
        self._stack: list = []     # open spans: [id, name, child time]
        self._next_id = 0
        self._patches: list = []   # (owner, attribute, original)

    def _wrap(self, name: str, fn, observe=None, arg_of=None):
        tracer = self
        clock = time.thread_time    # the CPU clock of run.py

        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                own = duration - frame[2]
                arg = arg_of(args, kwargs) if arg_of else None
                tracer.spans.append((span_id, name, start, end, parent, tracer.question, arg))
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                if arg is not None:   # inclusive time of each (resumed) degree
                    tracer.self_s[f"{name}.{degree_bucket(arg)}"] += duration
                if observe is not None:
                    observe(args, kwargs, result, exc)

        traced.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, name))
        return traced

    def _inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def _observers(self) -> dict:
        """Counters read from public state after the wrapped call returns."""
        errors = self.pbw.errors
        counters = self.counters

        def after_complete(args, kwargs, system, exc):
            if exc is not None:
                return
            counters["rewriting.rules"] += len(system.rules)
            counters["rewriting.excluded"] += len(system.excluded)
            bits = max((coeff_bits(c) for tail in system.rules.values()
                        for c in tail.values()), default=0)
            counters["rewriting.coeff_bits_max"] = max(counters["rewriting.coeff_bits_max"], bits)

        def after_hilbert(args, kwargs, report, exc):
            if exc is None:
                degree = args[1] if len(args) > 1 else kwargs["K"]
                counters["rewriting.depth_extra"] += report.complete_through - degree

        def after_build_rules(args, kwargs, system, exc):
            mode = args[1] if len(args) > 1 else kwargs.get("mode")
            if mode == "at" and self._inside("rewriting.torsion_check"):
                counters["rewriting.specializations_tried"] += 1
                if isinstance(exc, errors.BadSpecialization):
                    counters["rewriting.bad_specialization"] += 1

        def after_torsion(args, kwargs, outcome, exc):
            if exc is None and outcome.refuting_specialization is not None:
                counters["rewriting.specializations_useful"] += 1

        def after_normal_word_counts(args, kwargs, counts, exc):
            if exc is None:
                counters["rewriting.normal_words.total"] += sum(counts)

        return {"rewriting.complete": after_complete,
                "rewriting.hilbert": after_hilbert,
                "rewriting.build_rules": after_build_rules,
                "rewriting.torsion_check": after_torsion,
                "rewriting.normal_word_counts": after_normal_word_counts}

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        loaded = [mod for key, mod in sorted(sys.modules.items())
                  if mod is not None and (key == "pbwlab" or key.startswith("pbwlab."))]
        for module_name, funcs in FUNCTIONS.items():
            home = getattr(self.pbw, module_name)
            for func in funcs:
                original = getattr(home, func)
                name = f"{module_name}.{func}"
                wrapper = self._wrap(name, original, observers.get(name))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for module_name, classes in METHODS.items():
            home = getattr(self.pbw, module_name)
            for cls_name, methods in classes.items():
                cls = getattr(home, cls_name)
                for method in methods:
                    original = vars(cls)[method]
                    name = f"{module_name}.{method}"
                    arg_of = None
                    if method == "complete":
                        def arg_of(a, k):
                            return a[1] if len(a) > 1 else k["degree"]
                    wrapper = self._wrap(name, original, observers.get(name), arg_of)
                    self._patches.append((cls, method, original))
                    setattr(cls, method, wrapper)

    def uninstall(self) -> list:
        """Restore every original; returns the (owner, attribute, original) sites."""
        restored = list(self._patches)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return restored

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tquestion\targ\n")
            for span in sorted(self.spans):
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")

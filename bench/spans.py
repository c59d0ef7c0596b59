"""Spans and counts at quasicirc's module boundaries, for the traced run.

`Tracer.install` rebinds the names through which one library module calls
another (and the benchmark calls the library) to wrappers that record a span
(name, operation, start, end, parent) and counts.  Module functions are
rebound wherever a library module holds them, since `from .x import y`
copies the name into the importing module; methods are rebound on their
class.  `uninstall` restores every original.  The library source is not
touched, and wrappers record nothing while `active` is false, so the
benchmark's own checks stay out of the trace.

A span's self time is its duration minus the time its child spans cover and
minus the time the tracer spent counting the children's results.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute, rebind inside the defining module too).
# weighted_exponents is left alone inside `weights`, so that resonance_set
# keeps its enumeration as self time; bergman's calls to it are traced.
TARGETS = (
    ("poly.mul", "quasicirc.poly", "Polynomial.__mul__", True),
    ("poly.mul", "quasicirc.poly", "Polynomial.__rmul__", True),
    ("poly.substitute", "quasicirc.poly", "Polynomial.substitute", True),
    ("poly.compose", "quasicirc.poly", "PolyMap.compose", True),
    ("poly.parse", "quasicirc.poly", "parse_poly_map", True),
    ("poly.format", "quasicirc.poly", "format_poly_map", True),
    ("linalg.solve_exact", "quasicirc.linalg", "solve_exact", True),
    ("linalg.determinant", "quasicirc.linalg", "LinearMap.determinant", True),
    ("conjugation.conjugate", "quasicirc.conjugation", "conjugate", True),
    ("conjugation.solve_conjugacy", "quasicirc.conjugation", "solve_conjugacy", True),
    ("conjugation.check_theorem_instance", "quasicirc.conjugation", "check_theorem_instance", True),
    ("conjugation.find_violation", "quasicirc.conjugation", "find_violation", True),
    ("conjugation.quasi_resonance_estimate", "quasicirc.conjugation", "quasi_resonance_estimate", True),
    ("conjugation.random_linear_map", "quasicirc.conjugation", "random_linear_map", True),
    ("conjugation.random_block_diagonal_map", "quasicirc.conjugation", "random_block_diagonal_map", True),
    ("resonant.random_sigma", "quasicirc.resonant", "random_sigma", True),
    ("resonant.make_sigma", "quasicirc.resonant", "make_sigma", True),
    ("resonant.invert_sigma", "quasicirc.resonant", "invert_sigma", True),
    ("resonant.compose_sigma", "quasicirc.resonant", "compose_sigma", True),
    ("weights.resonance_set", "quasicirc.weights", "resonance_set", True),
    ("weights.resonance_profile", "quasicirc.weights", "resonance_profile", True),
    ("weights.weighted_exponents", "quasicirc.weights", "weighted_exponents", False),
    ("bergman.admissibility_pattern", "quasicirc.bergman", "admissibility_pattern", True),
    ("bergman.tensor_block_pattern", "quasicirc.bergman", "tensor_block_pattern", True),
    ("cli.run", "quasicirc.cli", "run", True),
)

#: per-layer metrics read from the spans and counts, with their units
LAYER_METRICS = (
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.mul.term_pairs", "count"),
    ("poly.substitute.calls", "count"),
    ("poly.substitute.self_s", "s"),
    ("poly.compose.calls", "count"),
    ("poly.compose.self_s", "s"),
    ("poly.parse.self_s", "s"),
    ("poly.format.self_s", "s"),
    ("poly.max_terms", "count"),
    ("poly.max_degree", "count"),
    ("poly.max_coeff_bits", "bits"),
    ("linalg.solve_exact.calls", "count"),
    ("linalg.solve_exact.self_s", "s"),
    ("linalg.system_rows", "count"),
    ("linalg.system_cols", "count"),
    ("linalg.rank", "count"),
    ("linalg.rank_per_row", "ratio"),
    ("linalg.determinant.calls", "count"),
    ("linalg.determinant.self_s", "s"),
    ("conjugation.conjugate.self_s", "s"),
    ("conjugation.solve_conjugacy.self_s", "s"),
    ("conjugation.solve_conjugacy.verify_s", "s"),
    ("conjugation.trials", "count"),
    ("resonant.random_sigma.self_s", "s"),
    ("resonant.make_sigma.calls", "count"),
    ("resonant.make_sigma.self_s", "s"),
    ("resonant.invert_sigma.self_s", "s"),
    ("resonant.compose_sigma.self_s", "s"),
    ("weights.resonance_set.calls", "count"),
    ("weights.resonance_set.self_s", "s"),
    ("weights.weighted_exponents.self_s", "s"),
    ("weights.exponents_enumerated", "count"),
    ("bergman.admissibility_pattern.self_s", "s"),
    ("bergman.tensor_block_pattern.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
)


def _resolve(owner, attribute: str):
    """(holder, name) for 'Class.method' or 'function' under a module."""
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _library_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "quasicirc" or name.startswith("quasicirc."))
    ]


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name index, op, start, end, parent span index or -1)
        self.stack = []
        self.hidden = defaultdict(float)  # span index -> counting time of its children
        self.counts = Counter()
        self.maxima = Counter()
        self.active = False
        self.op = -1
        self._undo = []
        self._wrappers = {}  # id(original) -> wrapper, reused across installs

    # installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {module.__name__: module for module in _library_modules()}
        for span, module_name, attribute, in_owner in TARGETS:
            owner = modules.get(module_name)
            if owner is None:  # a module the workload never imported
                continue
            holder, name = _resolve(owner, attribute)
            original = getattr(holder, name)
            if id(original) not in self._wrappers:
                self._wrappers[id(original)] = self._wrap(span, original)
            wrapper = self._wrappers[id(original)]
            if holder is not owner:  # a method: rebinding it on the class covers every caller
                self._rebind(holder, name, wrapper)
                continue
            for module in modules.values():
                if module is owner and not in_owner:
                    continue
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, bound, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    def _rebind(self, holder, name, wrapper) -> None:
        self._undo.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def _wrap(self, span: str, func):
        if span not in self.names:
            self.names.append(span)
        ident = self.names.index(span)
        observe = _OBSERVERS.get(span)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (ident, tracer.op, start, end, parent)
            if observe is not None:
                observe(tracer, args, result)
                if parent >= 0:
                    tracer.hidden[parent] += perf_counter() - end
            return result

        return wrapper

    # counting -------------------------------------------------------------

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def observe_poly(self, p) -> None:
        terms = p.terms
        if not terms:
            return
        maxima = self.maxima
        maxima["poly.max_terms"] = max(maxima["poly.max_terms"], len(terms))
        maxima["poly.max_degree"] = max(maxima["poly.max_degree"], max(map(sum, terms)))
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values())
        maxima["poly.max_coeff_bits"] = max(maxima["poly.max_coeff_bits"], bits)

    # results --------------------------------------------------------------

    def metrics(self) -> dict:
        """LAYER_METRICS as {name: (value, unit)}, from the recorded spans."""
        names = self.names
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        verify_s, trials = 0.0, 0
        for index, (ident, _, start, end, parent) in enumerate(self.spans):
            name = names[ident]
            calls[name] += 1
            self_s[name] += end - start - covered[index] - self.hidden.get(index, 0.0)
            above = names[self.spans[parent][0]] if parent >= 0 else None
            if name == "poly.compose" and above == "conjugation.solve_conjugacy":
                verify_s += end - start
            if name == "resonant.random_sigma" and above in (
                "conjugation.find_violation", "conjugation.quasi_resonance_estimate"
            ):
                trials += 1
        values = dict(self.counts)
        values.update(self.maxima)
        values["conjugation.solve_conjugacy.verify_s"] = verify_s
        values["conjugation.trials"] = trials
        rows = self.counts["linalg.solved_rows"]
        values["linalg.rank_per_row"] = self.counts["linalg.rank"] / rows if rows else 0.0
        for name, unit in LAYER_METRICS:
            span, _, field = name.rpartition(".")
            if field == "calls":
                values.setdefault(name, calls[span])
            elif field == "self_s":
                values.setdefault(name, self_s[span])
        return {name: (values.get(name, 0), unit) for name, unit in LAYER_METRICS}

    def dump(self, path) -> None:
        """Write the spans as JSON: times in microseconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            [ident, op, round((start - origin) * 1e6), round((end - origin) * 1e6), parent]
            for ident, op, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "columns": ["name", "op", "start_us", "end_us", "parent"],
                       "spans": rows}, handle, separators=(",", ":"))


# observers: counts taken from a call's arguments and result ---------------


def _mul(tracer, args, result):
    left, right = args
    other = len(right.terms) if isinstance(right, type(left)) else 1
    tracer.count("poly.mul.term_pairs", len(left.terms) * other)
    tracer.observe_poly(result)


def _substitute(tracer, args, result):
    tracer.observe_poly(result)


def _compose(tracer, args, result):
    for p in result.components:
        tracer.observe_poly(p)


def _solve_exact(tracer, args, result):
    rows, _, n_cols = args
    tracer.count("linalg.system_rows", len(rows))
    tracer.count("linalg.system_cols", n_cols)
    if result is not None:
        tracer.count("linalg.rank", n_cols - result[1])
        tracer.count("linalg.solved_rows", len(rows))


def _exponents(tracer, args, result):
    tracer.count("weights.exponents_enumerated", len(result))


_OBSERVERS = {
    "poly.mul": _mul,
    "poly.substitute": _substitute,
    "poly.compose": _compose,
    "linalg.solve_exact": _solve_exact,
    "weights.resonance_set": _exponents,
    "weights.weighted_exponents": _exponents,
}

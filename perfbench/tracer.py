"""Span recording from outside the package, by rebinding public functions.

Each target function is replaced, in every cmtrace module that holds a
reference to it, by a wrapper that records a span (name, start, end, parent,
op). Because imports such as `from .curves import an_coefficients` are
rebound too, nested calls nest: eval_phi is the parent of an_coefficients.
A target that no longer exists is skipped and its metrics are dropped.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# (module, function, stats). `calls`, `s` (inclusive) and `self_s` come from
# spans; the other stats are counts made from the call's arguments or result.
TARGETS = (
    ("modparam", "eval_phi", ("calls", "self_s", "terms", "s_per_kterm")),
    ("curves", "an_coefficients", ("calls", "self_s", "requested_terms", "misses")),
    ("modparam", "atkin_lehner_sign", ("calls", "s")),
    ("modparam", "eval_newform", ("calls", "self_s", "terms")),
    ("fp", "index_ns_plus", ("calls", "s")),
    ("embeddings", "two_to_one_check", ("s",)),
    ("embeddings", "build_embedding", ("s",)),
    ("embeddings", "lemma_converse_check", ("s",)),
    ("embeddings", "signo_pairing_check", ("s",)),
    ("embeddings", "verify_optimal", ("s",)),
    ("embeddings", "find_common_norm_element", ("s",)),
    ("quadforms", "kernel_classes", ("calls", "s")),
    ("heegner", "heegner_form", ("s",)),
    ("heegner", "galois_orbit", ("s",)),
    ("experiments", "experiment_finite", ("s",)),
    ("experiments", "orbit_trace", ("s",)),
    ("periods", "period_lattice", ("s",)),
    ("periods", "torsion_residual", ("s",)),
    ("periods", "is_torsion", ("s",)),
    ("periods", "elliptic_exp", ("s",)),
    ("recognize", "recognize_in_quadratic", ("calls", "s", "hits")),
    ("experiments", "trace_point", ("self_s",)),
)
OVERHEAD = "trace.overhead_frac"
UNITS = {"calls": "count", "terms": "count", "requested_terms": "count", "misses": "count",
         "hits": "count", "s": "s", "self_s": "s", "s_per_kterm": "s/kterm"}


def metric_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    return [f"{m}.{f}.{stat}" for m, f, stats in TARGETS for stat in stats] + [OVERHEAD]


class Tracer:
    """Collects spans and counts while installed; `op` labels new spans."""

    def __init__(self, cm):
        self.cm = cm
        self.spans: list = []            # (name, start, end, parent index, op)
        self.counts: dict = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._an_bounds: dict = {}       # curve a-invariants -> largest bound asked
        self._patches: list = []
        self.counted: set[str] = set()   # count metrics with an installed counter
        self.names = []                  # targets found in this version of cmtrace
        for mod, func, _ in TARGETS:
            if callable(getattr(getattr(cm, mod, None), func, None)):
                self.names.append(f"{mod}.{func}")
        self._phi_terms = getattr(getattr(cm, "modparam", None), "phi_terms", None)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cmtrace" or name.startswith("cmtrace.")]
        for name in self.names:
            mod, func = name.split(".")
            orig = getattr(getattr(self.cm, mod), func)
            wrapper = self._wrap(name, orig, self._counter(name, orig))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, orig):
        """The counts a target adds per call, made from its arguments or result.

        A counter whose arguments are not in the target's signature is not
        installed, and the metrics it would feed are dropped.
        """
        sig = inspect.signature(orig)
        func = name.split(".")[1]
        counts = self.counts

        def has(*params):
            return all(q in sig.parameters for q in params)

        if func in ("eval_phi", "eval_newform") and self._phi_terms and has("tau", "digits"):
            phi_terms = self._phi_terms
            self.counted |= {f"{name}.terms", f"{name}.s_per_kterm"}

            def count(args, kwargs, result):
                a = sig.bind(*args, **kwargs).arguments
                counts[f"{name}.terms"] += phi_terms(a["tau"].imag, a["digits"])
            return count
        if func == "an_coefficients" and has("cur", "bound"):
            self.counted |= {f"{name}.requested_terms", f"{name}.misses"}
            seen = self._an_bounds

            def count(args, kwargs, result):
                a = sig.bind(*args, **kwargs).arguments
                key, n = a["cur"].ainvs, a["bound"]
                counts[f"{name}.requested_terms"] += n
                if n > seen.get(key, -1):
                    counts[f"{name}.misses"] += 1
                    seen[key] = n
            return count
        if func == "recognize_in_quadratic":
            self.counted.add(f"{name}.hits")

            def count(args, kwargs, result):
                counts[f"{name}.hits"] += result is not None
            return count
        return None

    def metrics(self, spans, counts) -> dict[str, float]:
        """Per-layer totals over the given spans and counts; layers or
        counters missing from this version of cmtrace are left out."""
        child = [0.0] * len(spans)
        for _, s, e, p, _ in spans:
            if p is not None:
                child[p] += e - s
        values = defaultdict(int)
        for i, (n, s, e, _, _) in enumerate(spans):
            values[f"{n}.calls"] += 1
            values[f"{n}.s"] += e - s
            values[f"{n}.self_s"] += e - s - child[i]
        for key, v in counts.items():
            values[key] += v
        out = {}
        for mod, func, stats in TARGETS:
            name = f"{mod}.{func}"
            if name not in self.names:
                continue
            for stat in stats:
                key = f"{name}.{stat}"
                if stat == "s_per_kterm":
                    if key in self.counted:
                        terms = values[f"{name}.terms"]
                        out[key] = values[f"{name}.self_s"] / terms * 1000 if terms else 0.0
                elif stat in ("calls", "s", "self_s") or key in self.counted:
                    out[key] = values[key]
        return out

    def take(self) -> tuple[list, dict]:
        """Hand over and clear the spans and counts recorded so far."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()              # in place: the wrappers hold these objects
        self.counts.clear()
        return spans, counts


def merge(parts) -> tuple[list, dict]:
    """Concatenate (spans, counts) pairs, re-basing parent indices."""
    spans, counts = [], defaultdict(int)
    for part_spans, part_counts in parts:
        base = len(spans)
        spans.extend((n, s, e, None if p is None else p + base, op)
                     for n, s, e, p, op in part_spans)
        for k, v in part_counts.items():
            counts[k] += v
    return spans, dict(counts)


def spans_json(spans) -> list[dict]:
    return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in spans]

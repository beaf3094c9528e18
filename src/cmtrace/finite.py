"""The finite shadow of an experiment, and the inputs every experiment shares.

ExperimentSpec holds and validates the inputs of one run: the field, the
conductor, the curve or the prime p, and the working precision.
experiment_finite runs the exact layer at p: the optimal embedding, the
converse scan, the two-to-one coset fibers over P^1(F_p), the involution
pairing, the index of the non-split Cartan normalizer, and common-norm
elements.  All of it is integer arithmetic, with no binary form (the trace
builds the kernel forms), and this module and everything it imports (errors,
fp with the orders, embeddings) load neither quadforms nor mpmath nor
cmtrace.curves: a finite-only process never pays for the forms or the
analytic layer, which experiments.trace_point adds on top of this report.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .embeddings import (build_embedding, find_common_norm_element, lemma_converse_check,
                         signo_pairing_check, two_to_one_check, verify_optimal)
from .errors import InputError
from .fp import (HypothesisError, check_hypotheses, factorint, index_ns_plus, isprime,
                 kronecker, order_data)

MODES = ("signo_minus", "main_plus", "finite_only")
DEFAULT_DIGITS = 60
DIGITS_CAP = 200            # the largest working precision any run accepts
P_CAP = 10 ** 6             # the finite layer's O(p) lists take about 0.3 KB per p
# Below this a trace is not trusted: at 1-3 digits the torsion test has misread a
# non-torsion point, and the fiber reads bound each move's error by the series
# budget at 15 digits or more (experiments docstring).
TRACE_MIN_DIGITS = 15


def check_digits(digits: int):
    """Reject a working precision outside 1..DIGITS_CAP before any work."""
    if not 1 <= digits <= DIGITS_CAP:
        raise InputError(f"digits must be between 1 and {DIGITS_CAP}, got {digits}")


class ExperimentSpec(namedtuple("ExperimentSpec", "dK f curve p digits mode",
                                 defaults=(None, None, DEFAULT_DIGITS, "main_plus"))):
    """Inputs of one experiment, shared by experiment_finite and
    experiments.trace_point; curve may be omitted for finite-only runs.  dK,
    f, digits and a given p must be ints (a bool is none), and a given curve
    a CurveModel.  Modes "signo_minus" and "main_plus" select the same run
    (trace_point reads w_p off the curve); they stay because
    perfbench/cases.py passes them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("dK", "f", "digits", "p"):
            value = getattr(self, name)
            if name == "p" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.curve is not None:
            from .curves import CurveModel      # loaded already when the curve is one
            if not isinstance(self.curve, CurveModel):
                raise InputError(f"curve must be a CurveModel, got {type(self.curve).__name__}")
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.curve is None and self.p is None:
            raise InputError("either a curve or an explicit p is required")
        if self.curve is not None and self.p not in (None, self.curve.p):
            raise InputError(f"p = {self.p} differs from the curve's p = {self.curve.p}")
        return self

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace checks the inputs too
        return cls(*iterable)

    @property
    def prime(self) -> int:
        return self.curve.p if self.curve is not None else self.p

    def validate(self):
        """Input bounds, then the running hypotheses (fp.check_hypotheses; p is
        capped after its primality test, whose own bound comes first), then,
        with a curve, coprimality, ramification and sign."""
        check_digits(self.digits)
        if self.mode != "finite_only" and self.digits < TRACE_MIN_DIGITS:
            raise InputError(f"a trace needs at least {TRACE_MIN_DIGITS} digits, "
                             f"got {self.digits}")
        order = order_data(self.dK, self.f)  # fundamental, dK < -4, f >= 1
        p = self.prime
        check_hypotheses(p)
        if p > P_CAP:
            raise InputError(f"p = {p} is above the cap {P_CAP} of the finite layer")
        check_hypotheses(p, order)
        if self.curve is not None:
            n = self.curve.n
            if gcd(self.f, n) != 1:
                raise HypothesisError("conductor f must be coprime to N")
            for q, e in factorint(self.curve.m).items():
                if e >= 2 and kronecker(self.dK, q) == 0:
                    raise HypothesisError(f"q = {q} with q^2 | M must be unramified")
                if self.mode != "finite_only" and kronecker(self.dK, q) != 1:
                    raise HypothesisError(
                        f"q = {q} dividing M must split for a matrix-algebra run")
            if self.mode != "finite_only" and kronecker(self.dK, -n) != -1:
                raise HypothesisError("the quadratic-symbol sign of E/K is not -1")


class FiniteReport(namedtuple("FiniteReport", "p dK f level_m checks fiber_count degree fibers")):
    """The finite shadow at p: the named checks, the fiber count, the index of
    the non-split Cartan normalizer, and the fibers over P^1(F_p) as {coset
    label: [projective pair, ...]}, in embeddings.two_to_one_check's order."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "p": self.p, "dK": self.dK, "f": self.f, "level_m": self.level_m,
            "checks": dict(self.checks), "fiber_count": self.fiber_count,
            "degree": self.degree, "passed": self.all_passed,
            # coset labels as row-major 4-tuples, fibers as projective pairs
            "fibers": [
                {"label": list(label),
                 "classes": [list(u) for u in classes]}
                for label, classes in sorted(self.fibers.items())
            ],
        }


def experiment_finite(spec: ExperimentSpec) -> FiniteReport:
    """The purely finite layer: embedding, converse scan, fibers, pairings,
    and common-norm elements for the first five good primes, with the curve's
    level M (1 without a curve).  Each layer checks p itself; isprime and
    smallest_nonsquare are cached, so p is tested once per process."""
    spec.validate()
    p = spec.prime
    level_m = spec.curve.m if spec.curve is not None else 1
    emb = build_embedding(p, order_data(spec.dK, spec.f))
    checks = {
        "optimal_embedding": verify_optimal(emb),
        "lemma_converse": lemma_converse_check(emb),
        "signo_pairing": signo_pairing_check(emb),
    }
    fibers = two_to_one_check(emb)
    checks["two_to_one"] = (len(fibers) == (p + 1) // 2
                            and all(len(v) == 2 for v in fibers.values()))
    degree = index_ns_plus(p)
    checks["degree_matches_index"] = len(fibers) == degree
    n_ambient = p * p * level_m
    good, ell = [], 1
    while len(good) < 5:
        ell += 1
        if isprime(ell) and n_ambient % ell:
            good.append(ell)
    elements = [find_common_norm_element(p, ell) for ell in good]
    checks["common_norm_elements"] = all(
        (a * d - b * c - ell) % p == 0 for ell, (a, b, c, d) in zip(good, elements))
    return FiniteReport(p=p, dK=spec.dK, f=spec.f, level_m=level_m, checks=checks,
                        fiber_count=len(fibers), degree=degree, fibers=fibers)

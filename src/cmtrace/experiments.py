"""End-to-end experiments: build the conductor-p*f orbit on X_0(p^2 M), act by
the ring class Galois kernel, trace, and classify the result.

Every trace run also executes the finite shadow (optimal embedding, converse
scan, two-to-one fiber structure, involution pairing), so the analytic outcome
and the group-theoretic bookkeeping are produced side by side; the orbit is
built from the Galois kernel the shadow computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import gcd

import mpmath as mp

from .curves import CurveModel
from .embeddings import (build_embedding, find_common_norm_element,
                         lemma_converse_check, signo_pairing_check, two_to_one_check,
                         verify_optimal)
from .fp import FpParams, factorint, index_ns_plus, isprime, kronecker
from .heegner import HeegnerTau, galois_orbit, heegner_form
from .modparam import atkin_lehner_sign, eval_phi, phi_terms
from .periods import (DIGITS_CAP, PeriodLattice, elliptic_exp, is_torsion,
                      period_lattice, torsion_residual)
from .quadforms import GaloisKernel, class_number, kernel_classes, order_data
from .recognize import curve_equation_holds_exactly, recognize_in_quadratic

MODES = ("signo_minus", "main_plus", "finite_only")
DEFAULT_DIGITS = 60
# Below this a trace is not trusted: PSLQ in recognize_rational needs 53 bits,
# and at 1-3 digits the torsion test has misread a non-torsion point.
TRACE_MIN_DIGITS = 15


class HypothesisError(ValueError):
    pass


def check_digits(digits: int):
    """Reject a working precision outside 1..DIGITS_CAP before any work."""
    if not 1 <= digits <= DIGITS_CAP:
        raise ValueError(f"digits must be between 1 and {DIGITS_CAP}, got {digits}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Inputs of one experiment; curve may be omitted for finite-only runs."""

    dK: int
    f: int
    curve: CurveModel | None = None
    p: int | None = None
    digits: int = DEFAULT_DIGITS
    mode: str = "main_plus"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.curve is None and self.p is None:
            raise ValueError("either a curve or an explicit p is required")

    @property
    def prime(self) -> int:
        return self.curve.p if self.curve is not None else self.p

    def validate(self):
        """Input bounds, then the running hypotheses: inertness, coprimality,
        ramification and sign."""
        check_digits(self.digits)
        if self.mode != "finite_only" and self.digits < TRACE_MIN_DIGITS:
            raise ValueError(f"a trace needs at least {TRACE_MIN_DIGITS} digits, "
                             f"got {self.digits}")
        order_data(self.dK, self.f)          # fundamental, dK < -4, f >= 1
        p = self.prime
        if not isprime(p) or p == 2:
            raise HypothesisError("p must be an odd prime")
        if kronecker(self.dK, p) != -1:
            raise HypothesisError(f"p = {p} must be inert in Q(sqrt({self.dK}))")
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


@dataclass(frozen=True)
class FiniteReport:
    p: int
    dK: int
    f: int
    level_m: int
    checks: dict
    fiber_count: int
    degree: int
    kernel: GaloisKernel = field(repr=False)     # reused by trace_point; not in to_json
    fibers: dict = field(default_factory=dict)

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
                {"label": list(label.rep.entries),
                 "classes": [[u.x1, u.x2] for u in classes]}
                for label, classes in sorted(self.fibers.items())
            ],
        }


def experiment_finite(spec: ExperimentSpec) -> FiniteReport:
    """The purely finite layer: embedding, converse scan, fibers, pairings,
    and common-norm elements for the first five good primes, with the smallest
    non-square mod p and the curve's level M (1 without a curve)."""
    spec.validate()
    p = spec.prime
    level_m = spec.curve.m if spec.curve is not None else 1
    params = FpParams(p)
    order = order_data(spec.dK, spec.f)
    kernel = kernel_classes(order, p)
    emb = build_embedding(params, order, level_m=level_m)
    checks = {
        "optimal_embedding": verify_optimal(emb),
        "lemma_converse": lemma_converse_check(emb),
        "signo_pairing": signo_pairing_check(emb),
    }
    fibers = two_to_one_check(emb, kernel)
    checks["two_to_one"] = (len(fibers) == (p + 1) // 2
                            and all(len(v) == 2 for v in fibers.values()))
    degree = index_ns_plus(params)
    checks["degree_matches_index"] = len(fibers) == degree
    n_ambient = p * p * level_m
    good, ell = [], 1
    while len(good) < 5:
        ell += 1
        if isprime(ell) and n_ambient % ell:
            good.append(ell)
    checks["common_norm_elements"] = all(
        find_common_norm_element(params, ell % p).det() == ell % p for ell in good)
    return FiniteReport(p=p, dK=spec.dK, f=spec.f, level_m=level_m, checks=checks,
                        fiber_count=len(fibers), degree=degree, kernel=kernel, fibers=fibers)


@dataclass(frozen=True)
class OrbitEntry:
    proj: tuple[int, int]
    form: tuple[int, int, int]
    tau: str
    z: tuple[str, str]


@dataclass(frozen=True)
class TraceReport:
    spec: ExperimentSpec
    wp: int
    orbit: tuple[OrbitEntry, ...]
    trace_z: object
    residual: object
    verdict: str                     # torsion | non_torsion | undecided
    recognized: tuple | None
    n_max: int
    finite_shadow: FiniteReport
    lattice: PeriodLattice
    timings: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        digits = self.spec.digits
        out = {
            "spec": {
                "curve": list(self.spec.curve.ainvs),
                "model": list(self.spec.curve.minimal.ainvs),
                "N": self.spec.curve.n, "p": self.spec.curve.p, "M": self.spec.curve.m,
                "dK": self.spec.dK, "f": self.spec.f,
                "digits": digits,
            },
            "wp": self.wp,
            "orbit": [entry.__dict__ for entry in self.orbit],
            "traceZ": _cstr(self.trace_z, digits),
            "residual": mp.nstr(self.residual, 8),
            "verdict": self.verdict,
            "digits": digits,
            "n_max": self.n_max,
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
            "finite_shadow": self.finite_shadow.to_json(),
        }
        if self.recognized is not None:
            x, y = self.recognized
            out["recognized"] = {
                "x": {"nu": x.nu, "mu": x.mu, "den": x.den, "field_disc": x.field_disc},
                "y": {"nu": y.nu, "mu": y.mu, "den": y.den, "field_disc": y.field_disc},
            }
        return out


def _cstr(z, digits: int) -> dict:
    return {"re": mp.nstr(mp.mpc(z).real, digits), "im": mp.nstr(mp.mpc(z).imag, digits),
            "precision": digits}


def orbit_trace(model: CurveModel, orbit, kernel, digits: int):
    """Evaluate the parametrisation over the orbit and sum in kernel order.

    Every point has Im tau = sqrt|D| / (2A) for one D = (pf)^2 dK, so the point
    of largest A needs the most terms and goes first: the a_n sieve is extended
    once, and an over-budget orbit fails before any evaluation.  Each value
    depends only on (tau, digits, a[0..n_max]), so the order changes nothing."""
    with mp.workdps(digits + 15):
        taus = [pt.tau(digits) for pt in orbit]
        order = sorted(range(len(taus)), key=lambda i: orbit[i].form.a, reverse=True)
        n_max = phi_terms(taus[order[0]].imag, digits)
        zs = [None] * len(taus)
        for i in order:
            zs[i] = eval_phi(model, taus[i], digits)
        entries = []
        for kc, pt, tau, z in zip(kernel.classes, orbit, taus, zs):
            entries.append(OrbitEntry(
                proj=kc.generator,
                form=(pt.form.a, pt.form.b, pt.form.c),
                tau=mp.nstr(tau, min(digits, 30)),
                z=(mp.nstr(z.real, min(digits, 30)), mp.nstr(z.imag, min(digits, 30))),
            ))
        trace_z = mp.mpc(0)
        for z in zs:                     # fixed ascending kernel order
            trace_z += z
        return tuple(entries), +trace_z, n_max


def trace_point(spec: ExperimentSpec) -> TraceReport:
    """Full pipeline: kernel, oriented orbit, series budget, sign, q-series
    values, trace, torsion verdict and (for class number one at f = 1) exact
    recognition."""
    if spec.mode == "finite_only":
        raise ValueError("trace_point needs an analytic mode")
    if spec.curve is None:
        raise ValueError("trace_point needs a curve")
    spec.validate()
    model = spec.curve
    digits = spec.digits

    t0 = time.perf_counter()
    shadow = experiment_finite(ExperimentSpec(dK=spec.dK, f=spec.f, curve=model,
                                              digits=digits, mode="finite_only"))
    kernel = shadow.kernel
    base = HeegnerTau(form=heegner_form(model.n, spec.dK, model.p * spec.f),
                      n_level=model.n, dK=spec.dK, conductor=model.p * spec.f)
    orbit = galois_orbit(base, kernel)
    # an over-budget orbit fails here, before the sign can evaluate a series
    phi_terms(max(orbit, key=lambda pt: pt.form.a).tau(digits).imag, digits)
    t_finite = time.perf_counter() - t0

    t0 = time.perf_counter()
    wp = atkin_lehner_sign(model.minimal, model.n, model.p * model.p, digits)
    timings = {"atkin_lehner": time.perf_counter() - t0, "finite_layer": t_finite}

    t0 = time.perf_counter()
    entries, trace_z, n_max = orbit_trace(model, orbit, kernel, digits)
    timings["orbit_evaluation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lat = period_lattice(model.minimal, digits)
    residual = torsion_residual(trace_z, lat)
    torsion = is_torsion(trace_z, lat, digits)
    recognized = None
    if torsion:
        verdict = "torsion"
    else:
        verdict = "undecided"
        if spec.f == 1 and class_number(spec.dK) == 1:
            point = elliptic_exp(lat, trace_z)
            if point.xy is not None:
                hb = max(4, digits // 3)
                rx = recognize_in_quadratic(point.xy[0], spec.dK, digits, hb)
                ry = recognize_in_quadratic(point.xy[1], spec.dK, digits, hb)
                if (rx is not None and ry is not None
                        and curve_equation_holds_exactly(model.minimal.ainvs, rx, ry)):
                    recognized = (rx, ry)
                    verdict = "non_torsion"
    timings["classification"] = time.perf_counter() - t0

    return TraceReport(spec=spec, wp=wp, orbit=tuple(entries), trace_z=trace_z,
                       residual=residual, verdict=verdict, recognized=recognized,
                       n_max=n_max, finite_shadow=shadow, lattice=lat, timings=timings)

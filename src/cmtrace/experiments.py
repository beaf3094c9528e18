"""End-to-end experiments: build the conductor-p*f orbit on X_0(p^2 M), act by
the ring class Galois kernel, trace, and classify the result.

Every trace run also executes the finite shadow (optimal embedding, converse
scan, two-to-one fiber structure, involution pairing), so the analytic outcome
and the group-theoretic bookkeeping are produced side by side; the orbit is
built from the kernel forms the shadow computed.  Then, in stages:
orbit_options (each point's W_Q move and the series budget, before any
sign), atkin_lehner_sign, period_lattice, and orbit_trace (the moves
evaluated, with w_Q applied and each K_Q exact on the lattice).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations
from math import gcd, prod

import mpmath as mp

from .curves import CurveModel
from .embeddings import (build_embedding, find_common_norm_element,
                         lemma_converse_check, signo_pairing_check, two_to_one_check,
                         verify_optimal)
from .errors import InputError
from .fp import FpParams, factorint, index_ns_plus, isprime, kronecker
from .heegner import HeegnerTau, al_move, galois_orbit, heegner_form
from .modparam import (GUARD, K_DIGITS, SeriesBudgetError, al_constant, al_constant_points,
                       atkin_lehner_sign, eval_phi, local_sign, phi_terms)
from .periods import (DIGITS_CAP, PeriodLattice, elliptic_exp, is_torsion, period_lattice,
                      torsion_residual)
from .quadforms import KernelClass, class_number, kernel_classes, order_data
from .recognize import curve_equation_holds_exactly, recognize_in_quadratic

MODES = ("signo_minus", "main_plus", "finite_only")
DEFAULT_DIGITS = 60
# Below this a trace is not trusted: PSLQ in recognize_rational needs 53 bits,
# and at 1-3 digits the torsion test has misread a non-torsion point.
TRACE_MIN_DIGITS = 15


class HypothesisError(InputError):
    pass


def check_digits(digits: int):
    """Reject a working precision outside 1..DIGITS_CAP before any work."""
    if not 1 <= digits <= DIGITS_CAP:
        raise InputError(f"digits must be between 1 and {DIGITS_CAP}, got {digits}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Inputs of one experiment; curve may be omitted for finite-only runs.
    Modes "signo_minus" and "main_plus" select the same run (trace_point reads
    w_p off the curve); they stay because perfbench/cases.py passes them."""

    dK: int
    f: int
    curve: CurveModel | None = None
    p: int | None = None
    digits: int = DEFAULT_DIGITS
    mode: str = "main_plus"

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.curve is None and self.p is None:
            raise InputError("either a curve or an explicit p is required")
        if self.curve is not None and self.p not in (None, self.curve.p):
            raise InputError(f"p = {self.p} differs from the curve's p = {self.curve.p}")

    @property
    def prime(self) -> int:
        return self.curve.p if self.curve is not None else self.p

    def validate(self):
        """Input bounds, then the running hypotheses: inertness, coprimality,
        ramification, sign, and p prime to f."""
        check_digits(self.digits)
        if self.mode != "finite_only" and self.digits < TRACE_MIN_DIGITS:
            raise InputError(f"a trace needs at least {TRACE_MIN_DIGITS} digits, "
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
        if self.f % p == 0:                  # with a curve, p | N already ruled it out
            raise HypothesisError("p must not divide the conductor")


@dataclass(frozen=True)
class FiniteReport:
    p: int
    dK: int
    f: int
    level_m: int
    checks: dict
    fiber_count: int
    degree: int
    classes: tuple[KernelClass, ...] = field(repr=False)   # reused by trace_point; not in to_json
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
                {"label": list(label),
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
    classes = kernel_classes(order, p)
    emb = build_embedding(params, order)
    checks = {
        "optimal_embedding": verify_optimal(emb),
        "lemma_converse": lemma_converse_check(emb),
        "signo_pairing": signo_pairing_check(emb),
    }
    fibers = two_to_one_check(emb, classes)
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
                        fiber_count=len(fibers), degree=degree, classes=classes, fibers=fibers)


@dataclass(frozen=True)
class OrbitEntry:
    proj: tuple[int, int]
    form: tuple[int, int, int]
    tau: str
    z: tuple[str, str]
    q: int                           # the W_Q the point went through, 1 for none
    n_max: int                       # terms of its series
    source: str                      # "series", or "same:i" / "conj:i": entry i's series reused


@dataclass(frozen=True)
class OrbitMove:
    """How one orbit point tau is evaluated: phi(tau) = w_Q (phi(point) -
    K_Q), point = W_Q (tau + k).  q = 1 keeps tau."""

    q: int
    point: HeegnerTau
    n_max: int


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
    constants: tuple                 # (Q, w_Q, i, j, n): K_Q = (i w1 + j w2) / n
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
            "constants": [dict(zip(("Q", "w", "i", "j", "n"), c)) for c in self.constants],
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
    """The parts of z to `digits` digits, read at z's precision, not a double's."""
    return {"re": mp.nstr(mp.re(z), digits), "im": mp.nstr(mp.im(z), digits),
            "precision": digits}


@lru_cache(maxsize=128)
def al_signs(model: CurveModel) -> tuple[tuple[int, int | None], ...]:
    """((Q, w_Q), ...) for every Q || N, Q > 1, whose sign is the product of
    the local signs, and (p^2, None) when w_p needs the series (36a1, additive
    at 3): orbit_trace fills in the measured sign.  Other Q, such as 36a1's
    Q = 4 and Q = 36 (additive at 2), are never used."""
    powers = [q ** e for q, e in factorint(model.n).items()]
    out = []
    for r in range(1, len(powers) + 1):
        for combo in combinations(powers, r):
            q_div = prod(combo)
            w = local_sign(model.minimal, q_div)
            if w is not None or q_div == model.p ** 2:
                out.append((q_div, w))
    return tuple(out)


def _terms(im_tau, digits: int) -> tuple[int, bool]:
    """(phi_terms, within the budget) at a point of that Im tau."""
    try:
        return phi_terms(im_tau, digits), True
    except SeriesBudgetError as exc:
        return exc.needed, False


def orbit_options(model: CurveModel, orbit, digits: int) -> tuple[OrbitMove, ...]:
    """The move of each orbit point: its cheapest option within the budget,
    tau itself on a tie, among tau (q = 1) and its best W_Q (tau + k) for each
    Q of al_signs(model) whose leading coefficient is smaller and whose K_Q
    points need at most NMAX_CAP terms at K_DIGITS.  K_Q is exact and costs
    one short evaluation (modparam docstring), so no sign enters the choice
    and trace_point runs this before atkin_lehner_sign.  The points share one
    D, and each Im tau is sqrt|D| / (2A) at digits + GUARD, as HeegnerTau.tau
    computes it.  SeriesBudgetError, with the least n_max any choice has,
    when some point has no option within the budget."""
    with mp.workdps(K_DIGITS + GUARD):
        qs = [q for q, _ in al_signs(model) if _terms(mp.sqrt(q) / model.n, K_DIGITS)[1]]
    picks = []
    with mp.workdps(digits + GUARD):
        root = mp.sqrt(-orbit[0].form.disc())
        for pt in orbit:
            opts = [(*_terms(root / (2 * pt.form.a), digits), 1, pt)]
            for q_div in qs:
                _, form = al_move(pt.form, pt.n_level, q_div)
                if form.a < pt.form.a:
                    opts.append((*_terms(root / (2 * form.a), digits), q_div,
                                 replace(pt, form=form)))
            picks.append(min(opts, key=lambda o: (o[0], o[2])))
    if not all(ok for _, ok, _, _ in picks):
        raise SeriesBudgetError(max(n for n, _, _, _ in picks))
    return tuple(OrbitMove(q=q_div, point=pt, n_max=n) for n, _, q_div, pt in picks)


def orbit_trace(model: CurveModel, orbit, classes, moves, wp: int, lat: PeriodLattice):
    """Evaluate the parametrisation over the orbit by the moves, and sum in
    kernel order: phi(tau) = w_Q (phi(W_Q (tau + k)) - K_Q) is exact, so no
    period enters (modparam docstring), with w_p in place of a None sign of
    al_signs and each K_Q = (i w1 + j w2) / n on lat (al_constant).

    One series serves each evaluation point up to conjugation.  The a_n are
    real, so phi(-conj s) = conj phi(s), and phi has period 1.  The point
    s = (-B + sqrt D) / (2A) of a form (A, B, C) is thus known from any
    point of the same D and A with B' = B mod 2A (phi(s) itself) or B' = -B
    mod 2A (its conjugate), and phi(s) is real when A | B.  The key (A, B
    mod 2A) is that of the evaluation point, the form after the move, not of
    the orbit form: two orbit points that W_Q moves to one point, or to
    conjugate points, share one series, and each still applies its own w_Q
    and K_Q.  The truncated sums of two points of a key or of a key and its
    mate agree exactly, up to the conjugation, so a reused value differs
    from the point's own evaluation only by the rounding of the two.

    The evaluations, the K_Q points at K_DIGITS included, run from the most
    terms down: the a_n sieve is extended once.  A key and its mate have one
    A, so one n_max, and the first point of each in kernel order is the one
    evaluated.  Each value depends only on (tau, digits, a[0..n_max]), so the
    order changes nothing.  Returns the entries, the trace, the most terms
    evaluated and (Q, w_Q, i, j, n) for each K_Q used."""
    signs = {q_div: wp if w is None else w for q_div, w in al_signs(model)}
    digits = lat.digits
    with mp.workdps(digits + GUARD):
        # (terms, job): an orbit index, or -Q for the points of K_Q
        jobs = [(mv.n_max, i) for i, mv in enumerate(moves)]
        for q_div in sorted({mv.q for mv in moves} - {1}):
            pts = al_constant_points(model.n, q_div, signs[q_div], K_DIGITS)
            jobs.append((phi_terms(pts[0][1].imag, K_DIGITS) if pts else 0, -q_div))
        exact, values, sources = {}, [None] * len(orbit), [None] * len(orbit)
        evaluated = {}                   # key -> the job that evaluated its series
        for _, job in sorted(jobs, key=lambda j: -j[0]):
            if job < 0:
                exact[-job] = al_constant(lat, model.n, -job, signs[-job])
                continue
            point = moves[job].point
            form = point.form
            key, mate = (form.a, form.b % (2 * form.a)), (form.a, -form.b % (2 * form.a))
            if key in evaluated:
                i = evaluated[key]
                values[job], sources[job] = values[i], f"same:{i}"
            elif mate in evaluated:
                i = evaluated[mate]
                values[job], sources[job] = mp.conj(values[i]), f"conj:{i}"
            else:
                z = eval_phi(model, point.tau(digits), digits)
                values[job] = mp.mpc(z.real) if key == mate else z
                sources[job], evaluated[key] = "series", job
        consts = {q_div: (i * lat.w1 + j * lat.w2) / n for q_div, (i, j, n) in exact.items()}
        zs = [z if mv.q == 1 else signs[mv.q] * (z - consts[mv.q]) for mv, z in zip(moves, values)]
        entries = []
        for kc, pt, mv, z, source in zip(classes, orbit, moves, zs, sources):
            entries.append(OrbitEntry(
                proj=(kc.proj.x1, kc.proj.x2),
                form=(pt.form.a, pt.form.b, pt.form.c),
                tau=mp.nstr(pt.tau(digits), min(digits, 30)),
                z=(mp.nstr(z.real, min(digits, 30)), mp.nstr(z.imag, min(digits, 30))),
                q=mv.q, n_max=mv.n_max, source=source,
            ))
        trace_z = mp.mpc(0)
        for z in zs:                     # fixed ascending kernel order
            trace_z += z
        constants = tuple((q_div, signs[q_div], *exact[q_div]) for q_div in sorted(exact))
        return tuple(entries), +trace_z, max(n for n, _ in jobs), constants


def trace_point(spec: ExperimentSpec) -> TraceReport:
    """Full pipeline: kernel, oriented orbit, moves and series budget, sign,
    periods, q-series values, trace, torsion verdict and (for class number one at f = 1) exact
    recognition."""
    if spec.mode == "finite_only":
        raise InputError("trace_point needs an analytic mode")
    if spec.curve is None:
        raise InputError("trace_point needs a curve")
    model = spec.curve
    digits = spec.digits

    t0 = time.perf_counter()
    shadow = experiment_finite(spec)             # validates the spec first
    base = HeegnerTau(form=heegner_form(model.n, spec.dK, model.p * spec.f),
                      n_level=model.n, dK=spec.dK, conductor=model.p * spec.f)
    orbit = galois_orbit(base, [kc.form for kc in shadow.classes])
    # an over-budget orbit fails here, before the sign can evaluate a series
    moves = orbit_options(model, orbit, digits)
    t_finite = time.perf_counter() - t0

    t0 = time.perf_counter()
    wp = atkin_lehner_sign(model.minimal, model.n, model.p * model.p, digits)
    timings = {"atkin_lehner": time.perf_counter() - t0, "finite_layer": t_finite}

    t0 = time.perf_counter()
    lat = period_lattice(model.minimal, digits)
    entries, trace_z, n_max, constants = orbit_trace(model, orbit, shadow.classes, moves, wp, lat)
    timings["orbit_evaluation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    residual = torsion_residual(trace_z, lat)
    torsion = is_torsion(trace_z, lat)
    recognized = None
    if torsion:
        verdict = "torsion"
    else:
        verdict = "undecided"
        if spec.f == 1 and class_number(spec.dK) == 1:
            point = elliptic_exp(lat, trace_z)
            if point is not None:
                hb = max(4, digits // 3)
                rx = recognize_in_quadratic(point[0], spec.dK, digits, hb)
                ry = recognize_in_quadratic(point[1], spec.dK, digits, hb)
                if (rx is not None and ry is not None
                        and curve_equation_holds_exactly(model.minimal.ainvs, rx, ry)):
                    recognized = (rx, ry)
                    verdict = "non_torsion"
    timings["classification"] = time.perf_counter() - t0

    return TraceReport(spec=spec, wp=wp, orbit=tuple(entries), trace_z=trace_z,
                       residual=residual, verdict=verdict, recognized=recognized,
                       n_max=n_max, finite_shadow=shadow, constants=constants,
                       timings=timings)

"""End-to-end experiments: build the conductor-p*f orbit on X_0(p^2 M), act by
the ring class Galois kernel, trace, and classify the result.

Every trace run also executes the finite shadow (optimal embedding, converse
scan, two-to-one fiber structure, involution pairing), so the analytic outcome
and the group-theoretic bookkeeping are produced side by side; the orbit is
built from the Galois kernel the shadow computed.  Then, in stages:
orbit_options (the series budget, before any sign), atkin_lehner_sign,
plan_orbit (the W_Q moves) and orbit_trace (the plan evaluated).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations
from math import gcd, inf, prod

import mpmath as mp

from .curves import CurveModel
from .embeddings import (build_embedding, find_common_norm_element,
                         lemma_converse_check, signo_pairing_check, two_to_one_check,
                         verify_optimal)
from .errors import InputError
from .fp import FpParams, factorint, index_ns_plus, isprime, kronecker
from .heegner import HeegnerTau, al_move, galois_orbit, heegner_form
from .modparam import (GUARD, SeriesBudgetError, al_constant, al_constant_points,
                       atkin_lehner_sign, eval_phi, local_sign, phi_terms)
from .periods import DIGITS_CAP, elliptic_exp, is_torsion, period_lattice, torsion_residual
from .quadforms import GaloisKernel, class_number, kernel_classes, order_data
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
    q: int                           # the W_Q the point went through, 1 for none
    n_max: int                       # terms of the series evaluated for it


@dataclass(frozen=True)
class OrbitMove:
    """How one orbit point tau is evaluated: phi(tau) = w (phi(point) - K_Q),
    point = W_Q (tau + k).  q = 1 keeps tau, with w = 1 and K_1 = 0."""

    q: int
    w: int
    point: HeegnerTau
    n_max: int


@dataclass(frozen=True)
class OrbitPlan:
    """One move per orbit point, in orbit order, and (Q, w_Q, n_max, count)
    for each K_Q the moves use: count points of n_max terms each compute it
    (al_constant_points); n_max = count = 0 when K_Q = 0 exactly."""

    moves: tuple[OrbitMove, ...]
    constants: tuple[tuple[int, int, int, int], ...]

    @property
    def n_max(self) -> int:
        return max([mv.n_max for mv in self.moves] + [n for _, _, n, _ in self.constants])


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
    """The parts of z to `digits` digits, read at z's precision, not a double's."""
    return {"re": mp.nstr(mp.re(z), digits), "im": mp.nstr(mp.im(z), digits),
            "precision": digits}


@lru_cache(maxsize=128)
def al_signs(model: CurveModel) -> tuple[tuple[int, int | None], ...]:
    """((Q, w_Q), ...) for every Q || N, Q > 1, whose sign is the product of
    the local signs, and (p^2, None) when w_p needs the series (36a1, additive
    at 3): plan_orbit fills in the measured sign.  Other Q, such as 36a1's
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


def orbit_options(model: CurveModel, orbit, digits: int) -> list:
    """[(n_max, within budget, q, point)] for each orbit point: tau itself
    (q = 1) and its best W_Q (tau + k) for each Q of al_signs(model) whose
    leading coefficient is smaller.  The points share one D, and each Im tau
    is sqrt|D| / (2A) at digits + GUARD, as HeegnerTau.tau computes it.  No sign
    is read, so trace_point builds this before atkin_lehner_sign.
    SeriesBudgetError, with the least n_max a plan can have, when some point
    has no option within the budget; the K_Q are left out, so plan_orbit may
    still fail where this passes."""
    signs = al_signs(model)
    table = []
    with mp.workdps(digits + GUARD):
        root = mp.sqrt(-orbit[0].form.disc())
        for pt in orbit:
            opts = [(*_terms(root / (2 * pt.form.a), digits), 1, pt)]
            for q_div, _ in signs:
                _, form = al_move(pt.form, pt.n_level, q_div)
                if form.a < pt.form.a:
                    opts.append((*_terms(root / (2 * form.a), digits), q_div,
                                 replace(pt, form=form)))
            table.append(opts)
    if not all(any(o[1] for o in opts) for opts in table):
        raise SeriesBudgetError(max(min(o[0] for o in opts) for opts in table))
    return table


def _choose(table: list, k_terms: dict) -> tuple[list, set]:
    """(the option of each point, the Q whose K_Q is evaluated), given each
    point's options and the terms each K_Q costs.  Start from every Q of
    k_terms, each point at its cheapest option within the budget (tau itself
    on a tie), and drop the Q whose points save least beyond its K_Q while
    that is not positive: a Q stays only when removing it would cost more
    terms than it frees.  The saving of a set of Q is submodular (each point
    takes a minimum), so when some Q stay the plan is strictly cheaper than
    the direct route.  O(points * |Q|^2), where trying every set of Q would
    be exponential in the number of primes of N."""
    ranked = [sorted((o for o in opts if o[1] and (o[2] == 1 or o[2] in k_terms)),
                     key=lambda o: (o[0], o[2])) for opts in table]
    if not all(ranked):
        raise SeriesBudgetError(max(min(o[0] for o in opts) for opts in table))
    used = set(k_terms)
    while True:
        picks = [next(o for o in opts if o[2] == 1 or o[2] in used) for opts in ranked]
        saved = {q: -k_terms[q] for q in used}         # terms Q frees, net of K_Q
        for opts, pick in zip(ranked, picks):
            if pick[2] != 1:
                alt = next((o for o in opts if o[2] != pick[2] and (o[2] == 1 or o[2] in used)),
                           None)
                saved[pick[2]] += inf if alt is None else alt[0] - pick[0]
        drop = min(sorted(used), key=saved.__getitem__, default=None)
        if drop is None or saved[drop] > 0:
            return picks, used
        used.remove(drop)


def plan_orbit(model: CurveModel, table: list, digits: int, wp: int) -> OrbitPlan:
    """How to evaluate each orbit point with few series terms, K_Q included,
    from its orbit_options table and w_p: each point keeps tau or moves to
    its best W_Q (tau + k), and a Q is used only when the terms its points
    save exceed what its K_Q costs (_choose).  Integer arithmetic picks each
    move (al_move); phi_terms prices it.  SeriesBudgetError when no plan
    stays within the budget."""
    signs = [(q_div, wp if w is None else w) for q_div, w in al_signs(model)]
    offered = {o[2] for opts in table for o in opts}
    k_cost = {}                                   # Q -> (w, n_max, points) of K_Q
    for q_div, w in signs:
        if q_div not in offered:
            continue
        pts = al_constant_points(model.n, q_div, w, digits)
        n, ok = _terms(pts[0][1].imag, digits) if pts else (0, True)
        if ok:
            k_cost[q_div] = (w, n, len(pts))
    picks, used = _choose(table, {q: n * count for q, (_, n, count) in k_cost.items()})
    sign_of = dict(signs)
    return OrbitPlan(
        moves=tuple(OrbitMove(q=q, w=sign_of.get(q, 1), point=pt, n_max=n)
                    for n, _, q, pt in picks),
        constants=tuple((q, *k_cost[q]) for q in sorted(used)))


def orbit_trace(model: CurveModel, orbit, kernel, plan: OrbitPlan, digits: int):
    """Evaluate the parametrisation over the orbit as the plan says, and sum
    in kernel order: phi(tau) = w_Q (phi(W_Q (tau + k)) - K_Q) is exact, so
    no period enters (modparam docstring).

    The evaluations, K_Q's included, run from the most terms down: the a_n
    sieve is extended once.  Each value depends only on (tau, digits,
    a[0..n_max]), so the order changes nothing."""
    cur = model.minimal
    with mp.workdps(digits + GUARD):
        taus = [pt.tau(digits) for pt in orbit]
        # (terms, job): a K_Q entry of plan.constants, or an orbit index
        jobs = [(c[2], c) for c in plan.constants]
        jobs += [(mv.n_max, i) for i, mv in enumerate(plan.moves)]
        consts, values = {}, [None] * len(orbit)
        for _, job in sorted(jobs, key=lambda j: -j[0]):
            if isinstance(job, tuple):
                q_div, w, _, _ = job
                consts[q_div] = al_constant(cur, model.n, q_div, w, digits)
            else:
                mv = plan.moves[job]
                values[job] = eval_phi(model, taus[job] if mv.q == 1 else mv.point.tau(digits),
                                       digits)
        zs = [z if mv.q == 1 else mv.w * (z - consts[mv.q]) for mv, z in zip(plan.moves, values)]
        entries = []
        for kc, pt, tau, mv, z in zip(kernel.classes, orbit, taus, plan.moves, zs):
            entries.append(OrbitEntry(
                proj=(kc.proj.x1, kc.proj.x2),
                form=(pt.form.a, pt.form.b, pt.form.c),
                tau=mp.nstr(tau, min(digits, 30)),
                z=(mp.nstr(z.real, min(digits, 30)), mp.nstr(z.imag, min(digits, 30))),
                q=mv.q, n_max=mv.n_max,
            ))
        trace_z = mp.mpc(0)
        for z in zs:                     # fixed ascending kernel order
            trace_z += z
        return tuple(entries), +trace_z, plan.n_max


def trace_point(spec: ExperimentSpec) -> TraceReport:
    """Full pipeline: kernel, oriented orbit, series budget, sign, q-series
    values, trace, torsion verdict and (for class number one at f = 1) exact
    recognition."""
    if spec.mode == "finite_only":
        raise InputError("trace_point needs an analytic mode")
    if spec.curve is None:
        raise InputError("trace_point needs a curve")
    model = spec.curve
    digits = spec.digits

    t0 = time.perf_counter()
    shadow = experiment_finite(spec)             # validates the spec first
    kernel = shadow.kernel
    base = HeegnerTau(form=heegner_form(model.n, spec.dK, model.p * spec.f),
                      n_level=model.n, dK=spec.dK, conductor=model.p * spec.f)
    orbit = galois_orbit(base, kernel)
    # an over-budget orbit fails here, before the sign can evaluate a series
    table = orbit_options(model, orbit, digits)
    t_finite = time.perf_counter() - t0

    t0 = time.perf_counter()
    wp = atkin_lehner_sign(model.minimal, model.n, model.p * model.p, digits)
    timings = {"atkin_lehner": time.perf_counter() - t0, "finite_layer": t_finite}

    t0 = time.perf_counter()
    plan = plan_orbit(model, table, digits, wp)
    entries, trace_z, n_max = orbit_trace(model, orbit, kernel, plan, digits)
    timings["orbit_evaluation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lat = period_lattice(model.minimal, digits)
    residual = torsion_residual(trace_z, lat)
    torsion = is_torsion(trace_z, lat)
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
                       n_max=n_max, finite_shadow=shadow, timings=timings)

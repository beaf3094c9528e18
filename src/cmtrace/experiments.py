"""The trace stages: build the conductor-p*f orbit on X_0(p^2 M), act by the
ring class Galois kernel, trace, and classify the result.

The inputs (ExperimentSpec) and the finite shadow (experiment_finite: optimal
embedding, converse scan, two-to-one fiber structure, involution pairing) live
in cmtrace.finite, which imports no mpmath.  trace_point runs that shadow
first, so the analytic outcome and the group-theoretic bookkeeping are
produced side by side, and builds the orbit from the kernel forms the shadow
computed.  Then, in stages:
orbit_options (each point's W_Q move and the series budget, before any
sign), atkin_lehner_sign, period_lattice, and orbit_trace (the moves
evaluated, with w_Q applied and each K_Q exact on the lattice, fiber by
fiber).

The fibers of W_{p^2}.  The shadow pairs the p + 1 kernel classes into
(p + 1) / 2 fibers, and W_{p^2} pairs the orbit the same way.  For a fiber
{i, j}, the form G of W_{p^2} (tau_i + k) (heegner.al_move) must have tau_j's
B mod 2N and tau_j's reduced form: Heegner forms of one B mod 2N are
Gamma_0(N)-equivalent exactly when they are SL_2(Z)-equivalent (Gross,
Kohnen and Zagier, Math. Ann. 278, 1987, section I.1, the bijection that
heegner.galois_orbit relies on), and W_{p^2} keeps B mod 2N on
heegner_form's stratum p^2 | B.  fiber_pairs checks both in integers on
every fiber and raises FiberPairingError when one fails; the search
oracles.w_p2_pairs finds the same pairs.  phi changes by a period under
Gamma_0(N), and phi(W_{p^2} tau) = w_p phi(tau) + K_{p^2} exactly (modparam
docstring), so z_j = w_p z_i + K_{p^2} + lam with lam in the lattice, and
the fiber sums to (1 + w_p) z_i + K_{p^2} + lam: that is K_{p^2} + lam
when w_p = -1, with no series at the trace precision, and when w_p = +1
only the point of fewer terms is evaluated at the trace precision.

Reading lam.  orbit_trace takes the lattice vector lam nearest to v = z_j -
w_p z_i - K_{p^2} (periods.nearest_vector), with z_j, and z_i when w_p =
-1, evaluated at LAMBDA_DIGITS = 5, and accepts it only when |v - lam| <=
LAMBDA_BUDGET = 10^-9 < |b1| / 2, b1 the shortest lattice vector.  A
LAMBDA_DIGITS value errs by less than 10^-10.  The series at the point it is
given errs by under 10^-15 (tail) plus 10^-20 (rounding; modparam
docstring).  The point s, with 0 <= B < 2A so |Re s| < 1, enters the
evaluator rounded to its P bits, 2^-P < 10^-20, which moves s by at most
2^-P (1 + y), y = Im s.  With t = 2 pi y, |phi'| = 2 pi |f| <= 2 pi sqrt(3)
|q| / (1 - |q|)^2 <= 2 pi sqrt(3) / t^2 (|a_n| <= sqrt(3) n), so phi moves
by at most 2 pi sqrt(3) 2^-P (1 / t^2 + 1 / (2 pi t)).  Every move is
within the series budget at the trace precision, at least TRACE_MIN_DIGITS
= 15, so NMAX_CAP >= (15 + 10) ln 10 / t and t >= 5.7 10^-5, which bounds
that by 3.4 10^-11.  A value at the trace precision errs by less than
10^-(digits+5) the same way, and K_{p^2}, w_Q and each K_Q of a move are
exact, so v is within 2.1 10^-10 of the true lam*.  Then lam* is the
nearest vector and passes the check, and a lam that passes is lam*: |lam -
lam*| < 2 LAMBDA_BUDGET < |b1|.
So the fiber sum is exact up to the trace-precision value of z_i, and z_j
= z_i + K_{p^2} + lam at w_p = +1 is known to the trace precision; at w_p =
-1 each point's own value is known to LAMBDA_DIGITS, which its entry states.
A failed check means that the pairing or the lattice is not phi's, or that
an evaluation broke its bound; it raises FiberPairingError, never a wrong
lam.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations
from math import prod

import mpmath as mp

from .curves import CurveModel
from .errors import FiberPairingError, InputError
from .finite import ExperimentSpec, FiniteReport, experiment_finite
from .fp import factorint
from .heegner import HeegnerTau, al_move, galois_orbit, heegner_form
from .modparam import (GUARD, K_DIGITS, SeriesBudgetError, al_constant, al_constant_points,
                       atkin_lehner_sign, eval_phi, local_sign, phi_terms)
from .periods import (PeriodLattice, _reduced_basis, elliptic_exp, is_torsion, nearest_vector,
                      period_lattice, torsion_residual)
from .quadforms import class_number, reduce_form
from .recognize import curve_equation_holds_exactly, recognize_in_quadratic

LAMBDA_DIGITS = 5           # the values a fiber's lattice vector is read from (module docstring)
LAMBDA_BUDGET = 1e-9


@dataclass(frozen=True)
class OrbitEntry:
    proj: tuple[int, int]
    form: tuple[int, int, int]
    tau: str
    z: tuple[str, str]
    digits: int                      # z is known to this many digits
    q: int                           # the W_Q the point went through, 1 for none
    n_max: int                       # terms of the series its value or lam was read from
    source: str                      # "series"; "same:i" / "conj:i": entry i's series reused;
                                     # "fiber:i": from fiber mate i by K_{p^2} + lam


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
    series: tuple[int, int]          # orbit series run at digits and at LAMBDA_DIGITS
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
            "series": dict(zip(("digits", "lambda_digits"), self.series)),
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


def fiber_pairs(model: CurveModel, orbit, shadow: FiniteReport) -> tuple[tuple[int, int], ...]:
    """The shadow's fibers as pairs (i, j), i < j, of orbit indices in kernel
    order, sorted, each checked in integers: the form of W_{p^2} (tau_i + k)
    (al_move) has tau_j's B mod 2N and tau_j's reduced form, so the two
    points are one point of X_0(N) (module docstring).  FiberPairingError
    for a fiber that fails."""
    index = {kc.proj: i for i, kc in enumerate(shadow.classes)}
    n, p2 = model.n, model.p ** 2
    pairs = sorted(tuple(sorted(index[u] for u in members)) for members in shadow.fibers.values())
    for i, j in pairs:
        image, mate = al_move(orbit[i].form, n, p2)[1], orbit[j].form
        if (image.b - mate.b) % (2 * n) or reduce_form(image) != reduce_form(mate):
            raise FiberPairingError(f"W_{p2} does not send orbit point {i} to the "
                                    f"Gamma_0({n}) class of its fiber mate {j}")
    return tuple(pairs)


def orbit_trace(model: CurveModel, orbit, shadow: FiniteReport, moves, wp: int,
                lat: PeriodLattice):
    """Evaluate the parametrisation over the orbit by the moves and the
    fibers of the shadow, and sum the fibers in order of their first point:
    phi(tau) = w_Q (phi(W_Q (tau + k)) - K_Q) is exact, so no period enters
    (modparam docstring), with w_p in place of a None sign of al_signs and
    each K_Q = (i w1 + j w2) / n on lat (al_constant).

    Each fiber (a, b) of fiber_pairs, a the point with fewer terms (the
    first in kernel order on a tie), sums to (1 + w_p) z_a + K_{p^2} + lam,
    lam in the lattice (module docstring): a is evaluated at the trace
    precision when w_p = +1, b's value z_b = z_a + K_{p^2} + lam ("fiber:a"),
    and with w_p = -1 both are evaluated at LAMBDA_DIGITS only.  lam is read
    off b's LAMBDA_DIGITS value (and a's when w_p = -1), and the fiber is
    rejected unless w_p z_a + K_{p^2} + lam is within LAMBDA_BUDGET of it.

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
    from the point's own evaluation only by the rounding of the two.  Each
    key is evaluated at its point with 0 <= B < 2A, at the highest precision
    any of its points asks for: the trace precision first, then
    LAMBDA_DIGITS, so a mate b whose key or mate key was evaluated at the
    trace precision takes that value ("same:i" or "conj:i", i the point that
    evaluated it) and needs no lam.  A key and its mate have one A, so one
    n_max, and at each precision the first point of each in kernel order is
    the one evaluated.

    The evaluations at every precision, the K_Q points at K_DIGITS included,
    run from the most terms down: the a_n sieve is extended once.  Each value
    depends only on (s, digits, a[0..n_max]), so the order changes nothing.
    Returns the entries, the trace, the most terms evaluated, (Q, w_Q, i, j,
    n) for each K_Q used, and the number of orbit series run at the trace
    precision and at LAMBDA_DIGITS."""
    signs = {q_div: wp if w is None else w for q_div, w in al_signs(model)}
    digits, p2 = lat.digits, model.p ** 2
    pairs = [(i, j) if moves[i].n_max <= moves[j].n_max else (j, i)
             for i, j in fiber_pairs(model, orbit, shadow)]
    full = {a for a, _ in pairs} if wp == 1 else set()
    want = [digits if i in full else LAMBDA_DIGITS for i in range(len(orbit))]
    with mp.workdps(digits + GUARD):
        root = mp.sqrt(-orbit[0].form.disc())
        evaluated, jobs = {}, []            # evaluated: key -> (point, precision, terms)
        keys, conj, sources, precs = ([None] * len(orbit) for _ in range(4))
        for i in sorted(range(len(orbit)), key=lambda i: (-want[i], -moves[i].n_max, i)):
            form = moves[i].point.form
            key, mate = (form.a, form.b % (2 * form.a)), (form.a, -form.b % (2 * form.a))
            conj[i] = key not in evaluated and mate in evaluated
            keys[i] = mate if conj[i] else key
            if keys[i] in evaluated:
                j, precs[i], _ = evaluated[keys[i]]
                sources[i] = f"{'conj' if conj[i] else 'same'}:{j}"
            else:
                terms = phi_terms(root / (2 * form.a), want[i])
                evaluated[key], precs[i], sources[i] = (i, want[i], terms), want[i], "series"
                jobs.append((terms, key))
        reads_lam = any(precs[b] < digits for _, b in pairs)
        for q_div in sorted({mv.q for mv in moves} - {1} | ({p2} if reads_lam else set())):
            pts = al_constant_points(model.n, q_div, signs[q_div], K_DIGITS)
            jobs.append((phi_terms(pts[0][1].imag, K_DIGITS) if pts else 0, q_div))
        values, exact = {}, {}
        for _, job in sorted(jobs, key=lambda j: -j[0]):
            if isinstance(job, int):
                exact[job] = al_constant(lat, model.n, job, signs[job])
                continue
            a, b = job
            z = eval_phi(model, mp.mpc(-b, root) / (2 * a), evaluated[job][1])
            values[job] = mp.mpc(z.real) if (a, -b % (2 * a)) == job else z
        consts = {q_div: (i * lat.w1 + j * lat.w2) / n for q_div, (i, j, n) in exact.items()}
        zs = []
        for mv, key, c in zip(moves, keys, conj):
            z = mp.conj(values[key]) if c else values[key]
            zs.append(z if mv.q == 1 else signs[mv.q] * (z - consts[mv.q]))
        half = abs(_reduced_basis(lat)[0]) / 2
        trace_z = mp.mpc(0)
        for a, b in pairs:               # fixed order of the fibers' first points
            if precs[b] == digits:
                trace_z += zs[a] + zs[b]
                continue
            i, j = nearest_vector(lat, zs[b] - wp * zs[a] - consts[p2])
            shift = consts[p2] + i * lat.w1 + j * lat.w2         # K_{p^2} + lam
            miss = abs(wp * zs[a] + shift - zs[b])
            if not miss <= LAMBDA_BUDGET < half:
                raise FiberPairingError(
                    f"orbit points {a} and {b}: w_p z_a + K_{p2} + lam misses the mate's "
                    f"{LAMBDA_DIGITS}-digit value by {mp.nstr(miss, 3)}, against "
                    f"{LAMBDA_BUDGET:.2g} and |b1| / 2 = {mp.nstr(half, 3)}")
            trace_z += (1 + wp) * zs[a] + shift
            if wp == 1:
                zs[b], precs[b], sources[b] = zs[a] + shift, digits, f"fiber:{a}"
        entries = []
        for kc, pt, mv, z, prec, key, source in zip(shadow.classes, orbit, moves, zs, precs,
                                                     keys, sources):
            entries.append(OrbitEntry(
                proj=kc.proj,
                form=(pt.form.a, pt.form.b, pt.form.c),
                tau=mp.nstr(pt.tau(digits), min(digits, 30)),
                z=(mp.nstr(z.real, min(prec, 30)), mp.nstr(z.imag, min(prec, 30))),
                digits=prec, q=mv.q, n_max=evaluated[key][2], source=source,
            ))
        constants = tuple((q_div, signs[q_div], *exact[q_div]) for q_div in sorted(exact))
        runs = [prec for _, prec, _ in evaluated.values()]
        series = (runs.count(digits), runs.count(LAMBDA_DIGITS))
        return tuple(entries), +trace_z, max(n for n, _ in jobs), constants, series


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
    entries, trace_z, n_max, constants, series = orbit_trace(model, orbit, shadow, moves, wp,
                                                             lat)
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
                       n_max=n_max, finite_shadow=shadow, constants=constants, series=series,
                       timings=timings)

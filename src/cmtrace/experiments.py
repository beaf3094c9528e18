"""The trace stages: build the conductor-p*f orbit on X_0(p^2 M), act by the
ring class Galois kernel, trace, and classify the result.

The inputs (ExperimentSpec) and the finite shadow (experiment_finite: optimal
embedding, converse scan, two-to-one fiber structure, involution pairing) live
in cmtrace.finite, which imports no mpmath.  trace_point runs that shadow
first, so the analytic outcome and the group-theoretic bookkeeping are
produced side by side, and builds the kernel forms, which the shadow does not
need, and the orbit from them.  Then, in stages:
orbit_options (each point's W_Q move and the series budget, before any
sign), atkin_lehner_sign, period_lattice, and orbit_trace (the moves
evaluated, with w_Q applied, each K_Q exact on the lattice and each period
Omega of a move into the whole coset read off the lattice, fiber by
fiber).

The fibers of W_{p^2}.  The shadow pairs the p + 1 points of P^1(F_p) into
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

Reading lam.  orbit_trace reads lam off v = z_j - w_p z_i - K_{p^2}, with
z_j, and z_i when w_p = -1, evaluated at LAMBDA_DIGITS = 5, as every
lattice vector is read (periods.read_vector; 2520 K_Q too, modparam
docstring): the nearest lattice vector, accepted only when |v - lam| <
periods.LAMBDA_BUDGET = 10^-9 < |b1| / 2, b1 the shortest lattice vector.  A
LAMBDA_DIGITS value errs by less than 10^-10.  The series at the point it is
given errs by under 10^-15 (tail) plus 1.5 10^-13 (rounding: in hardware
floats up to modparam.FLOAT_CAP terms, 10^-20 in fixed point above; modparam
docstring).  The point s, with 0 <= B < 2A so |Re s| < 1, enters the
evaluator rounded to its P bits, 2^-P < 10^-20, which moves s by at most
2^-P (1 + y), y = Im s.  With t = 2 pi y, |phi'| = 2 pi |f| <= 2 pi sqrt(3)
|q| / (1 - |q|)^2 <= 2 pi sqrt(3) / t^2 (|a_n| <= sqrt(3) n), so phi moves
by at most 2 pi sqrt(3) 2^-P (1 / t^2 + 1 / (2 pi t)).  Every move is
within the series budget at the trace precision, at least TRACE_MIN_DIGITS
= 15, so NMAX_CAP >= (15 + 10) ln 10 / t and t >= 5.7 10^-5, which bounds
that by 3.4 10^-11.  A value at the trace precision errs by less than
10^-(digits+5) the same way, and K_{p^2}, w_Q and each K_Q of a move are
exact, so v is within 2.1 10^-10 of the true lam*, and the read returns
lam* (periods docstring).
So the fiber sum is exact up to the trace-precision value of z_i, and z_j
= z_i + K_{p^2} + lam at w_p = +1 is known to the trace precision; at w_p =
-1 each point's own value is known to LAMBDA_DIGITS, which its entry states.
A failed check means that the pairing or the lattice is not phi's, or that
an evaluation broke its bound; it raises FiberPairingError, never a wrong
lam.

Moves into the whole coset.  Every integer matrix M = (Q x, y; N z, Q w) of
determinant Q, Q || N, lies in W_Q Gamma_0(N) (Atkin and Lehner, Math. Ann.
185, 1970): gamma = W_Q^-1 M has determinant 1 and N divides its lower left
entry.  phi(W_Q s) = w_Q phi(s) + K_Q (modparam docstring), and Omega =
phi(gamma tau) - phi(tau) does not depend on tau and is a period, so phi(tau)
= w_Q (phi(M tau) - K_Q) - Omega, with Omega = 0 when gamma = +-T^k, the
translation moves W_Q (tau + k).  M tau has the leading coefficient F(Q w,
-N z) / Q, so the best M is a shortest vector (w, z) of the positive
definite form F(Q w, -N z) with gcd(Q w, (N/Q) z) = 1 (heegner.coset_move).
orbit_trace reads Omega as it reads lam: v = w_Q (phi(M tau) - K_Q) - z5,
z5 the point's value by its translation move at LAMBDA_DIGITS, and Omega is
read off v against LAMBDA_BUDGET.  The budget above holds unchanged:
phi(M tau) is known to the trace precision, every K_Q is exact, and the
translation move is within the series budget at the trace precision, so
z5 errs by less than 10^-10, as above, and v is within 1.1 10^-10 of
Omega: the read returns Omega, and one that fails raises
FiberPairingError.  A point evaluated at LAMBDA_DIGITS keeps its
translation move, since a read there would cost as much as the series it
saves.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import prod

import mpmath as mp

from .curves import _CM_FIELDS, CurveModel
from .errors import FiberPairingError, InputError
from .finite import ExperimentSpec, FiniteReport, experiment_finite
from .fp import factorint, order_data
from .heegner import al_move, coset_move, galois_orbit, heegner_form
from .modparam import (GUARD, LAMBDA_DIGITS, SeriesBudgetError, al_constant, al_constant_points,
                       atkin_lehner_sign, eval_phi, im_tau, local_sign, phi_terms)
from .periods import (PeriodLattice, elliptic_exp, is_torsion, locate, period_lattice,
                      read_vector, torsion_residual)
from .quadforms import kernel_classes, reduce_form
from .recognize import curve_equation_holds_exactly, recognize_in_quadratic

# The fundamental discriminants below -4 of class number one (Heegner, Baker
# and Stark), the CM fields of curves' table but -3 and -4: the fields where a
# trace at f = 1 is recognised exactly.
CLASS_NUMBER_ONE = frozenset(_CM_FIELDS.values()) - {-3, -4}


class OrbitEntry(namedtuple("OrbitEntry", "proj form z digits q n_max source")):
    """One orbit point of a trace: its kernel class proj; its form (a, b, c),
    which fixes its point tau (TraceReport.to_json prints tau to min(digits,
    30) digits); z, an mpc number at the trace's working precision known to
    `digits` digits (printed to min(`digits`, 30)); q the W_Q the point went
    through (1 for none), n_max the terms of the series its value or lam was
    read from, and source: "series"; "same:i" / "conj:i": entry i's series
    reused; "fiber:i": from fiber mate i by K_{p^2} + lam."""

    __slots__ = ()


class OrbitMove(namedtuple("OrbitMove", "q form n_max low")):
    """How one orbit point tau is evaluated at the trace precision: phi(tau)
    = w_Q (phi(s) - K_Q) - Omega, s = M tau the point of form, M in W_Q
    Gamma_0(N), with n_max terms there.  q = 1 keeps tau and its form.  low
    is None when M = +-W_Q T^k, so that Omega = 0; else it is the point's
    best translation move (q, form, n_max, None), which the point takes at
    LAMBDA_DIGITS and Omega is read from (module docstring)."""

    __slots__ = ()


class TraceReport(namedtuple("TraceReport", "spec wp orbit trace_z residual verdict recognized "
                                             "n_max finite_shadow constants series timings")):
    """One trace_point run: verdict is torsion, non_torsion or undecided;
    recognized the point (x, y) as AlgebraicNumbers or None; constants the
    (Q, w_Q, i, j, n) with K_Q = (i w1 + j w2) / n; series the orbit series
    run at digits and at LAMBDA_DIGITS; timings the seconds per stage."""

    __slots__ = ()

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
            "orbit": [_entry_json(entry, digits) for entry in self.orbit],
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


def _entry_json(entry: OrbitEntry, digits: int) -> dict:
    """The entry's fields and its form's point tau, computed at digits +
    GUARD and printed to min(digits, 30) digits, z's parts to
    min(entry.digits, 30)."""
    a, b, c = entry.form
    with mp.workdps(digits + GUARD):
        tau = mp.mpc(-b, mp.sqrt(4 * a * c - b * b)) / (2 * a)
    shown = min(entry.digits, 30)
    # tau between form and z, the key order of every report's JSON
    return {"proj": entry.proj, "form": entry.form, "tau": mp.nstr(tau, min(digits, 30)),
            **entry._asdict(), "z": (mp.nstr(entry.z.real, shown), mp.nstr(entry.z.imag, shown))}


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
    """The move of each orbit point.  Its translation move is the cheapest
    option within the budget, tau itself on a tie, among tau (q = 1) and its
    best W_Q (tau + k) for each Q of al_signs(model) whose leading
    coefficient is smaller and whose K_Q points need at most NMAX_CAP terms
    at LAMBDA_DIGITS (Im = sqrt(Q) / N, as modparam.im_tau of D = -4Q and
    A = N).  K_Q is exact and costs one short evaluation (modparam
    docstring), so no sign enters the choice and trace_point runs this
    before atkin_lehner_sign.  The move is the best point of the whole
    coset W_Q Gamma_0(N) for those Q but p^2 (heegner.coset_move, the least
    leading coefficient, the smallest Q on a tie) instead, when its terms
    plus those of the LAMBDA_DIGITS read of Omega at the translation move
    are fewer than the translation move's.  Each point searches its own
    cosets.  Q = p^2 is left out: W_{p^2} Gamma_0(N) tau is the Gamma_0(N)
    class of tau's fiber mate (module docstring), whose best point is the
    mate's own Gamma_0(N)-reduced orbit form, never cheaper than the
    fiber's trace-precision point.  No coset is searched when w_p = -1 from
    local data, since then orbit_trace evaluates every point at
    LAMBDA_DIGITS by its translation move.  The points share one D, and
    each Im tau is sqrt|D| / (2A) as a correctly rounded double
    (modparam.im_tau).  SeriesBudgetError, with the least n_max any
    translation move has, when some point has no option within the budget:
    a read of Omega needs the translation within it."""
    qs = [q for q, _ in al_signs(model) if _terms(im_tau(-4 * q, model.n), LAMBDA_DIGITS)[1]]
    picks, p2, disc = [], model.p ** 2, orbit[0].disc()
    # w_p = -1 from local data: every point is evaluated at LAMBDA_DIGITS
    cosets_wanted = dict(al_signs(model))[p2] != -1
    for pt in orbit:
        opts = [(*_terms(im_tau(disc, pt.a), digits), 1, pt)]
        for q_div in qs:
            form = al_move(pt, model.n, q_div)
            if form.a < pt.a:
                opts.append((*_terms(im_tau(disc, form.a), digits), q_div, form))
        n, ok, q_div, form = min(opts, key=lambda o: (o[0], o[2]))
        move = OrbitMove(q_div, form, n, None)
        cosets = []
        for q_div in (q for q in qs if q != p2) if ok and cosets_wanted else ():
            translation, image = coset_move(pt, model.n, q_div)
            if not translation and image.a < form.a:
                cosets.append((image.a, q_div, image))
        if cosets:
            least, q_div, image = min(cosets)
            terms = phi_terms(im_tau(disc, least), digits)
            if terms + phi_terms(im_tau(disc, form.a), LAMBDA_DIGITS) < n:
                move = OrbitMove(q_div, image, terms, move)
        picks.append((ok, move))
    if not all(ok for ok, _ in picks):
        raise SeriesBudgetError(max((mv.low or mv).n_max for _, mv in picks))
    return tuple(mv for _, mv in picks)


def fiber_pairs(model: CurveModel, orbit, classes,
                shadow: FiniteReport) -> tuple[tuple[int, int], ...]:
    """The shadow's fibers as pairs (i, j), i < j, of orbit indices (orbit[i]
    is the point of classes[i]), sorted, each checked in integers: the form
    of W_{p^2} (tau_i + k) (al_move) has tau_j's B mod 2N and tau_j's
    reduced form, so the two points are one point of X_0(N) (module
    docstring).  FiberPairingError for a fiber that fails."""
    index = {kc.proj: i for i, kc in enumerate(classes)}
    n, p2 = model.n, model.p ** 2
    pairs = sorted(tuple(sorted(index[u] for u in members)) for members in shadow.fibers.values())
    for i, j in pairs:
        image, mate = al_move(orbit[i], n, p2), orbit[j]
        if (image.b - mate.b) % (2 * n) or reduce_form(image) != reduce_form(mate):
            raise FiberPairingError(f"W_{p2} does not send orbit point {i} to the "
                                    f"Gamma_0({n}) class of its fiber mate {j}")
    return tuple(pairs)


def orbit_trace(model: CurveModel, orbit, classes, pairs, moves, wp: int, lat: PeriodLattice):
    """Evaluate the parametrisation over the orbit (orbit[i] the point of
    classes[i]) by the moves and the fibers of the shadow, and sum the
    fibers in order of their first point:
    phi(tau) = w_Q (phi(M tau) - K_Q) - Omega (modparam docstring), with w_p
    in place of a None sign of al_signs and each K_Q = (i w1 + j w2) / n on
    lat (al_constant).  A point evaluated at the trace precision takes its
    move; one whose move is off the translations (move.low) also takes its
    translation move at LAMBDA_DIGITS, and Omega is read off the difference
    against LAMBDA_BUDGET (periods.read_vector, module docstring).  A
    point evaluated at LAMBDA_DIGITS takes its translation move, Omega = 0.

    Each fiber (a, b) of fiber_pairs, a the point with fewer terms (a
    translation move, then the first in kernel order, on a tie), sums to
    (1 + w_p) z_a + K_{p^2} + lam, lam in the lattice (module docstring): a
    is evaluated at the trace precision when w_p = +1, b's value z_b = z_a +
    K_{p^2} + lam ("fiber:a"), and with w_p = -1 both are evaluated at
    LAMBDA_DIGITS only.  lam is read off b's LAMBDA_DIGITS value (and a's
    when w_p = -1) by periods.read_vector, against LAMBDA_BUDGET.

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

    The evaluations at every precision, the K_Q points included,
    run from the most terms down: the a_n sieve is extended once.  Each value
    depends only on (s, digits, a[0..n_max]), so the order changes nothing.
    Returns the entries, the trace, the most terms evaluated, (Q, w_Q, i, j,
    n) for each K_Q used, and the number of orbit series run at the trace
    precision and at LAMBDA_DIGITS, the reads of Omega among them."""
    signs = {q_div: wp if w is None else w for q_div, w in al_signs(model)}
    digits, p2, count = lat.digits, model.p ** 2, len(orbit)
    # fewer terms first, then a translation move (no Omega to read), then kernel order
    pairs = [tuple(sorted(pair, key=lambda i: (moves[i].n_max, moves[i].low is not None)))
             for pair in pairs]
    full = {a for a, _ in pairs} if wp == 1 else set()
    want = [digits if i in full else LAMBDA_DIGITS for i in range(count)]
    used = [mv if i in full else mv.low or mv for i, mv in enumerate(moves)]
    reads = [i for i in sorted(full) if moves[i].low]
    disc = orbit[0].disc()
    with mp.workdps(digits + GUARD):
        root = mp.sqrt(-disc)
        evaluated, jobs = {}, []            # evaluated: key -> (point, precision, terms)

        def plan(i: int, form, prec: int):
            """(key, conjugated, precision, source) of point i's evaluation at
            the point of form, a new series only for a new key and mate."""
            key, mate = (form.a, form.b % (2 * form.a)), (form.a, -form.b % (2 * form.a))
            conj = key not in evaluated and mate in evaluated
            if conj or key in evaluated:
                j, done, _ = evaluated[mate if conj else key]
                return mate if conj else key, conj, done, f"{'conj' if conj else 'same'}:{j}"
            evaluated[key] = (i, prec, phi_terms(im_tau(disc, form.a), prec))
            jobs.append((evaluated[key][2], key))
            return key, False, prec, "series"

        plans = [None] * count
        for i in sorted(range(count), key=lambda i: (-want[i], -used[i].form.a, i)):
            plans[i] = plan(i, used[i].form, want[i])
        read_plans = [plan(i, moves[i].low.form, LAMBDA_DIGITS) for i in reads]
        precs = [prec for _, _, prec, _ in plans]
        sources = [source for *_, source in plans]
        reads_lam = any(precs[b] < digits for _, b in pairs)
        qs = {mv.q for mv in used} | {moves[i].low.q for i in reads}
        for q_div in sorted(qs - {1} | ({p2} if reads_lam else set())):
            pts = al_constant_points(model.n, q_div, signs[q_div])     # both at Im sqrt(Q) / N
            terms = phi_terms(im_tau(-4 * q_div, model.n), LAMBDA_DIGITS) if pts else 0
            jobs.append((terms, q_div))
        values, exact = {}, {}
        for _, job in sorted(jobs, key=lambda j: -j[0]):
            if isinstance(job, int):
                exact[job] = al_constant(lat, model.n, job, signs[job])
                continue
            a, b = job
            z = eval_phi(model, mp.mpc(-b, root) / (2 * a), evaluated[job][1])
            values[job] = mp.mpc(z.real) if (a, -b % (2 * a)) == job else z
        consts = {q_div: (i * lat.w1 + j * lat.w2) / n for q_div, (i, j, n) in exact.items()}

        def value(mv, key, conj):
            z = mp.conj(values[key]) if conj else values[key]
            return z if mv.q == 1 else signs[mv.q] * (z - consts[mv.q])

        zs = [value(mv, key, conj) for mv, (key, conj, *_) in zip(used, plans)]
        for i, (key, conj, *_) in zip(reads, read_plans):
            x, y = read_vector(lat, zs[i] - value(moves[i].low, key, conj), FiberPairingError,
                               f"orbit point {i}: the {LAMBDA_DIGITS}-digit read of the "
                               f"period of its W_{moves[i].q} move")
            zs[i] -= x * lat.w1 + y * lat.w2                              # Omega
        trace_z = mp.mpc(0)
        for a, b in pairs:               # fixed order of the fibers' first points
            if precs[b] == digits:
                trace_z += zs[a] + zs[b]
                continue
            x, y = read_vector(lat, zs[b] - wp * zs[a] - consts[p2], FiberPairingError,
                               f"orbit points {a} and {b}: the {LAMBDA_DIGITS}-digit read of lam")
            shift = consts[p2] + x * lat.w1 + y * lat.w2         # K_{p^2} + lam
            trace_z += (1 + wp) * zs[a] + shift
            if wp == 1:
                zs[b], precs[b], sources[b] = zs[a] + shift, digits, f"fiber:{a}"
        entries = []
        for kc, pt, mv, z, prec, (key, *_), source in zip(classes, orbit, used, zs, precs, plans,
                                                          sources):
            entries.append(OrbitEntry(
                proj=kc.proj,
                form=tuple(pt),
                z=z, digits=prec, q=mv.q, n_max=evaluated[key][2], source=source,
            ))
        constants = tuple((q_div, signs[q_div], *exact[q_div]) for q_div in sorted(exact))
        runs = [prec for _, prec, _ in evaluated.values()]
        series = (runs.count(digits), runs.count(LAMBDA_DIGITS))
        return tuple(entries), +trace_z, max(n for n, _ in jobs), constants, series


def trace_point(spec: ExperimentSpec) -> TraceReport:
    """Full pipeline: finite shadow; kernel (built once, here), oriented orbit,
    fibers, moves and series budget; sign, periods, q-series values, trace,
    torsion verdict and (for class number one at f = 1) exact recognition."""
    if spec.mode == "finite_only":
        raise InputError("trace_point needs an analytic mode")
    if spec.curve is None:
        raise InputError("trace_point needs a curve")
    model = spec.curve
    digits = spec.digits

    t0 = time.perf_counter()
    shadow = experiment_finite(spec)             # validates the spec first
    t1 = time.perf_counter()
    classes = kernel_classes(order_data(spec.dK, spec.f), model.p)
    base = heegner_form(model.n, spec.dK, model.p * spec.f)
    orbit = galois_orbit(base, model.n, [kc.form for kc in classes])
    pairs = fiber_pairs(model, orbit, classes, shadow)
    # an over-budget orbit fails here, before the sign can evaluate a series
    moves = orbit_options(model, orbit, digits)
    t2 = time.perf_counter()
    timings = {"finite_layer": t1 - t0, "orbit_plan": t2 - t1}

    wp = atkin_lehner_sign(model.minimal, model.n, model.p * model.p)
    timings["atkin_lehner"] = time.perf_counter() - t2

    t0 = time.perf_counter()
    lat = period_lattice(model.minimal, digits)
    entries, trace_z, n_max, constants, series = orbit_trace(model, orbit, classes, pairs, moves,
                                                             wp, lat)
    timings["orbit_evaluation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    point = locate(lat, trace_z)                 # one solve for the three readers
    residual = torsion_residual(point)
    verdict, recognized = ("torsion" if is_torsion(point) else "undecided"), None
    if verdict == "undecided" and spec.f == 1 and spec.dK in CLASS_NUMBER_ONE:
        # not torsion, so m = 1 is above the torsion limit, hence the infinity one
        px, py = elliptic_exp(point)
        rx = recognize_in_quadratic(px, spec.dK, digits)
        ry = recognize_in_quadratic(py, spec.dK, digits)
        if (rx is not None and ry is not None
                and curve_equation_holds_exactly(model.minimal.ainvs, rx, ry)):
            recognized = (rx, ry)
            verdict = "non_torsion"
    timings["classification"] = time.perf_counter() - t0

    return TraceReport(spec=spec, wp=wp, orbit=tuple(entries), trace_z=trace_z,
                       residual=residual, verdict=verdict, recognized=recognized,
                       n_max=n_max, finite_shadow=shadow, constants=constants, series=series,
                       timings=timings)

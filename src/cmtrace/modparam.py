"""Evaluation of the weight-two newform and its modular parametrisation, plus
a numerical Atkin-Lehner eigenvalue oracle.

The parametrisation value is sum a_n q^n / n truncated where the tail is
provably below 10^(-digits-10): coefficients obey |a_n| <= sigma_0(n) sqrt(n),
and sigma_0(n)/sqrt(n) <= sqrt(3) (maximise (e+1) p^(-e/2) at p = 2, 3), so
the tail after n_max is at most sqrt(3) |q|^(n_max+1) / (1 - |q|).

Both series, sum a_n q^n / n and the newform sum a_n q^n, go through one
fixed-point evaluator using rectangular splitting (Paterson-Stockmeyer 1973;
Johansson, ISSAC 2014).  With P the working precision of digits + GUARD
decimal digits (so 2^-P < 10^(-digits-15)), numbers are Python integers
scaled by 2^F, F = P + bit_length(n_max) + FIXED_GUARD, and u = 2^-F.  q is
computed once by mpmath; the baby steps q^0..q^m, m = isqrt(n_max), are
chained with bit_length(m) + 2 more bits, so each carries at most 2 ulps.
Writing n = j m + i, block j is sum_i a_n q^i / n over the n of the block
with a_n != 0 (itertools.compress picks them from the block's slice of the
a_n list), and the blocks are combined by Horner in q^m: only the
O(sqrt(n_max)) baby and giant steps are full-precision products.  The terms
of a block are taken in pairs, a1 x1 / n1 + a2 x2 / n2 = (a1 n2 x1 + a2 n1
x2) / (n1 n2): four small-by-big products and one floor division per real
component and pair, a single-digit CPython division while n1 n2 < 2^30
(n_max below 2^15); an odd count leaves one term with its own division.
Every truncation costs at most one ulp per real component.  For the
parametrisation |a_n / n| <= sqrt(3), so a pair errs by at most 4 sqrt(3) +
1 ulps and a term by at most 2 sqrt(3) + 1 (one floor per pair only lowers
the count of truncations) before Horner multiplies it by powers of |q^m| <
1, and each of the n_max / m Horner steps adds 1 ulp plus 2 ulps times the
partial sum, which is at most sqrt(3) / (1 - |q|), about sqrt(3) n_max /
((digits + 10) log 10) by the choice of n_max.  The total is below 150 n_max
u < 2^(7.3 - P - FIXED_GUARD) < 2^-P for every n_max up to NMAX_CAP: under
10^(-digits-15), so the absolute target 10^(-digits-10) still holds and the
tail bound is untouched.  The newform (weight 0, no division) has |a_n| <=
sqrt(3) n instead of sqrt(3), which the same budget absorbs for the
Atkin-Lehner sign test and its 10^(-digits/2) tolerance; the tests compare
both weights with the term-by-term mpc sum (tests/oracles.py).  The error
is absolute, not relative: a value far below 2^-P comes back as noise or 0.

Atkin-Lehner moves.  phi'(tau) = 2 pi i f(tau), and for W_Q = (a, b; N, d)
of determinant Q, f | W_Q = w_Q f reads Q (N tau + d)^-2 f(W_Q tau) = w_Q
f(tau), so phi(W_Q tau) and w_Q phi(tau) have the same derivative: K_Q =
phi(W_Q tau) - w_Q phi(tau) is a constant.  As phi has period 1, phi(tau) =
w_Q (phi(W_Q (tau + k)) - K_Q) for every integer k, exactly: no period
enters, unlike a move inside Gamma_0(N), which adds one.  So an orbit point
can be evaluated where Im is larger and the series shorter:
cmtrace.experiments.orbit_options picks each point's move before any sign.
The a_n are real, so phi(-conj tau) = conj phi(tau), and with period 1 the
points of the forms (A, B, C) and (A, +-B mod 2A, C') share one series:
orbit_trace evaluates one per such class of the moved points.  With
K_{p^2} exact, a fiber of W_{p^2} needs the trace precision at one point at
most, the other read off by a lattice vector (cmtrace.experiments
docstring).

The constants are exact.  phi(i oo) = 0, so K_Q = phi(W_Q oo), the image of
the cusp W_Q oo = a / N.  As ad - bN = Q, Q | a and Q | d, it is x / (N/Q)
with gcd(x, N/Q) = 1, and a cusp of X_0(N) of denominator c is defined over
Q(zeta_gcd(c, N/c)): here gcd(N/Q, Q) = 1, so it is rational.  phi is defined
over Q, so K_Q lies in E(Q), and it is torsion (Manin-Drinfeld).  By Mazur
(Publ. Math. IHES 47, 1977) its order is in MAZUR_ORDERS = {1..10, 12}, each
dividing K_EXPONENT = 2520, so 2520 K_Q is a vector of the lattice of phi.
al_constant evaluates K_Q once, at K_DIGITS = 20, from the top s0 of the
isometric circle of W_Q, where Im s0 = Im W_Q s0 = sqrt(Q) / N is as large
as it can be for both; when N | a + d, W_Q s0 = s0 + (a + d) / N, so K_Q =
(1 - w_Q) phi(s0), which is 0 for w_Q = +1 (W_121 on 121b1).  Each
evaluation errs by less than 10^-(K_DIGITS+10) (tail) plus 10^-(K_DIGITS+15)
(rounding).  The points themselves are rounded to 120 bits, |s| < 1.5, and
|phi'| = 2 pi |f| <= 2 pi sqrt(3) |q| / (1 - |q|)^2 (|a_n| <= sqrt(3) n), so
each value moves by under 9 10^-32 more while Im s >= 2 10^-3, that is N <=
500 sqrt(Q) (every level the tests use).  The weights of the points sum to
2, so the value v is within 2.2 10^-30 of K_Q, and 2520 v within K_BUDGET =
2520 * 2.2 10^-30 of 2520 K_Q.  Two lattice vectors are at least |b1|
apart (b1 the shortest vector, cmtrace.periods), so when K_BUDGET < |b1| /
2 the lattice vector nearest to 2520 v (periods.nearest_vector) is 2520
K_Q, and it is accepted only within K_BUDGET of 2520 v: K_Q = (i w1 + j w2)
/ 2520 exactly, for the integer coordinates (i, j) of that vector, and
dividing out gcd(i, j, 2520) leaves the order n.  A nearest vector within
the budget is right whenever 2520 v errs by less than |b1| / 2, so an error
above the budget (a larger N) can only raise, never return a wrong
constant.  When a check fails, or n is not in Mazur's list, the lattice is
not phi's (the model is not the optimal curve of its class, say) or the
budget was exceeded, and AlConstantError is raised; there is no other
route.  A moved value thus errs as one evaluation does, below
10^(-digits-10), plus the constant at the lattice's precision, far less.

Atkin-Lehner eigenvalues.  With f | W_Q = w_Q f the global root number of
the curve is -w_N, so rank-zero curves have Fricke eigenvalue -1, and w_Q is
the product of the local signs w_q over the prime powers q^e || Q, each the
local root number of E at q.  Those come from the local data of the minimal
model (Rohrlich, Compositio Math. 87, 1993): w_q = -a_q at multiplicative q,
and at additive q >= 5, with v = v_q(Delta_min) and e = 12 / gcd(12, v) the
ramification index of the least extension of Q_q^ur over which E acquires
good reduction, w_q = (-1/q) for e in {2, 6},
(-3/q) for e = 3 and (-2/q) for e = 4; potentially multiplicative reduction,
3 v_q(c4) < v, gives (-1/q).  The formula reads v and v_q(c4), never the
Kodaira label.  Additive reduction at 2 or 3 (36a1 at 3, for instance) has
no such closed form here: when a prime of Q is of that kind, w_Q is read off
numerically from f(W_Q tau) = w_Q * Q^{-1} (N c tau + Q d)^2 f(tau) at
sample points on the circle the involution stabilises.  Both routes read
only the minimal model and the conductor N, so any curve and any Q || N is
accepted, whether or not N has the shape p^2 M.  The tests check the closed
form against the numerical route.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import ceil, expm1, gcd, isqrt, log, pi, sqrt

import mpmath as mp

from .curves import Curve, CurveModel, _valuation, an_cached, ap_bad, tate_local
from .errors import AlConstantError, CmtraceError, InputError
from .fp import _xgcd, factorint, kronecker
from .periods import PeriodLattice, _reduced_basis, nearest_vector

GUARD = 15
FIXED_GUARD = 10            # guard bits of the fixed-point evaluator beyond bit_length(n_max)
NMAX_CAP = 10 ** 6
AL_SAMPLES = 5              # points on the W_Q-stable circle that must agree on the sign
K_DIGITS = 20               # the one evaluation that fixes each K_Q (module docstring)
MAZUR_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
K_EXPONENT = 2520           # lcm of MAZUR_ORDERS
K_BUDGET = K_EXPONENT * 2.2e-30


class SeriesBudgetError(CmtraceError, ArithmeticError):
    """Im(tau) too small for the coefficient budget; carries the needed n_max."""

    def __init__(self, needed: int):
        super().__init__(f"q-series needs {needed} terms, above the cap {NMAX_CAP}")
        self.needed = needed


def phi_terms(im_tau, digits: int) -> int:
    """Terms for a tail below 10^(-digits-10) (module docstring): n = max(ceil(x),
    4), x = ((digits + 10) ln 10 + ln sqrt(3) - ln(1 - e^-t)) / t, t = 2 pi Im
    tau, in doubles.  Each operation rounds by at most u = 2^-53 (expm1, log by
    an ulp); the numerator sums non-negative terms, one above 23, and 1 - e^-t
    has at most the relative error of t, so x comes out as x (1 + e), |e| < 10
    u < 2^-49, and times 1 + 2^-40 rounds above x: n >= the exact ceiling.
    Below t = 1e-300 x overflows a double, and mpmath computes n, far over the cap."""
    t = 2 * pi * float(im_tau)
    if t > 1e-300:
        x = ((digits + 10) * log(10) + log(sqrt(3)) - log(-expm1(-t))) / t
        n = max(ceil(x * (1 + 2 ** -40)), 4)
    else:
        t = 2 * mp.pi * mp.mpf(im_tau)
        n = int(mp.ceil(((digits + 10) * mp.ln10 + mp.log(mp.sqrt(3) / -mp.expm1(-t))) / t))
    if n > NMAX_CAP:
        raise SeriesBudgetError(n)
    return n


def eval_phi(model: CurveModel | Curve, tau, digits: int) -> mp.mpc:
    """Modular parametrisation sum_{n <= n_max} a_n e^{2 pi i n tau} / n."""
    return _eval_series(model, tau, digits, weight=1)


def eval_newform(model: CurveModel | Curve, tau, digits: int) -> mp.mpc:
    """The weight-two form itself, sum a_n q^n, same tail control."""
    return _eval_series(model, tau, digits, weight=0)


def _eval_series(model: CurveModel | Curve, tau, digits: int, weight: int) -> mp.mpc:
    """sum_{n <= n_max} a_n q^n / n^weight in fixed point, by rectangular
    splitting; the error budget is in the module docstring."""
    cur = model.minimal if isinstance(model, CurveModel) else model
    with mp.workdps(digits + GUARD):
        tau = mp.mpc(tau)
        if tau.imag <= 0:
            raise InputError("tau must be in the upper half plane")
        nmax = phi_terms(tau.imag, digits)
        a = an_cached(cur, nmax)                  # not a copy: read a[0..nmax] only
        frac = mp.mp.prec + nmax.bit_length() + FIXED_GUARD
        m = isqrt(nmax)
        # Baby steps q^0..q^m, chained with bit_length(m) + 2 extra bits so
        # each carries at most two ulps at `frac` bits after the final shift.
        extra = m.bit_length() + 2
        fine = frac + extra
        with mp.workprec(fine):
            q = mp.exp(2j * mp.pi * tau)
            qre, qim = int(mp.ldexp(q.real, fine)), int(mp.ldexp(q.imag, fine))
        x, y = 1 << fine, 0
        pre, pim = [], []
        for _ in range(m):
            pre.append(x >> extra)
            pim.append(y >> extra)
            x, y = (x * qre - y * qim) >> fine, (x * qim + y * qre) >> fine
        gre, gim = x >> extra, y >> extra          # giant step q^m
        # Horner in q^m over the blocks n = base + i, base = j*m, 0 <= i < m;
        # each block visits only its n with a_n != 0
        re = im = 0
        for base in range(nmax - nmax % m, -1, -m):
            re, im = (re * gre - im * gim) >> frac, (re * gim + im * gre) >> frac
            coef = a[base:min(base + m, nmax + 1)]
            terms = list(compress(zip(range(base, base + m), coef, pre, pim), coef))
            if weight == 0:
                for _, c, x, y in terms:
                    re += c * x
                    im += c * y
                continue
            if len(terms) & 1:                      # an odd count leaves one term alone
                n, c, x, y = terms.pop()
                re += c * x // n
                im += c * y // n
            # a1 x1 / n1 + a2 x2 / n2 as one floor division by n1 n2
            pairs = iter(terms)
            for (n1, c1, x1, y1), (n2, c2, x2, y2) in zip(pairs, pairs):
                c1, c2, d = c1 * n2, c2 * n1, n1 * n2
                re += (c1 * x1 + c2 * x2) // d
                im += (c1 * y1 + c2 * y2) // d
        return mp.mpc(mp.ldexp(re, -frac), mp.ldexp(im, -frac))


def al_matrix(n_level: int, q_div: int) -> tuple[int, int, int, int]:
    """Integral matrix (Qa, b; Nc, Qd) of determinant Q for the involution W_Q."""
    if q_div < 1 or n_level % q_div:
        raise InputError(f"Q must be a positive divisor of N = {n_level}, got Q = {q_div}")
    comp = n_level // q_div
    if gcd(q_div, comp) != 1:
        raise InputError("W_Q needs gcd(Q, N/Q) = 1")
    if q_div == n_level:
        return (0, -1, n_level, 0)
    g, x, y = _xgcd(q_div, comp)
    assert g == 1
    # Q*a*d - (N/Q)*b*c = 1 with a = x, d = 1, b = -y, c = 1.
    return (q_div * x, -y, n_level, q_div)


class SignConsistencyError(CmtraceError, ArithmeticError):
    pass


def atkin_lehner_sign(cur: Curve, n_level: int, q_div: int, digits: int) -> int:
    """Eigenvalue of W_Q on the newform of the curve with minimal model cur and
    conductor N = n_level, for Q || N: the product of the local signs when
    every prime of Q has one, else measured numerically at `digits` (module
    docstring)."""
    al_matrix(n_level, q_div)                   # raises unless Q || N
    w = local_sign(cur, q_div)
    return _numerical_sign(cur, n_level, q_div, digits) if w is None else w


def local_sign(cur: Curve, q_div: int) -> int | None:
    """w_Q as the product of the local signs at the primes of Q, or None
    when one of them is additive at 2 or 3."""
    w = 1
    for q in factorint(q_div):
        w_q = _local_sign(cur, q)
        if w_q is None:
            return None
        w *= w_q
    return w


def al_constant_points(n_level: int, q_div: int, w: int, digits: int) -> list:
    """[(c, s)] with K_Q = sum c phi(s), K_Q = phi(W_Q s0) - w phi(s0) the
    constant of the identity phi(W_Q tau) = w phi(tau) + K_Q (module
    docstring), for w = w_Q.  s0 = (-d + i sqrt Q) / N is the top of the
    isometric circle of W_Q = (a, b; N, d), where both s0 and W_Q s0 = (a +
    i sqrt Q) / N have the largest possible Im, sqrt Q / N.  When N divides
    a + d, W_Q s0 = s0 + (a + d) / N, phi takes one value at both and K_Q =
    (1 - w) phi(s0): no point at all for w = +1."""
    a, _, n, d = al_matrix(n_level, q_div)
    fixed = (a + d) % n == 0
    if fixed and w == 1:
        return []
    with mp.workdps(digits + GUARD):
        height = mp.sqrt(q_div) / n
        s0 = mp.mpc(mp.mpf(-d) / n, height)
        return [(2, s0)] if fixed else [(1, mp.mpc(mp.mpf(a) / n, height)), (-w, s0)]


@lru_cache(maxsize=128)
def al_constant(lat: PeriodLattice, n_level: int, q_div: int, w: int) -> tuple[int, int, int]:
    """(i, j, n) with K_Q = (i w1 + j w2) / n exactly, n the order of K_Q and
    gcd(i, j, n) = 1, for the periods w1, w2 of lat and w = w_Q: read off one
    evaluation of al_constant_points at K_DIGITS (module docstring), once per
    (lattice, Q) and process.  AlConstantError when no lattice vector is
    provably 2520 K_Q, or n is not in MAZUR_ORDERS."""
    with mp.workdps(lat.digits + GUARD):
        v = mp.mpc(0)
        for c, s in al_constant_points(n_level, q_div, w, K_DIGITS):
            v += c * eval_phi(lat.curve, s, K_DIGITS)
        z = K_EXPONENT * v
        i, j = nearest_vector(lat, z)
        miss = abs(z - i * lat.w1 - j * lat.w2)
        half = abs(_reduced_basis(lat)[0]) / 2
    g = gcd(i, j, K_EXPONENT)
    if not miss <= K_BUDGET < half or K_EXPONENT // g not in MAZUR_ORDERS:
        raise AlConstantError(
            f"K_{q_div} = {mp.nstr(v, 12)} is no point of order in {MAZUR_ORDERS}: "
            f"{K_EXPONENT} K_{q_div} misses the lattice by {mp.nstr(miss, 3)}, "
            f"against {K_BUDGET:.2g} and |b1| / 2 = {mp.nstr(half, 3)}")
    return i // g, j // g, K_EXPONENT // g


def _local_sign(cur: Curve, q: int) -> int | None:
    """w_q from the local data of the minimal model at a bad prime q, or None
    when the reduction is additive at q = 2 or 3."""
    local = tate_local(cur, q)
    if local.reduction != "additive":
        return -ap_bad(local)
    if q < 5:
        return None
    v = local.v_disc
    if cur.c4 and 3 * _valuation(cur.c4, q) < v:       # potentially multiplicative
        return kronecker(-1, q)
    e = 12 // gcd(12, v)
    return kronecker({2: -1, 6: -1, 3: -3, 4: -2}[e], q)


def _numerical_sign(cur: Curve, n_level: int, q_div: int, digits: int) -> int:
    """Eigenvalue of W_Q on the newform of the curve with minimal model cur and
    conductor N = n_level, for Q || N.

    Samples AL_SAMPLES points tau on the norm-Q circle |N c tau + Q d| =
    sqrt(Q), where both tau and W_Q tau have the same imaginary part, and
    demands all sample ratios agree with the same sign to 10^(-digits/2).
    """
    wa, wb, wc, wd = al_matrix(n_level, q_div)
    with mp.workdps(digits + GUARD):
        tol = mp.mpf(10) ** (-mp.mpf(digits) / 2)
        signs = []
        for j in range(AL_SAMPLES):
            theta = mp.pi / 3 + j * mp.pi / (3 * (AL_SAMPLES - 1))
            # tau on the stabilised circle: N*c*tau + Q*d = sqrt(Q) e^{i theta}.
            tau = (mp.sqrt(q_div) * mp.exp(1j * theta) - wd) / wc
            ftau = eval_newform(cur, tau, digits)
            if abs(ftau) < tol:
                continue
            wtau = (wa * tau + wb) / (wc * tau + wd)
            fw = eval_newform(cur, wtau, digits)
            ratio = q_div * fw / ((wc * tau + wd) ** 2 * ftau)
            sign = 1 if ratio.real > 0 else -1
            if abs(ratio - sign) > tol:
                raise SignConsistencyError(
                    f"W_{q_div} ratio {mp.nstr(ratio, 8)} is not a sign at tolerance {mp.nstr(tol, 3)}")
            signs.append(sign)
        if not signs or any(s != signs[0] for s in signs):
            raise SignConsistencyError(f"inconsistent W_{q_div} signs across samples: {signs}")
        return signs[0]

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
one raw mpc_exp of 2 pi i tau at the precision of the baby steps, rounded
to nearest and cut to integers toward zero, the integers int(mp.ldexp(...))
gives for mp.exp(2j * mp.pi * tau) there, without mpmath's objects; the
baby steps q^0..q^m, m = isqrt(n_max), are chained with bit_length(m) + 2
more bits, so each carries at most 2 ulps.
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

LAMBDA_DIGITS values in doubles.  A series asked for at LAMBDA_DIGITS with
n_max <= FLOAT_CAP terms is summed in hardware floats, u = 2^-53, by C-level
iterators: q once, q^1..q^n_max by chained products (itertools.accumulate),
a_n / n by int division (correctly rounded), and one sum of the products
taken from n = n_max down; the precision asked for and n_max alone choose
it.  q comes from mpc_exp at the working precision P >= 70 bits, rounded
to the nearest double in each part.  For |Re tau| <= 2 (orbit points have
-1 < Re tau <= 0, the K_Q points |Re| < 1, the sign's samples and their W_Q
images |Re| <= 2) and t = 2 pi Im tau < 745 (beyond, q is 0 in doubles) the
P-bit value errs by under 2^-59 relatively, so the double is q (1 + d),
|d| <= 1.02 u.  A complex product errs by at most sqrt(5) u in norm (Brent,
Percival and Zimmermann, Math. Comp. 76, 2007), so q^n comes out as q^n (1 +
e_n), |e_n| <= n (1.02 + sqrt 5) u (1 + 2^-40) for n <= FLOAT_CAP.  The
coefficient and its product with q^n round once more each (u each), and in
a sum taken from n_max down the n-th term passes through n additions, each
rounding each part once: n u more in norm (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., 2002, ch. 4, part by part, and the norm of
the two part bounds is at most the sum of the norms).  So with kappa = 4.26
the error is at most u sum_n |c_n| |q|^n (kappa n + 2), c_n = a_n / n^weight.
With g = |q| / (1 - |q|) = 1 / (e^t - 1), sum |q|^n = g, sum n |q|^n = g (1 +
g) and sum n^2 |q|^n = g (1 + g) (1 + 2 g), so |a_n / n| <= sqrt 3 bounds the
parametrisation's error by E1 = sqrt(3) u (kappa g (1 + g) + 2 g), and |a_n|
<= sqrt(3) n the newform's by E0 = sqrt(3) u (kappa g (1 + g) (1 + 2 g) + 2 g
(1 + g)); an underflow adds 2^-1074 per operation at most.

FLOAT_CAP.  The tightest budget a LAMBDA_DIGITS value feeds is the constant
read below: 2520 v within LAMBDA_BUDGET = 10^-9 of 2520 K_Q, v a sum of
values whose weights sum to 2, so each value may err by 1.98 10^-13 in all.
phi_terms gives n_max <= 500 only when t >= 0.0754, where g <= 12.77 and E1
<= 1.49 10^-13; with the tail and the rounding of the point, 2520 v is
within 7.6 10^-10 of 2520 K_Q.  At 577 terms that would be 9.93 10^-10, at
600 over the budget: FLOAT_CAP = 500 keeps a quarter of it free.  A read of
lam or Omega allows 10^-10 per value (cmtrace.experiments docstring), and
the numerical sign a tolerance of 10^(-5/2) on a ratio of values it keeps
only above it, against which E0 <= 3.9 10^-12 is nothing.  Every other
series, at any other precision, runs the fixed-point evaluator.

Term counts from integers.  phi_terms reads Im tau as a double, and
experiments takes it for the point of a form (A, B, C) of discriminant D
from integers, without an mpf (im_tau): s = isqrt(|D| 4^k) = floor(sqrt|D|
2^k) and s / (2A 2^k), one correctly rounded division of integers, with k =
114 + 2 bit_length(A).  s / 2^k is below sqrt|D| by a relative 2^-k at
most.  A rounding boundary mu of doubles within a factor 2 of v = sqrt|D| /
(2A) is an odd multiple of 2^(e-53), 2^e <= mu < 2^(e+1), so |D| - 4 A^2
mu^2 is a multiple of 4^(e-53), nonzero when |D| is not a square, and |v -
mu| / v = ||D| - 4 A^2 mu^2| / (sqrt|D| (sqrt|D| + 2 A mu)) >= 4^(e-53) /
(3 |D|) > 2^-114 / A^2 > 2^-k, as 2^e > v / 4.  So no boundary lies between
the quotient and v, and the double is v correctly rounded (exactly so when
|D| is a square, where s is exact).

Atkin-Lehner moves.  phi'(tau) = 2 pi i f(tau), and for W_Q = (a, b; N, d)
of determinant Q, f | W_Q = w_Q f reads Q (N tau + d)^-2 f(W_Q tau) = w_Q
f(tau), so phi(W_Q tau) and w_Q phi(tau) have the same derivative: K_Q =
phi(W_Q tau) - w_Q phi(tau) is a constant.  As phi has period 1, phi(tau) =
w_Q (phi(W_Q (tau + k)) - K_Q) for every integer k, exactly: no period
enters, unlike a move inside Gamma_0(N), which adds one.  Every integer
matrix M of determinant Q with Q | its diagonal and N | its lower left
entry is W_Q gamma, gamma in Gamma_0(N) (Atkin and Lehner, Math. Ann. 185,
1970), so phi(tau) = w_Q (phi(M tau) - K_Q) - Omega with Omega = phi(gamma
tau) - phi(tau) a period of phi, 0 when gamma = +-T^k.  So an orbit point
can be evaluated where Im is larger and the series shorter:
cmtrace.experiments.orbit_options picks each point's move before any sign,
and orbit_trace reads each nonzero Omega off the lattice, with the budget
of a fiber's lattice vector (cmtrace.experiments docstring).
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
al_constant evaluates K_Q once, at LAMBDA_DIGITS = 5, from the top s0 of
the isometric circle of W_Q, where Im s0 = Im W_Q s0 = sqrt(Q) / N is as
large as it can be for both; when N | a + d, W_Q s0 = s0 + (a + d) / N, so
K_Q = (1 - w_Q) phi(s0), which is 0 for w_Q = +1 (W_121 on 121b1).  The
points are exact until then, the integers (c, x) of c phi((x + i sqrt Q) /
N), x = a or -d, from al_matrix alone (al_constant_points), priced by
im_tau(-4 Q, N).  Each evaluation errs by less than 10^-15 (tail) plus 1.49
10^-13 (rounding in doubles up to FLOAT_CAP terms, 10^-20 in fixed point).
al_constant rounds the points to the 70 bits of 20 digits, |s| < 1.5, and
|phi'| = 2 pi |f| <= 2 pi sqrt(3) |q| / (1 - |q|)^2 (|a_n| <= sqrt(3) n),
so each value moves by under 9 10^-17 more while Im s >= 2 10^-3, that is
N <= 500 sqrt(Q) (every level the tests use).  The weights of the points
sum to 2, so the value v is within 3.0 10^-13 of K_Q, and 2520 v within 7.6
10^-10 of 2520 K_Q, below periods.LAMBDA_BUDGET = 10^-9.  So 2520 K_Q is read off
2520 v as every lattice vector is (periods.read_vector): the nearest
vector, accepted only within LAMBDA_BUDGET < |b1| / 2 of 2520 v.  K_Q = (i
w1 + j w2) / 2520 exactly, for the integer coordinates (i, j) of that
vector, and dividing out gcd(i, j, 2520) leaves the order n.  An error
above the budget (a larger N) can only raise, never return a wrong
constant.  When the read fails, or n is not in Mazur's list, the lattice is
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
sample points on the circle the involution stabilises, at LAMBDA_DIGITS
(enough for a sign: FLOAT_CAP above).  Both routes read only the minimal
model and the conductor N, so any curve and any Q || N is accepted, whether
or not N has the shape p^2 M.  The tests check the closed
form against the numerical route.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import ceil, expm1, gcd, isqrt, log, pi, sqrt
from operator import mul, truediv

import mpmath as mp
from mpmath.libmp import (mpc_exp, mpc_to_complex, mpf_mul, mpf_neg, mpf_pi, mpf_shift,
                          round_nearest, to_int)

from .curves import Curve, CurveModel, _valuation, an_coefficients, ap_bad, tate_local
from . import sieve          # with this layer, so a process forked after import never compiles it
from .errors import AlConstantError, CmtraceError, InputError
from .fp import factorint, kronecker
from .periods import PeriodLattice, read_vector
# after periods: imported before it, heegner put finite-wide-p's peak RSS 0.15 MB higher
from .heegner import al_matrix

GUARD = 15
FIXED_GUARD = 10            # guard bits of the fixed-point evaluator beyond bit_length(n_max)
NMAX_CAP = 10 ** 6
AL_SAMPLES = 5              # points on the W_Q-stable circle that must agree on the sign
LAMBDA_DIGITS = 5           # the values every lattice vector is read from (module docstring)
FLOAT_CAP = 500             # most terms a LAMBDA_DIGITS series sums in doubles (module docstring)
MAZUR_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
K_EXPONENT = 2520           # lcm of MAZUR_ORDERS


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


def im_tau(disc: int, a: int) -> float:
    """Im tau = sqrt|D| / (2A) at the point of a form (A, B, C) of discriminant
    D < 0, as the correctly rounded double, from exact integers (module
    docstring): phi_terms' input without an mpf."""
    k = 114 + 2 * a.bit_length()
    return isqrt(-disc << 2 * k) / (2 * a << k)


def eval_phi(model: CurveModel | Curve, tau, digits: int) -> mp.mpc:
    """Modular parametrisation sum_{n <= n_max} a_n e^{2 pi i n tau} / n."""
    return _eval_series(model, tau, digits, weight=1)


def eval_newform(model: CurveModel | Curve, tau, digits: int) -> mp.mpc:
    """The weight-two form itself, sum a_n q^n, same tail control."""
    return _eval_series(model, tau, digits, weight=0)


def _eval_series(model: CurveModel | Curve, tau, digits: int, weight: int) -> mp.mpc:
    """sum_{n <= n_max} a_n q^n / n^weight: in doubles at LAMBDA_DIGITS up to
    FLOAT_CAP terms, else in fixed point by rectangular splitting; the error
    budgets are in the module docstring."""
    cur = model.minimal if isinstance(model, CurveModel) else model
    with mp.workdps(digits + GUARD):
        tau = mp.mpc(tau)
        if tau.imag <= 0:
            raise InputError("tau must be in the upper half plane")
        nmax = phi_terms(tau.imag, digits)
        a = an_coefficients(cur, nmax)
        if digits == LAMBDA_DIGITS and nmax <= FLOAT_CAP:
            # q^1..q^nmax by chained products, summed from n = nmax down
            q = mpc_to_complex(_q(tau, mp.mp.prec), rnd=round_nearest)
            powers = list(accumulate(repeat(q, nmax), mul))
            coef = a[:0:-1] if weight == 0 else map(truediv, a[:0:-1], range(nmax, 0, -1))
            return mp.mpc(sum(map(mul, coef, reversed(powers))))
        frac = mp.mp.prec + nmax.bit_length() + FIXED_GUARD
        m = isqrt(nmax)
        # Baby steps q^0..q^m, chained with bit_length(m) + 2 extra bits so
        # each carries at most two ulps at `frac` bits after the final shift.
        extra = m.bit_length() + 2
        fine = frac + extra
        qre, qim = (to_int(mpf_shift(v, fine)) for v in _q(tau, fine))   # truncated as int() does
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
            coef = a[base:base + m]                 # a holds a[0..nmax] only
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


def _q(tau: mp.mpc, prec: int) -> tuple:
    """e^(2 pi i tau) as raw (re, im) at prec bits, rounded to nearest: the
    value mp.exp(2j * mp.pi * tau) has at that precision, without its objects."""
    x, y = tau._mpc_
    two_pi = mpf_shift(mpf_pi(prec, round_nearest), 1)
    w = (mpf_neg(mpf_mul(two_pi, y, prec, round_nearest)), mpf_mul(two_pi, x, prec, round_nearest))
    return mpc_exp(w, prec, round_nearest)


class SignConsistencyError(CmtraceError, ArithmeticError):
    pass


def atkin_lehner_sign(cur: Curve, n_level: int, q_div: int) -> int:
    """Eigenvalue of W_Q on the newform of the curve with minimal model cur and
    conductor N = n_level, for Q || N: the product of the local signs when
    every prime of Q has one, else measured numerically at LAMBDA_DIGITS
    (module docstring)."""
    al_matrix(n_level, q_div)                   # raises unless Q || N
    w = local_sign(cur, q_div)
    return _numerical_sign(cur, n_level, q_div) if w is None else w


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


def al_constant_points(n_level: int, q_div: int, w: int) -> list[tuple[int, int]]:
    """[(c, x)] with K_Q = sum c phi((x + i sqrt Q) / N), K_Q = phi(W_Q s0)
    - w phi(s0) the constant of the identity phi(W_Q tau) = w phi(tau) + K_Q
    (module docstring), for w = w_Q; exact integers from al_matrix alone.
    s0 = (-d + i sqrt Q) / N is the top of the isometric circle of W_Q = (a,
    b; N, d), where both s0 and W_Q s0 = (a + i sqrt Q) / N have the largest
    possible Im, sqrt Q / N (modparam.im_tau(-4 Q, N)).  When N divides a +
    d, W_Q s0 = s0 + (a + d) / N, phi takes one value at both and K_Q = (1 -
    w) phi(s0): no point at all for w = +1."""
    a, _, n, d = al_matrix(n_level, q_div)
    if (a + d) % n:
        return [(1, a), (-w, -d)]
    return [] if w == 1 else [(2, -d)]


@lru_cache(maxsize=128)
def al_constant(lat: PeriodLattice, n_level: int, q_div: int, w: int) -> tuple[int, int, int]:
    """(i, j, n) with K_Q = (i w1 + j w2) / n exactly, n the order of K_Q and
    gcd(i, j, n) = 1, for the periods w1, w2 of lat and w = w_Q: read off one
    evaluation at the points of al_constant_points, each rounded to the
    precision of a LAMBDA_DIGITS series (module docstring), once per
    (lattice, Q) and process.  AlConstantError when no lattice vector is
    provably 2520 K_Q, or n is not in MAZUR_ORDERS."""
    with mp.workdps(LAMBDA_DIGITS + GUARD):
        height = mp.sqrt(q_div) / n_level
        points = [(c, mp.mpc(mp.mpf(x) / n_level, height))
                  for c, x in al_constant_points(n_level, q_div, w)]
    with mp.workdps(lat.digits + GUARD):
        v = mp.mpc(0)
        for c, s in points:
            v += c * eval_phi(lat.curve, s, LAMBDA_DIGITS)
        try:
            i, j = read_vector(lat, K_EXPONENT * v, AlConstantError, f"{K_EXPONENT} K_{q_div}")
        except AlConstantError as exc:               # v is formatted only for the message
            raise AlConstantError(f"K_{q_div} = {mp.nstr(v, 12)}: {exc}") from None
    g = gcd(i, j, K_EXPONENT)
    if K_EXPONENT // g not in MAZUR_ORDERS:
        raise AlConstantError(f"K_{q_div} = ({i} w1 + {j} w2) / {K_EXPONENT} has order "
                              f"{K_EXPONENT // g}, not in {MAZUR_ORDERS}")
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


def _numerical_sign(cur: Curve, n_level: int, q_div: int) -> int:
    """Eigenvalue of W_Q on the newform of the curve with minimal model cur and
    conductor N = n_level, for Q || N.

    Samples AL_SAMPLES points tau on the norm-Q circle |N c tau + Q d| =
    sqrt(Q), where both tau and W_Q tau have the same imaginary part, and
    demands all sample ratios, at LAMBDA_DIGITS, agree with the same sign to
    10^(-LAMBDA_DIGITS/2).
    """
    wa, wb, wc, wd = al_matrix(n_level, q_div)
    with mp.workdps(LAMBDA_DIGITS + GUARD):
        tol = mp.mpf(10) ** (-mp.mpf(LAMBDA_DIGITS) / 2)
        signs = []
        for j in range(AL_SAMPLES):
            theta = mp.pi / 3 + j * mp.pi / (3 * (AL_SAMPLES - 1))
            # tau on the stabilised circle: N*c*tau + Q*d = sqrt(Q) e^{i theta}.
            tau = (mp.sqrt(q_div) * mp.exp(1j * theta) - wd) / wc
            ftau = eval_newform(cur, tau, LAMBDA_DIGITS)
            if abs(ftau) < tol:
                continue
            wtau = (wa * tau + wb) / (wc * tau + wd)
            fw = eval_newform(cur, wtau, LAMBDA_DIGITS)
            ratio = q_div * fw / ((wc * tau + wd) ** 2 * ftau)
            sign = 1 if ratio.real > 0 else -1
            if abs(ratio - sign) > tol:
                raise SignConsistencyError(
                    f"W_{q_div} ratio {mp.nstr(ratio, 8)} is not a sign at tolerance {mp.nstr(tol, 3)}")
            signs.append(sign)
        if not signs or any(s != signs[0] for s in signs):
            raise SignConsistencyError(f"inconsistent W_{q_div} signs across samples: {signs}")
        return signs[0]

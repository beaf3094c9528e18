"""Evaluation of the weight-two newform and its modular parametrisation, plus
a numerical Atkin-Lehner eigenvalue oracle.

The parametrisation value is sum a_n q^n / n truncated where the tail is
provably below 10^(-digits-10): coefficients obey |a_n| <= sigma_0(n) sqrt(n),
and sigma_0(n)/sqrt(n) <= sqrt(3) (maximise (e+1) p^(-e/2) at p = 2, 3), so
the tail after n_max is at most sqrt(3) |q|^(n_max+1) / (1 - |q|).

Both series, sum a_n q^n / n and the newform sum a_n q^n, are taken at a
FormPoint, tau as its integers (q from integers, below), by one of two
routes: in doubles when the read the value feeds allows it (LAMBDA_DIGITS
values in doubles, below), else by one fixed-point evaluator using
rectangular splitting (Paterson-Stockmeyer 1973; Johansson, ISSAC 2014).
With P the working precision of digits + SERIES_GUARD decimal digits (so
2^-P < 10^(-digits-15)), numbers are Python integers scaled by 2^F, F = P +
bit_length(n_max) + FIXED_GUARD, and u = 2^-F.  The baby steps q^0..q^m, m =
isqrt(n_max), are chained at F' = F + e bits, e = bit_length(m) + 2, from q
cut toward zero there (q_fixed): q from the point's exact integers, whose
n_max comes from the double im_tau (no mpc tau is built), within 2^-(F' + 7)
(q from integers, below), so within 1.01 units of 2^-F' once cut.  A baby
step cuts each part once and carries the errors of the step before and of q
(|q| < 1), so q^k is within 2.9 k units in norm, under 2^e / 1.3 for k <= m,
and the shift by e bits leaves each part within 2 ulps.
Writing n = j m + i, block j is sum_i a_n q^i / n over the n of the block
with a_n != 0 (itertools.compress picks them from the block's slice of the
a_n list), and the blocks are combined by Horner in q^m: only the
O(sqrt(n_max)) baby and giant steps are full-precision products.  The terms
are taken in pairs, a1 x1 / n1 + a2 x2 / n2 = (a1 n2 x1 + a2 n1 x2) / (n1
n2): two small-by-big products and one floor division per real component
and pair, a single-digit CPython division while n1 n2 < 2^30 (n_max below
2^15).  The pairs are the curve's, made once with its a_n (cmtrace.sieve
docstring): the n with a_n != 0 two by two from n = 1 up, each pair kept as
its exact a1 n2, a2 n1 and n1 n2.  Ranked from 0 at n = 1, the n of a block
are the ranks lo..hi-1, rank r being member r & 1 of pair r >> 1, so a block
walks the slice of pairs inside it, and a pair cut by the block's edge or by
n_max gives each member alone, a1 n2 x1 / (n1 n2) = a1 x1 / n1 with a floor
division of its own.  So every term meets exactly one floor division,
alone or in a pair, and every truncation costs at most one ulp per real
component.  For the parametrisation |a_n / n| <= sqrt(3), so a pair errs by
at most 4 sqrt(3) + 1 ulps and a term by at most 2 sqrt(3) + 1 (one floor
per pair only lowers the count of truncations) before Horner multiplies it
by powers of |q^m| < 1, and each of the n_max / m Horner steps adds 1 ulp
plus 2 ulps times the partial sum, which is at most sqrt(3) / (1 - |q|),
about sqrt(3) n_max / ((digits + 10) log 10) by the choice of n_max.  The
total is below 150 n_max u < 2^(7.3 - P - FIXED_GUARD) < 2^-P for every
n_max up to NMAX_CAP: under 10^(-digits-15), so the absolute target
10^(-digits-10) still holds and the tail bound is untouched.  The newform
(weight 0) sums each block's a_n x exactly, with no division, and has |a_n|
<= sqrt(3) n instead of sqrt(3), which the same budget absorbs for the
Atkin-Lehner sign test and its 10^(-digits/2) tolerance; the tests compare
both weights with the term-by-term mpc sum (tests/oracles.py).  The error
is absolute, not relative: a value far below 2^-P comes back as noise or 0.

LAMBDA_DIGITS values in doubles.  A value read off the lattice comes with
its read's allowance, all the error it may carry: LAMBDA_BUDGET / (2
K_EXPONENT + 1) for K_Q (below), 10^-10 for lam or Omega
(cmtrace.experiments docstring), tol^2 / 2 for the sign (below).  When the
tail and the bound E below are under it, the series is summed in doubles, u
= 2^-53, as one chain: q^1..q^n_max by itertools.accumulate, kept only at
the n with a_n != 0, each times c_n = a_n / n^weight, and the terms summed
by one C-level sum from n_max down.  At weight 1 c_n is the curve's double
a_n / n, correctly rounded by one int division when its a_n was made
(cmtrace.sieve docstring): the first r of its table, for the r nonzero a_n
up to n_max.  Else the fixed-point evaluator runs.
The allowances admit up to 580, 14296 and 61452 (weight 0) terms, whatever
Re tau is: the bound E below reads Im tau alone.

q from integers (float_error and q_fixed), no libm and no libmp.  A series
point is a FormPoint, the integers (a, b, disc) of tau = (-b + i sqrt|disc|)
/ (2a), a > 0 > disc; any other tau is an InputError.  Both routes take q =
e^(2 pi i tau) from the point's own integers by cmtrace.elementary.q_scaled.
It gives q and |q| within 2^-(bits + 3) |q| relatively at any bit count, by
an exact quarter-turn reduction, 4 Re tau = j + f, j nearest, |f| <= 1/2,
and q = i^j e^-t e^(i theta), t = 2 pi Im tau, theta = pi f / 2
(cmtrace.elementary docstring); at A | 2B f is 0 and q is exactly real (j
even) or imaginary.  q_fixed asks for bits + 4 bits, so each part is within
2^-(bits + 7) < 0.01 units of 2^-bits and, cut toward zero, within 1.01
units.  float_error asks for 68 bits (80 working bits, at most 18 and 23
Taylor terms).  Each part of q and |q| is one correctly rounded int division
of a value within 2^-71 relatively: q' = q (1 + d), |d| <= u + 2^-71 < 1.001
u, and |q'| too.  q' is 0 from Im tau = 119 on, t > 747, and rounds to 0
from t = 746 on (|q| < 2^-1076).  A | B gives f = 0 and sin = 0: q' is real.

The error.  q' is taken at tau itself, so the n-th term meets n factors 1 +
d, the n - 1 complex products of the chain, each within sqrt(5) u in norm
(Brent, Percival and Zimmermann, Math. Comp. 76, 2007), two roundings
(coefficient, product) and, summed from n_max down, at most n additions (its
own and one per smaller n), each rounding each part once (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 4, part by part;
the norm of the two part bounds is at most the sum of the norms).  So it is
off by a factor within e^((n kappa + 2) u) - 1 <= (n kappa + 2) u / w of 1,
kappa = KAPPA = 4.26 > 1.001 + sqrt 5 + 1, w = 1 - (n_max kappa + 2) u.
With g = |q| / (1 - |q|) = 1 / (e^t - 1), t = 2 pi Im tau, sum |q|^n = g,
sum n |q|^n = g (1 + g) and sum n^2 |q|^n = g (1 + g) (1 + 2 g), so |a_n /
n| <= sqrt 3 bounds the parametrisation's error by E1 = sqrt(3) u (kappa g
(1 + g) + 2 g) / w, and |a_n| <= sqrt(3) n the newform's by E0 = sqrt(3) u
(kappa g (1 + g) (1 + 2 g) + 2 g (1 + g)) / w; an underflow adds 2^-1074 per
operation, nothing.  float_error takes E in doubles from |q'| and n_max
alone, times 1 + 2^-30 for its roundings and the error of g, (1 + g) (t + 2)
u < 2^-36 up to NMAX_CAP.

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
|D| is a square, where s is exact).  phi_terms only counts, in doubles, and
by integer ratios where the quotient overflows a double; it reads no
mpmath.  The budget is refused where a series runs: _eval_series raises
SeriesBudgetError for a count above NMAX_CAP, and
cmtrace.experiments.orbit_options compares its counts with the cap before
any series of a trace runs.

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
im_tau(-4 Q, N): the FormPoint (N, -2x, -4Q).  A value errs by less than
its allowance in doubles, and in fixed point by 10^-15 (tail) plus 10^-20,
its q taken on either route from the FormPoint's exact integers.  The
weights are 1, -1 or 2, of sizes summing to 2, and v is summed exactly at
the lattice's precision, so 2520 v is within 5040 / 5041 of
periods.LAMBDA_BUDGET = 10^-9 of 2520 K_Q, the rest covering the cut of v.
So 2520 K_Q is read off 2520 v as every lattice vector is
(periods.read_vector): the nearest vector, accepted only within
LAMBDA_BUDGET < |b1| / 2 of 2520 v.  K_Q = (i w1 + j w2) / 2520 exactly, for the integer coordinates (i, j) of that
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
the newform at five exact points of the circle |N tau + d|^2 = Q that W_Q =
(a, b; N, d) stabilises (sign_points): u = N tau + d = (k + i s) / 4 with s^2
= 16 Q - k^2, r = isqrt(16 Q) and k in (r // 2, r // 4, 0, -(r // 4), -(r //
2)), so k^2 <= 4 Q and Im tau = s / (4N) >= sqrt(3 Q) / (2N); at a square Q
the first point is u = sqrt(Q) e^(i pi / 3).  tau = (k - 4d + i s) / (4N) is
the FormPoint (2N, 4d - k, k^2 - 16 Q).  As ad - bN = Q, a tau + b = (a u -
Q) / N, so W_Q tau = a / N - Q / (N u) = (a - conj u) / N by |u|^2 = Q: the
FormPoint (2N, k - 4a, k^2 - 16 Q), of the same Im.  Both are integers,
priced by im_tau like every other series, with no Mobius arithmetic and no
mpmath.  f | W_Q = w_Q f reads Q u^-2 f(W_Q tau) = w_Q f(tau), and Q / u^2 =
conj(u)^2 / Q, of modulus 1, so the ratio conj(u)^2 f(W_Q tau) / (Q f(tau))
is w_Q.  Each f is taken at LAMBDA_DIGITS with the allowance tol^2 / 2, tol
= 10^(-LAMBDA_DIGITS / 2), so within delta < tol^2 / 2, tail included, and
at a sample kept (|f(tau)| >= tol) the ratio of the two values is within 2
delta / |f(tau)| < tol of w_Q.  It is taken in complex doubles, u = 2^-53,
as (k^2 - 8Q - i k s) f(W_Q tau) / (8 Q f(tau)): the real part of the first
factor exact, its imaginary part within 1.5 u (math.sqrt, one product), a
value from fixed point rounded to doubles within u / 2, the product within
sqrt(5) u (Brent, Percival and Zimmermann), 8 Q f(tau) within u and
CPython's scaled quotient (Smith, CACM 5, 1962) within 8 u, all in norm and
relative: under 16 u in all, 2^-48 at |ratio| <= 1 + tol.  So a wrong sign,
2 - tol - 2^-48 away, never passes |ratio - sign| <= tol, and a right one
can fail it only within 2^-48 of the bound, where SignConsistencyError is
raised, as it is when the samples disagree; no sign is returned unproven.
Both routes read only the minimal model and the conductor N, so any curve
and any Q || N is accepted, whether or not N has the shape p^2 M.  The tests
check the closed form against the numerical route.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, compress, islice, repeat
from math import ceil, expm1, gcd, isqrt, log, pi, sqrt
from operator import mul

import mpmath as mp

from .curves import (AN_BOUND, Curve, CurveModel, _valuation, an_coefficients, ap_bad,
                     coefficient_tables, tate_local)
from . import sieve          # with this layer, so a process forked after import never compiles it
from .elementary import q_scaled
from .errors import AlConstantError, CmtraceError, InputError
from .fp import factorint, kronecker
from . import periods
from .periods import PeriodLattice, read_vector
# after periods: imported before it, heegner put finite-wide-p's peak RSS 0.15 MB higher
from .heegner import al_matrix

SERIES_GUARD = 15           # decimal digits the series and the orbit work at beyond `digits`
FIXED_GUARD = 10            # guard bits of the fixed-point evaluator beyond bit_length(n_max)
NMAX_CAP = AN_BOUND         # n_max terms read a[0..n_max] off the sieve, capped there
LAMBDA_DIGITS = 5           # the values every lattice vector is read from (module docstring)
MAZUR_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
K_EXPONENT = 2520           # lcm of MAZUR_ORDERS
KAPPA = 4.26                # the float route's rounding factor per term (module docstring)


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
    Below t = 1e-300 the quotient overflows a double, and n is the exact
    ceiling of the same numerator times 1 + 2^-40 over t, from their integer
    ratios: far over the cap.  A count only, never a raise for Im tau > 0:
    _eval_series and the orbit planner compare it with NMAX_CAP.  InputError
    for an Im tau that is not a positive double (0 after an underflow, NaN)."""
    t = 2 * pi * float(im_tau)
    if not t > 0:
        raise InputError(f"Im tau = {im_tau} is not a positive double")
    num = (digits + 10) * log(10) + log(sqrt(3)) - log(-expm1(-t))
    if t > 1e-300:
        return max(ceil(num / t * (1 + 2 ** -40)), 4)
    (a, b), (c, d) = num.as_integer_ratio(), t.as_integer_ratio()
    return -(-a * d * (2 ** 40 + 1) // (b * c << 40))


def im_tau(disc: int, a: int) -> float:
    """Im tau = sqrt|D| / (2A) at the point of a form (A, B, C) of discriminant
    D < 0, as the correctly rounded double, from exact integers (module
    docstring): phi_terms' input without an mpf."""
    k = 114 + 2 * a.bit_length()
    return isqrt(-disc << 2 * k) / (2 * a << k)


class FormPoint(namedtuple("FormPoint", "a b disc")):
    """The point (-b + i sqrt|disc|) / (2a), a > 0 and disc < 0 (of a form
    when disc = b^2 mod 4a), kept as its integers; imag is the correctly
    rounded double."""

    __slots__ = ()
    imag = property(lambda self: im_tau(self.disc, self.a))


def eval_phi(model: CurveModel | Curve, tau: FormPoint, digits: int, allowance: float = 0.0):
    """Modular parametrisation sum_{n <= n_max} a_n e^{2 pi i n tau} / n at the
    FormPoint tau: a complex summed in doubles when its error bound is under
    the allowance of the read the value feeds, else an mpc (module
    docstring)."""
    return _eval_series(model, tau, digits, 1, allowance)


def eval_newform(model: CurveModel | Curve, tau: FormPoint, digits: int, allowance: float = 0.0):
    """The weight-two form itself, sum a_n q^n, same tail control and routes."""
    return _eval_series(model, tau, digits, 0, allowance)


def _eval_series(model: CurveModel | Curve, tau: FormPoint, digits: int, weight: int,
                 allowance: float):
    """sum_{n <= n_max} a_n q^n / n^weight at the FormPoint tau: in doubles
    when the tail and float_error are under the allowance, else in fixed
    point by rectangular splitting; the error budgets are in the module
    docstring.  InputError unless tau is a FormPoint with a > 0 > disc and a
    double Im tau above 0; SeriesBudgetError when it needs more than NMAX_CAP
    terms."""
    if not isinstance(tau, FormPoint):
        raise InputError(f"a series point is a FormPoint, got {type(tau).__name__}")
    y = tau.imag if tau.a > 0 > tau.disc else 0.0
    if not y > 0:
        raise InputError(f"{tau} is not a point of the upper half plane")
    cur = model.minimal if isinstance(model, CurveModel) else model
    nmax = phi_terms(y, digits)
    if nmax > NMAX_CAP:
        raise SeriesBudgetError(nmax)
    if allowance:
        q, error = float_error(tau, y, nmax, weight)
        if error + 10.0 ** -(digits + 10) < allowance:
            # summed from n_max down, so that the n-th term meets at most n
            # additions (module docstring)
            a = an_coefficients(cur, nmax)
            powers = list(compress(accumulate(repeat(q, nmax), mul), islice(a, 1, None)))
            c = (reversed(coefficient_tables(cur)[1][:len(powers)]) if weight
                 else filter(None, reversed(a)))
            return sum(map(mul, c, reversed(powers)))
    with mp.workdps(digits + SERIES_GUARD):
        a = an_coefficients(cur, nmax)
        pairs = coefficient_tables(cur)[0]
        frac = mp.mp.prec + nmax.bit_length() + FIXED_GUARD
        m = isqrt(nmax)
        # Baby steps q^0..q^m, chained with bit_length(m) + 2 extra bits so
        # each carries at most two ulps at `frac` bits after the final shift.
        extra = m.bit_length() + 2
        fine = frac + extra
        qre, qim = q_fixed(tau, fine)
        x, y = 1 << fine, 0
        babies = []
        for _ in range(m):
            babies.append((x >> extra, y >> extra))
            x, y = (x * qre - y * qim) >> fine, (x * qim + y * qre) >> fine
        gre, gim = x >> extra, y >> extra          # giant step q^m
        # Horner in q^m over the blocks n = base + i, base = j*m, 0 <= i < m;
        # each block visits only its n with a_n != 0, ranked lo..hi-1 from 0
        # at n = 1, so that rank r is member r & 1 of pair r >> 1 of the table
        re = im = 0
        hi = len(a) - a.count(0)
        for base in range(nmax - nmax % m, -1, -m):
            re, im = (re * gre - im * gim) >> frac, (re * gim + im * gre) >> frac
            coef = a[base:base + m]                 # a holds a[0..nmax] only
            lo = hi - len(coef) + coef.count(0)
            if lo == hi:
                continue
            ps = compress(babies, coef)
            if not weight:                          # n = 1: exact, no division
                for c, (x, y) in zip(compress(coef, coef), ps):
                    re += c * x
                    im += c * y
            else:
                j, k = lo + 1 >> 1, hi >> 1         # the pairs j..k-1 lie inside the block
                if lo & 1:                          # pair j - 1's upper member, cut by the edge
                    c, d = pairs[3 * j - 2], pairs[3 * j - 1]
                    x, y = next(ps)
                    re += c * x // d
                    im += c * y // d
                # a1 x1 / n1 + a2 x2 / n2 = (a1 n2 x1 + a2 n1 x2) / (n1 n2), one floor division
                t = iter(pairs[3 * j:3 * k])
                for c1, c2, d, (x1, y1), (x2, y2) in zip(t, t, t, ps, ps):
                    re += (c1 * x1 + c2 * x2) // d
                    im += (c1 * y1 + c2 * y2) // d
                if hi & 1:                          # pair k's lower member, cut by the edge or n_max
                    c, d = pairs[3 * k], pairs[3 * k + 2]
                    x, y = next(ps)
                    re += c * x // d
                    im += c * y // d
            hi = lo
        return mp.mpc(mp.ldexp(re, -frac), mp.ldexp(im, -frac))


def float_error(tau: FormPoint, y: float, nmax: int, weight: int) -> tuple[complex, float]:
    """(q, E) at the FormPoint tau of double Im tau = y: q = e^(2 pi i tau) in
    doubles, each part correctly rounded from a value within 2^-68
    relatively, from the point's own integers, 0 from Im tau = 119 on; and
    the bound E1 (weight 1) or E0 (weight 0) on the error of nmax terms
    summed in doubles (module docstring)."""
    if y >= 119:                                # t > 747: |q| < 2^-1077 rounds to 0
        q, r = 0j, 0.0
    else:
        re, im, m, e = q_scaled(tau, 68)
        q, r = complex(re / (1 << e), im / (1 << e)), m / (1 << e)
    g = r / (1 - r)
    h = KAPPA * g * (1 + g)                     # 1.7321 below: sqrt 3 rounded up
    e = h + 2 * g if weight else h * (1 + 2 * g) + 2 * g * (1 + g)
    return q, 1.7321 * 2.0 ** -53 * (1 + 2.0 ** -30) * e / (1 - (nmax * KAPPA + 2) * 2.0 ** -53)


def q_fixed(tau: FormPoint, bits: int) -> tuple[int, int]:
    """(re, im): e^(2 pi i tau) times 2^bits at the FormPoint tau, each part
    cut toward zero and within 1.01 units (module docstring)."""
    re, im, _, e = q_scaled(tau, bits + 4)
    return tuple(v >> e - bits if v >= 0 else -(-v >> e - bits) for v in (re, im))


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
    """w_Q as the product of the local signs w_q at the primes q of Q, each
    from the local data of the minimal model (module docstring), or None
    when one of them is additive at q = 2 or 3."""
    w = 1
    for q in factorint(q_div):
        local = tate_local(cur, q)
        if local.reduction != "additive":
            w *= -ap_bad(local)
        elif q < 5:
            return None
        elif cur.c4 and 3 * _valuation(cur.c4, q) < local.v_disc:     # potentially multiplicative
            w *= kronecker(-1, q)
        else:
            w *= kronecker({2: -1, 6: -1, 3: -3, 4: -2}[12 // gcd(12, local.v_disc)], q)
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
    with mp.workdps(lat.digits + SERIES_GUARD):
        v = mp.mpc(0)                       # summed exactly: the c are 1, -1 and 2
        for c, x in al_constant_points(n_level, q_div, w):
            v += c * eval_phi(lat.curve, FormPoint(n_level, -2 * x, -4 * q_div), LAMBDA_DIGITS,
                              periods.LAMBDA_BUDGET / (2 * K_EXPONENT + 1))
        try:
            i, j = read_vector(lat, K_EXPONENT * v, AlConstantError, f"{K_EXPONENT} K_{q_div}")
        except AlConstantError as exc:               # v is formatted only for the message
            raise AlConstantError(f"K_{q_div} = {mp.nstr(v, 12)}: {exc}") from None
    g = gcd(i, j, K_EXPONENT)
    if K_EXPONENT // g not in MAZUR_ORDERS:
        raise AlConstantError(f"K_{q_div} = ({i} w1 + {j} w2) / {K_EXPONENT} has order "
                              f"{K_EXPONENT // g}, not in {MAZUR_ORDERS}")
    return i // g, j // g, K_EXPONENT // g


def sign_points(n_level: int, q_div: int) -> list[tuple[int, FormPoint, FormPoint]]:
    """[(k, tau, W_Q tau)] at five exact points u = N tau + d = (k + i s) / 4,
    s^2 = 16 Q - k^2, of the circle |N tau + d|^2 = Q that W_Q = (a, b; N, d)
    stabilises, where W_Q tau = (a - conj u) / N (module docstring)."""
    a, _, n, d = al_matrix(n_level, q_div)
    r = isqrt(16 * q_div)
    return [(k, FormPoint(2 * n, 4 * d - k, k * k - 16 * q_div),
             FormPoint(2 * n, k - 4 * a, k * k - 16 * q_div))
            for k in (r // 2, r // 4, 0, -(r // 4), -(r // 2))]


def _numerical_sign(cur: Curve, n_level: int, q_div: int) -> int:
    """Eigenvalue of W_Q on the newform of the curve with minimal model cur and
    conductor N = n_level, for Q || N: the ratio conj(u)^2 f(W_Q tau) / (Q
    f(tau)) in complex doubles at each point of sign_points with |f(tau)| >=
    tol, within tol = 10^(-LAMBDA_DIGITS / 2) of one sign at them all
    (module docstring)."""
    allowance, tol = 10.0 ** -LAMBDA_DIGITS / 2, 10.0 ** (-LAMBDA_DIGITS / 2)    # tol^2 / 2
    signs = []
    for k, tau, w_tau in sign_points(n_level, q_div):
        ftau = complex(eval_newform(cur, tau, LAMBDA_DIGITS, allowance))
        if abs(ftau) < tol:
            continue
        fw = complex(eval_newform(cur, w_tau, LAMBDA_DIGITS, allowance))
        # conj(u)^2 / Q = (k^2 - 8 Q - i k s) / (8 Q)
        ratio = complex(k * k - 8 * q_div, -k * sqrt(-tau.disc)) * fw / (8 * q_div * ftau)
        sign = 1 if ratio.real > 0 else -1
        if abs(ratio - sign) > tol:
            raise SignConsistencyError(
                f"W_{q_div} ratio {ratio:.8g} is not a sign at tolerance {tol:.3g}")
        signs.append(sign)
    if not signs or any(s != signs[0] for s in signs):
        raise SignConsistencyError(f"inconsistent W_{q_div} signs across samples: {signs}")
    return signs[0]

"""Recognition of floating-point values as exact algebraic numbers.

A rational value x is read by its best rational approximation.  x, rounded
to `digits` digits, is taken exactly as the binary fraction it is, and
Fraction.limit_denominator(10^h) gives the fraction a/b nearest to it with
b <= 10^h, a convergent or semiconvergent of its continued fraction, for
h = max_height(digits) = max(4, digits // 3).  a/b is accepted when |a| <
10^h and

    |x - a/b| < 10^-(digits - 5) max(1, |x|),

one comparison of exact fractions; otherwise the answer is None (no relation
found, never a proof of irrationality).  Two fractions with denominators at
most N = 10^h are at least 1/N^2 apart, so when x lies within 1/(2 N^2) of
some a/b of that height, a/b is the one returned.  The tolerance is
relative, as the error of x is: the residual |b x - a| of the true relation
is about |a| 10^-digits, 2 10^-49 for the point x = 217648630369/72182016 of
0,0,1,-38,90 (N = 361) at 60 digits.

The margin 10^5.  trace_point reads the coordinates c = x, y that
periods.elliptic_exp gives at the trace z, a sum of at most p + 1 series
values each within 10^-(digits+10) of its true value (modparam), so z errs
by |dz| < 2 10^-(digits+8) for p < 200.  elliptic_exp works at digits + 25
digits, so each part of c errs by about |c'(z)| |dz|.  Near the lattice,
where the coordinates grow, x ~ z^-2 and y ~ -z^-3, so |x'| ~ 2 |x|^(3/2)
and |y'| ~ 3 x^2; away from it |c'| is of the size of the a-invariants.
Each part of either coordinate so errs by less than 6 x^2 10^-(digits+8),
under the tolerance's floor 10^-(digits-5) while |x| < 10^6, and rounding
to `digits` digits adds under 10^-digits of the part.  Beyond that, a true
point may be refused, never a wrong one accepted: curve_equation_holds_exactly
is the proof.  The bound is far from reached: every part of the coordinates
of the three named catalogue points and of the point above reads within
10^-(digits+8.5) max(1, |part|) of the exact value, before the rounding,
at 15 to 200 digits (the point above from 60 digits: below 54, its y lies
beyond the height max_height(digits)).

Values in an imaginary quadratic field Q(sqrt(d)), d < 0, split into a
rational real part and a rational multiple of sqrt(d), each read as above;
no further check of the sum is needed, since each part already passed one.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

import mpmath as mp

from .errors import InputError


class AlgebraicNumber(namedtuple("AlgebraicNumber", "nu mu den field_disc")):
    """Exact value (nu + mu*sqrt(field_disc)) / den; field_disc None means rational."""

    __slots__ = ()


def max_height(digits: int) -> int:
    """The decimal height h of every read at `digits` (module docstring)."""
    return max(4, digits // 3)


def recognize_rational(x, digits: int) -> Fraction | None:
    """x as a fraction a/b, |a| and b below 10^max_height(digits), within
    10^-(digits - 5) max(1, |x|) of x rounded to `digits` (module docstring)."""
    with mp.workdps(digits):
        x = Fraction(*mp.libmp.to_rational(mp.mpf(x)._mpf_))
    bound = 10 ** max_height(digits)
    frac = x.limit_denominator(bound)
    if abs(frac.numerator) < bound and abs(x - frac) * 10 ** digits < 10 ** 5 * max(1, abs(x)):
        return frac
    return None


def recognize_in_quadratic(x, field_disc: int, digits: int) -> AlgebraicNumber | None:
    """x as an element of Q(sqrt(field_disc)), field_disc < 0, each part read
    by recognize_rational."""
    if field_disc >= 0:
        raise InputError("only imaginary quadratic fields are handled")
    with mp.workdps(digits):
        x = mp.mpc(x)
        re = recognize_rational(x.real, digits)
        im = recognize_rational(x.imag / mp.sqrt(mp.mpf(-field_disc)), digits)
    if re is None or im is None:
        return None
    den = lcm(re.denominator, im.denominator)
    return AlgebraicNumber(nu=re.numerator * (den // re.denominator),
                           mu=im.numerator * (den // im.denominator),
                           den=den, field_disc=field_disc)


def curve_equation_holds_exactly(ainvs, x: AlgebraicNumber, y: AlgebraicNumber) -> bool:
    """Exact check of the Weierstrass equation over Q(sqrt(d)) in rational arithmetic."""
    if x.field_disc != y.field_disc:
        return False
    d = x.field_disc
    a1, a2, a3, a4, a6 = (Fraction(v) for v in ainvs)

    def mul(u, v):
        return (u[0] * v[0] + u[1] * v[1] * d, u[0] * v[1] + u[1] * v[0])

    def add(u, v):
        return (u[0] + v[0], u[1] + v[1])

    def smul(s, u):
        return (s * u[0], s * u[1])

    xf = (Fraction(x.nu, x.den), Fraction(x.mu, x.den))
    yf = (Fraction(y.nu, y.den), Fraction(y.mu, y.den))
    lhs = add(mul(yf, yf), add(smul(a1, mul(xf, yf)), smul(a3, yf)))
    x2 = mul(xf, xf)
    rhs = add(mul(x2, xf), add(smul(a2, x2), add(smul(a4, xf), (a6, Fraction(0)))))
    return lhs == rhs

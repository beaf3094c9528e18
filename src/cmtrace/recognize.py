"""Recognition of floating-point values as exact algebraic numbers.

Rational and imaginary-quadratic recognition run PSLQ-based integer relation
searches and always verify by back-substitution; an exhausted search returns
None (failure to find a relation, never a proof of transcendence).  Values in
an imaginary quadratic field Q(sqrt(d)), d < 0, split into a rational real
part and a rational multiple of sqrt(d), which keeps the search
one-dimensional and robust.
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

    def to_mpc(self):
        root = mp.sqrt(mp.mpf(self.field_disc)) if self.field_disc is not None else 0
        return (self.nu + self.mu * root) / self.den


def recognize_rational(x, digits: int, height_bound: int) -> Fraction | None:
    """x as a fraction with numerator and denominator below 10^height_bound."""
    with mp.workdps(digits):
        x = mp.mpf(x)
        if abs(x) < mp.mpf(10) ** (-digits / 2):
            return Fraction(0)
        rel = mp.pslq([x, mp.mpf(1)], maxcoeff=10 ** height_bound,
                      tol=mp.mpf(10) ** (-digits + 6))
        if rel is None or rel[0] == 0:
            return None
        frac = Fraction(int(rel[1]), int(-rel[0]))
        if abs(x - mp.mpf(frac.numerator) / frac.denominator) > mp.mpf(10) ** (-digits / 2):
            return None
        return frac


def recognize_in_quadratic(x, field_disc: int, digits: int,
                           height_bound: int) -> AlgebraicNumber | None:
    """x as an element of Q(sqrt(field_disc)), field_disc < 0, verified."""
    if field_disc >= 0:
        raise InputError("only imaginary quadratic fields are handled")
    with mp.workdps(digits):
        x = mp.mpc(x)
        re = recognize_rational(x.real, digits, height_bound)
        im = recognize_rational(x.imag / mp.sqrt(mp.mpf(-field_disc)), digits, height_bound)
        if re is None or im is None:
            return None
        den = lcm(re.denominator, im.denominator)
        out = AlgebraicNumber(nu=re.numerator * (den // re.denominator),
                              mu=im.numerator * (den // im.denominator),
                              den=den, field_disc=field_disc)
        if abs(x - out.to_mpc()) > mp.mpf(10) ** (-digits / 2):
            return None
        return out


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

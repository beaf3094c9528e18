"""Period lattices via AGM and the Weierstrass uniformisation of E(C).

The lattice is that of the invariant differential dx / (2y + a1 x + a3), with
w1 the real period and Im(w2 / w1) > 0.  The exponential map evaluates the
Weierstrass function and its derivative by a truncated Laurent series near the
origin followed by repeated duplication, then shifts into the given model.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .curves import Curve

DIGITS_CAP = 200
GUARD = 25


class PrecisionError(ArithmeticError):
    pass


@dataclass(frozen=True)
class PeriodLattice:
    curve: Curve
    w1: mp.mpc
    w2: mp.mpc
    digits: int


@dataclass(frozen=True)
class CurvePoint:
    """Point of E(C) as a lattice coordinate, with affine part (None at infinity)."""

    z: mp.mpc
    xy: tuple | None


def period_lattice(curve: Curve, digits: int) -> PeriodLattice:
    if digits > DIGITS_CAP:
        raise PrecisionError(f"precision capped at {DIGITS_CAP} digits")
    with mp.workdps(digits + GUARD):
        b2, b4, b6 = curve.b2, curve.b4, curve.b6
        roots = mp.polyroots([4, b2, 2 * b4, b6], maxsteps=200, extraprec=60)
        if curve.disc > 0:
            e1, e2, e3 = sorted((r.real for r in roots), reverse=True)
            w1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            w2 = mp.pi * mp.mpc(0, 1) / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        else:
            e1 = next(r.real for r in roots if abs(r.imag) < mp.mpf(10) ** (-digits))
            ec = next(r for r in roots if r.imag > mp.mpf(10) ** (-digits))
            big_a = abs(e1 - ec)
            cc = e1 - ec.real
            w1 = mp.pi / mp.agm(mp.sqrt(big_a), mp.sqrt((big_a + cc) / 2))
            v = mp.pi / mp.agm(mp.sqrt(big_a), mp.sqrt((big_a - cc) / 2))
            w2 = (w1 + mp.mpc(0, 1) * v) / 2
        assert mp.im(w2 / w1) > 0
        return PeriodLattice(curve=curve, w1=+w1, w2=+w2, digits=digits)


def lattice_coords(lat: PeriodLattice, z) -> tuple:
    """Real coordinates (alpha, beta) with z = alpha*w1 + beta*w2."""
    w1, w2 = lat.w1, lat.w2
    det = mp.re(w1) * mp.im(w2) - mp.re(w2) * mp.im(w1)
    alpha = (mp.re(z) * mp.im(w2) - mp.re(w2) * mp.im(z)) / det
    beta = (mp.re(w1) * mp.im(z) - mp.re(z) * mp.im(w1)) / det
    return alpha, beta


def lattice_reduce(lat: PeriodLattice, z):
    """Representative of z mod the lattice close to the origin."""
    alpha, beta = lattice_coords(lat, z)
    z = z - mp.nint(alpha) * lat.w1 - mp.nint(beta) * lat.w2
    changed = True
    while changed:
        changed = False
        for step in (lat.w1, lat.w2, lat.w1 + lat.w2, lat.w1 - lat.w2):
            for sgn in (1, -1):
                if abs(z + sgn * step) < abs(z):
                    z = z + sgn * step
                    changed = True
    return z


def lattice_distance(lat: PeriodLattice, z):
    return abs(lattice_reduce(lat, z))


def _shortest_vector_len(lat: PeriodLattice):
    b1, b2v = lat.w1, lat.w2
    while True:
        if abs(b2v) < abs(b1):
            b1, b2v = b2v, b1
        mu = mp.nint(mp.re(b2v * mp.conj(b1)) / abs(b1) ** 2)
        if mu == 0:
            break
        b2v = b2v - mu * b1
    return abs(b1)


def _wp_series_coeffs(g2, g3, nterms: int):
    cs = [mp.mpf(0)] * (nterms + 1)
    cs[1] = g2 / 20
    cs[2] = g3 / 28
    for k in range(3, nterms + 1):
        acc = mp.mpf(0)
        for i in range(1, k - 1):
            acc += cs[i] * cs[k - 1 - i]
        cs[k] = 3 * acc / ((2 * k + 3) * (k - 2))
    return cs


def _wp_pair(lat: PeriodLattice, z, dps: int):
    """(wp(z), wp'(z)) for reduced z != 0, by Laurent series plus duplication."""
    cur = lat.curve
    g2 = mp.mpf(cur.c4) / 12
    g3 = mp.mpf(cur.c6) / 216
    short = _shortest_vector_len(lat)
    radius = short / 8
    k = 0
    while abs(z) / 2 ** k > radius:
        k += 1
    u = z / 2 ** k
    nterms = int(0.6 * (dps + 10)) + 8
    cs = _wp_series_coeffs(g2, g3, nterms)
    u2 = u * u
    wp = 1 / u2
    wpd = -2 / (u2 * u)
    upow = mp.mpc(1)
    for j in range(1, nterms + 1):
        upow *= u2
        wp += cs[j] * upow
        wpd += 2 * j * cs[j] * upow / u
    for _ in range(k):
        lam = (6 * wp * wp - g2 / 2) / wpd
        wp2 = lam * lam / 4 - 2 * wp
        wpd = -(lam * (wp2 - wp) + wpd)
        wp = wp2
    return wp, wpd


def elliptic_exp(lat: PeriodLattice, z) -> CurvePoint:
    """Point of E(C) with lattice coordinate z; satisfies the model equation
    to roughly 10^(5 - digits)."""
    cur = lat.curve
    digits = lat.digits
    with mp.workdps(digits + GUARD):
        zr = lattice_reduce(lat, mp.mpc(z))
        if abs(zr) < mp.mpf(10) ** (-digits) * abs(lat.w1):
            return CurvePoint(z=mp.mpc(z), xy=None)
        wp, wpd = _wp_pair(lat, zr, digits + GUARD)
        x = wp - mp.mpf(cur.b2) / 12
        y = (wpd - cur.a1 * x - cur.a3) / 2
        return CurvePoint(z=mp.mpc(z), xy=(x, y))


def is_torsion(z, lat: PeriodLattice, digits: int, bound: int = 24) -> bool:
    """Whether some multiple m*z, m <= bound, falls on the lattice to 10^(-digits/2)."""
    return torsion_order(z, lat, digits, bound) is not None


def torsion_order(z, lat: PeriodLattice, digits: int, bound: int = 24):
    with mp.workdps(lat.digits + GUARD):
        tol = mp.mpf(10) ** (-digits / 2)
        scale = abs(lat.w1)
        for m in range(1, bound + 1):
            if lattice_distance(lat, m * mp.mpc(z)) < tol * scale:
                return m
    return None


def torsion_residual(z, lat: PeriodLattice, bound: int = 24):
    """Smallest distance of m*z to the lattice over 1 <= m <= bound."""
    with mp.workdps(lat.digits + GUARD):
        return min(lattice_distance(lat, m * mp.mpc(z)) for m in range(1, bound + 1))

"""Period lattices via AGM and the Weierstrass uniformisation of E(C).

The lattice is that of the invariant differential dx / (2y + a1 x + a3), with
w1 the real period and Im(w2 / w1) > 0.  The exponential map evaluates the
Weierstrass function and its derivative as Jacobi theta quotients, then shifts
into the given model.

The 2-torsion.  The roots e of 4x^3 + b2 x^2 + 2 b4 x + b6, which the AGM
takes, are e = (t - 3 b2) / 36 for the roots t of t^3 - 27 c4 t - 54 c6,
whose discriminant is the exact integer 78732 (c4^3 - c6^2) = 136048896 Delta.
Let t1 be the real root when Delta < 0 and the root of largest |t| when
Delta > 0.  Its distance to each other root is at least R, the largest |t|:
three real roots sum to 0, so both gaps are at least |t1| = R, and a complex
pair -t1/2 +- i y is at sqrt(9 t1^2 / 4 + y^2) >= max(|t1|, sqrt(t1^2 / 4 +
y^2)) = R.  So Newton's method converges on t1 from a seed in double
precision, 6 sqrt(c4) cos(atan2(sqrt(1728 Delta), |c6|) / 3) or 3 (u + c4 /
u), u^3 = |c6| + sqrt(-1728 Delta) (sign of c6 restored), doubling its
precision each step up to the working precision plus NEWTON_GUARD bits.
The other two are -t1/2 +- sqrt(D2) with D2 = 34012224 Delta / f'(t1)^2,
since f'(t1) = (t1 - t2)(t1 - t3): D2 has no cancellation, however close
t2 and t3 are, where polyroots or a Newton iteration on each root loses
digits.  The tests compare the roots with mpmath's polyroots to
10^-(digits+10) of the largest root on random curves of both signs.

Nearest lattice vectors.  Each lattice is Lagrange-reduced once, by
quadforms.lagrange_reduce on the Gram triple of w1 and w2 cut to integers at
the working precision: the integer rows of PeriodLattice.reduction give a
basis b1, b2, exact at any precision, with |b1| <= |b2| and
|Re(b2 conj b1)| <= |b1|^2 / 2 up to that cut.  A point with
coordinates (x, y) in that basis lies in the cell with corners c, c + b1,
c + b2, c + b1 + b2, c = floor(x) b1 + floor(y) b2, and its nearest lattice
vector is one of those four corners.  The cell splits along its shorter
diagonal, b1 - b2 or b1 + b2, into two triangles with sides |b1|, |b2| and
that diagonal.  The diagonal is their longest side, and its square is at
most |b1|^2 + |b2|^2, so neither triangle has an obtuse angle.  Translates
of the two triangles tile the plane, and a tiling without obtuse angles is
the Delaunay triangulation of the lattice: no lattice point lies inside the
circumdisc of a triangle, nor inside the disc on an edge as diameter, each
half of which lies in the circumdisc of the triangle on its side.  So the
circumcentre and the edge midpoints of a triangle are as close to its
vertices as to any lattice point.  The part of a triangle nearest to one of
its vertices, the quadrilateral from the vertex to the midpoints of its two
edges and the circumcentre (inside the triangle), is the convex hull of
points of that vertex's Voronoi cell, so it lies in the cell.  Hence the
squared distance of the point to the lattice is the minimum of the Gram
form over its offsets from the four corners.

Precision budget.  With P the working precision of lat.digits + GUARD
decimal digits, the torsion test for m <= bound uses integers scaled by
2^F, F = P + bit_length(bound) + FIXED_GUARD.  w1, w2 and z are cut to
integers scaled by 2^e, e = F + 24 + log2 |z / w1|, the reduced basis is
formed from them exactly, and the coordinates of z are solved exactly from
those and rounded down to units of 2^-F: each is off by less than two
units.  Those of m z are the exact multiples, so they are off by less than
2m 2^-F <= 2^(1 - P - FIXED_GUARD), and the reduction mod 1 (a shift by F
bits) and the choice of corner are exact on them.  That moves a distance by
at most 2^(1 - P - FIXED_GUARD) (|b1| + |b2|), below 10^-(digits+27) |b2|.
The Gram form is exact for the cut basis, which is off by about 2^-e times
the entries of the reduction, far less.  Squared distances stay integers
scaled by 2^-2(e+F) until the one square root.  nearest_vector takes
F = P + FIXED_GUARD at the caller's precision and only uses the corner it
picks; modparam and experiments read every lattice vector through it.

The Weierstrass function.  DLMF 23.6.5 with 2 omega_1 = b1 and
tau = b2 / b1 gives wp(z) = (pi / b1)^2 [(theta2 theta3 theta4(v) /
theta1(v))^2 - (theta2^4 + theta3^4) / 3], v = pi z / b1, the theta
functions of nome q = e^(i pi tau) and those without an argument at 0.
Its derivative in z is wp'(z) = 2 (pi / b1)^3 (theta2 theta3)^2 theta4(v)
(theta4'(v) theta1(v) - theta4(v) theta1'(v)) / theta1(v)^3.  The basis is
the reduced one, with tau negated when Im tau < 0 (Lagrange reduction keeps
either orientation), so |Re tau| <= 1/2 and |tau| >= 1, hence Im tau >=
sqrt(3) / 2 and |q| <= e^(-pi sqrt(3) / 2) < 0.07: the n-th term of each
theta series is of order |q|^(n^2), and mpmath's jtheta sums them to the
working precision.  The tests compare both values with the Laurent series
plus duplication (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import mpmath as mp

from .curves import Curve
from .errors import CmtraceError
from .finite import DIGITS_CAP
from .quadforms import lagrange_reduce

GUARD = 25
FIXED_GUARD = 10            # guard bits of the fixed-point routines (module docstring)
NEWTON_GUARD = 20           # guard bits of the Newton iteration for the 2-torsion
TORSION_BOUND = 24          # the torsion test tries the multiples m*z, m <= TORSION_BOUND


class PrecisionError(CmtraceError, ArithmeticError):
    pass


@dataclass(frozen=True)
class PeriodLattice:
    curve: Curve
    w1: mp.mpc
    w2: mp.mpc
    digits: int

    @cached_property
    def reduction(self) -> tuple:
        """Integer rows (p, q), (r, s) with b1 = p w1 + q w2 and b2 = r w1 + s w2
        Lagrange-reduced: |b1| <= |b2| and |Re(b2 conj(b1))| <= |b1|^2 / 2, for
        w1 and w2 cut to integers at the working precision (module docstring)."""
        with mp.workdps(self.digits + GUARD):
            e = mp.mp.prec - mp.mag(self.w1)
            w1r, w1i, w2r, w2i = (int(mp.ldexp(v, e)) for v in (
                mp.re(self.w1), mp.im(self.w1), mp.re(self.w2), mp.im(self.w2)))
        gram = (w1r * w1r + w1i * w1i, w1r * w2r + w1i * w2i, w2r * w2r + w2i * w2i)
        return lagrange_reduce(gram, (1, 0), (0, 1))


@lru_cache(maxsize=128)
def period_lattice(curve: Curve, digits: int) -> PeriodLattice:
    """The period lattice of the curve at `digits`, computed once per (curve,
    digits) and process: a warm process reuses it, reduction included."""
    if digits > DIGITS_CAP:
        raise PrecisionError(f"precision capped at {DIGITS_CAP} digits")
    with mp.workdps(digits + GUARD):
        if curve.disc > 0:
            e1, e2, e3 = two_torsion_roots(curve)
            w1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            w2 = mp.pi * mp.mpc(0, 1) / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        else:
            e1, ec = two_torsion_roots(curve)
            big_a = abs(e1 - ec)
            cc = e1 - ec.real
            w1 = mp.pi / mp.agm(mp.sqrt(big_a), mp.sqrt((big_a + cc) / 2))
            v = mp.pi / mp.agm(mp.sqrt(big_a), mp.sqrt((big_a - cc) / 2))
            w2 = (w1 + mp.mpc(0, 1) * v) / 2
        assert mp.im(w2 / w1) > 0
        return PeriodLattice(curve=curve, w1=+w1, w2=+w2, digits=digits)


def two_torsion_roots(curve: Curve) -> tuple:
    """The roots of 4x^3 + b2 x^2 + 2 b4 x + b6 at the working precision:
    the three real ones in decreasing order when disc > 0, else the real one
    and the one of positive imaginary part (module docstring)."""
    c4, c6, disc = curve.c4, curve.c6, curve.disc
    prec = mp.mp.prec + NEWTON_GUARD
    sign = -1 if c6 < 0 else 1
    with mp.workprec(53):                      # the seed, for |c6| (t -> -t for -c6)
        if disc > 0:
            t = 6 * mp.sqrt(c4) * mp.cos(mp.atan2(mp.sqrt(1728 * disc), abs(c6)) / 3)
        else:
            u = mp.cbrt(abs(c6) + mp.sqrt(-1728 * disc))
            t = 3 * (u + c4 / u)
    steps = [prec]
    while steps[-1] > 100:
        steps.append(steps[-1] // 2 + 10)
    for bits in reversed([prec] + steps):      # the last step repeated at full precision
        with mp.workprec(bits):
            t = t - (t * t * t - 27 * c4 * t - 54 * abs(c6)) / (3 * t * t - 27 * c4)
    with mp.workprec(prec):
        t = sign * t
        fp = 3 * t * t - 27 * c4               # f'(t1) = (t1 - t2)(t1 - t3), no cancellation
        d2 = 34012224 * disc / (fp * fp)       # ((t2 - t3) / 2)^2
        shift = 3 * curve.b2
        if disc > 0:
            r = mp.sqrt(d2)
            roots = sorted(((x - shift) / 36 for x in (t, -t / 2 + r, -t / 2 - r)), reverse=True)
        else:
            roots = [(t - shift) / 36, mp.mpc(-t / 2 - shift, mp.sqrt(-d2)) / 36]
    return tuple(+x for x in roots)


def _reduced_basis(lat: PeriodLattice) -> tuple:
    """(b1, b2) of lat.reduction, at the working precision."""
    (p, q), (r, s) = lat.reduction
    return p * lat.w1 + q * lat.w2, r * lat.w1 + s * lat.w2


def _cell(lat: PeriodLattice, z, frac: int) -> tuple:
    """(gram, x, y, shift), all integers: the coordinates of z = (x b1 + y b2)
    / 2^frac in the reduced basis, rounded down, and the Gram form of the
    basis, whose value n at an offset (s, t) / 2^frac is the squared length
    n 2^shift.  w1, w2 and z enter cut to integers scaled by 2^e."""
    z = mp.mpc(z)
    e = frac + max(0, mp.mag(z) - mp.mag(lat.w1)) + 24
    w1r, w1i, w2r, w2i, zr, zi = (int(mp.ldexp(v, e)) for v in (
        mp.re(lat.w1), mp.im(lat.w1), mp.re(lat.w2), mp.im(lat.w2), z.real, z.imag))
    (p, q), (r, s) = lat.reduction
    b1r, b1i = p * w1r + q * w2r, p * w1i + q * w2i
    b2r, b2i = r * w1r + s * w2r, r * w1i + s * w2i
    det = b1r * b2i - b1i * b2r
    x = ((zr * b2i - zi * b2r) << frac) // det
    y = ((b1r * zi - b1i * zr) << frac) // det
    gram = (b1r * b1r + b1i * b1i, b1r * b2r + b1i * b2i, b2r * b2r + b2i * b2i)
    return gram, x, y, -2 * (e + frac)


def _nearest_multiples(gram: tuple, x: int, y: int, frac: int, bound: int):
    """For m = 1..bound in order, (n, i, j): the corner (i, j) of the reduced
    cell that holds m (x, y) / 2^frac nearest to it, and the Gram form value n
    of its offset.  The form is expanded about the corner, m^2 Q(x, y)
    - 2^(frac+1) m B((x, y), (i, j)) + 4^frac Q(i, j), so that per m only the
    small m, i and j multiply the big integers."""
    g11, g12, g22 = gram
    ax, bx = g11 * x + g12 * y, g12 * x + g22 * y
    qxy = x * ax + y * bx
    for m in range(1, bound + 1):
        i0, j0 = (m * x) >> frac, (m * y) >> frac
        base = m * m * qxy
        yield min((base - ((m * (i * ax + j * bx)) << (frac + 1))
                   + (((g11 * i + 2 * g12 * j) * i + g22 * j * j) << (2 * frac)), i, j)
                  for i in (i0, i0 + 1) for j in (j0, j0 + 1))


def nearest_vector(lat: PeriodLattice, z) -> tuple[int, int]:
    """(i, j) with i w1 + j w2 the lattice vector nearest to z at the working
    precision: the nearest corner of z's reduced cell, mapped to the
    coordinates of w1 and w2 by the integer rows of lat.reduction."""
    frac = mp.mp.prec + FIXED_GUARD
    gram, x, y, _ = _cell(lat, z, frac)
    _, i, j = next(_nearest_multiples(gram, x, y, frac, 1))
    (p, q), (r, s) = lat.reduction
    return i * p + j * r, i * q + j * s


def lattice_reduce(lat: PeriodLattice, z):
    """z minus the lattice vector nearest to it, at the working precision."""
    i, j = nearest_vector(lat, z)
    return mp.mpc(z) - i * lat.w1 - j * lat.w2


def _wp_pair(lat: PeriodLattice, z):
    """(wp(z), wp'(z)) for reduced z != 0, as theta quotients (module docstring)."""
    b1, b2 = _reduced_basis(lat)
    tau = b2 / b1
    q = mp.expjpi(tau if mp.im(tau) > 0 else -tau)
    c = mp.pi / b1
    v = c * z
    t2, t3 = mp.jtheta(2, 0, q), mp.jtheta(3, 0, q)
    t1, t4 = mp.jtheta(1, v, q), mp.jtheta(4, v, q)
    a = t2 * t3
    r = a * t4 / t1
    wp = c * c * (r * r - (t2 ** 4 + t3 ** 4) / 3)
    d1, d4 = mp.jtheta(1, v, q, 1), mp.jtheta(4, v, q, 1)
    wpd = 2 * c ** 3 * r * a * (d4 * t1 - t4 * d1) / (t1 * t1)
    return wp, wpd


def elliptic_exp(lat: PeriodLattice, z) -> tuple | None:
    """The affine point (x, y) of E(C) with lattice coordinate z, or None at
    a lattice point (the point at infinity); satisfies the model equation to
    roughly 10^(5 - digits)."""
    cur = lat.curve
    digits = lat.digits
    with mp.workdps(digits + GUARD):
        zr = lattice_reduce(lat, mp.mpc(z))
        if abs(zr) < mp.mpf(10) ** (-digits) * abs(lat.w1):
            return None
        wp, wpd = _wp_pair(lat, zr)
        x = wp - mp.mpf(cur.b2) / 12
        y = (wpd - cur.a1 * x - cur.a3) / 2
        return x, y


def _scaled_dist2(z, lat: PeriodLattice, bound: int) -> tuple:
    """(shift, values): values yields, for m = 1..bound in order, an integer n
    with n 2^shift the squared distance of m*z to the lattice."""
    frac = mp.mp.prec + bound.bit_length() + FIXED_GUARD
    gram, x, y, shift = _cell(lat, z, frac)
    return shift, (n for n, _, _ in _nearest_multiples(gram, x, y, frac, bound))


def is_torsion(z, lat: PeriodLattice) -> bool:
    """Whether some multiple m*z, m <= TORSION_BOUND, falls on the lattice to
    10^(-lat.digits/2)."""
    return torsion_order(z, lat) is not None


def torsion_order(z, lat: PeriodLattice):
    """The least m <= TORSION_BOUND with m*z within 10^(-lat.digits/2)*|w1| of the lattice."""
    with mp.workdps(lat.digits + GUARD):
        shift, values = _scaled_dist2(z, lat, TORSION_BOUND)
        tol2 = (mp.mpf(10) ** (-lat.digits / 2) * abs(lat.w1)) ** 2
        limit = int(mp.ceil(mp.ldexp(tol2, -shift)))      # n < limit iff n 2^shift < tol2
        for m, n in enumerate(values, 1):
            if n < limit:
                return m
    return None


def torsion_residual(z, lat: PeriodLattice):
    """Smallest distance of m*z to the lattice over 1 <= m <= TORSION_BOUND."""
    with mp.workdps(lat.digits + GUARD):
        shift, values = _scaled_dist2(z, lat, TORSION_BOUND)
        return mp.sqrt(mp.ldexp(min(values), shift))

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

Precision budget.  locate solves each point z once, at the lattice's own
working precision P, that of lat.digits + GUARD decimal digits, whatever
the caller's: z rounded to P bits, and w1, w2 and z cut to integers scaled
by 2^e, e = F + 24 + max(0, log2 |z / w1|), F = P + bit_length(TORSION_BOUND)
+ FIXED_GUARD.  The reduced basis is formed from those exactly, and the
coordinates of z are solved exactly and rounded down to units of 2^-F:
each is off by less than two units.  Those of m z, m <= TORSION_BOUND, are
the exact multiples, off by less than 2m 2^-F <= 2^(1 - P - FIXED_GUARD),
and the reduction mod 1 (a shift by F bits) and the choice of corner are
exact on them.  That moves a distance by at most 2^(1 - P - FIXED_GUARD)
(|b1| + |b2|), below 10^-(digits+27) |b2|.  The Gram form is exact for the
cut basis, which is off by about 2^-e times the entries of the reduction,
far less.  A squared distance is an integer n times 2^shift, shift =
-2(e + F), up to the one square root, so each threshold is an integer
comparison, n < ceil(r^2 2^-shift) for a distance r: 10^(-digits/2) |w1|
for the torsion test, 10^-digits |w1| at m = 1 for elliptic_exp's point
at infinity, and LAMBDA_BUDGET at m = 1 for a read.  What depends on the
lattice and e alone (w1 and w2 cut, b1, b2, their determinant and Gram
triple, the three limits) is fixed once per lattice and e, in the Cut that
lat.cuts keeps under k, so locate cuts only z; one scan of the multiples,
kept on the point, yields both the torsion order (the first m under the
limit) and the residual (the least n).

Reading a lattice vector.  modparam and experiments read each lattice
vector (2520 K_Q, a fiber's lam, a period Omega) off a value v by
read_vector: v's nearest corner lam at m = 1, accepted only when |v - lam|
< LAMBDA_BUDGET < |b1| / 2 (|b1|^2 = g11 4^F 2^shift), one integer
comparison n < cut.read, the read limit being 0 when LAMBDA_BUDGET is
|b1| / 2 or more.  Lattice vectors are at least |b1| apart, so when v is
within the budget of the true vector lam*, lam* is accepted, and when v is
within |b1| - budget of lam*, an accepted lam is lam*: a larger error
raises, never a wrong lam.

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

from collections import namedtuple
from functools import cached_property, lru_cache

import mpmath as mp

from .curves import Curve, _read_only
from .finite import check_digits
from .quadforms import lagrange_reduce

GUARD = 25
FIXED_GUARD = 10            # guard bits of the fixed-point routines (module docstring)
NEWTON_GUARD = 20           # guard bits of the Newton iteration for the 2-torsion
TORSION_BOUND = 24          # the torsion test tries the multiples m*z, m <= TORSION_BOUND
LAMBDA_BUDGET = 1e-9        # how far a value read_vector reads may miss its vector


class PeriodLattice(namedtuple("PeriodLattice", "curve w1 w2 digits")):
    """The periods w1, w2 of the curve at `digits`: a named tuple with no
    __slots__, so that each instance has the __dict__ its cached reduction and
    cuts are kept in."""

    __setattr__ = __delattr__ = _read_only

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

    @cached_property
    def cuts(self) -> dict:
        """k -> the lattice's Cut at e = F + 24 + k."""
        return {}


@lru_cache(maxsize=128)
def period_lattice(curve: Curve, digits: int) -> PeriodLattice:
    """The period lattice of the curve at `digits` (finite.check_digits),
    computed once per (curve, digits) and process: a warm process reuses it,
    reduction included."""
    check_digits(digits)
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


Cut = namedtuple("Cut", "e frac b1r b1i b2r b2i det gram shift torsion infinity read")


def _cut(lat: PeriodLattice, k: int) -> Cut:
    """The reduced basis cut to integers at e = F + 24 + k, with its determinant,
    Gram triple, shift and torsion, infinity and read limits, kept in lat.cuts;
    the read limit is 0 when LAMBDA_BUDGET is |b1| / 2 or more."""
    with mp.workdps(lat.digits + GUARD):
        frac = mp.mp.prec + TORSION_BOUND.bit_length() + FIXED_GUARD
        e = frac + k + 24
        w1r, w1i, w2r, w2i = (int(mp.ldexp(v, e)) for v in (
            mp.re(lat.w1), mp.im(lat.w1), mp.re(lat.w2), mp.im(lat.w2)))
    (p, q), (r, s) = lat.reduction
    b1r, b1i = p * w1r + q * w2r, p * w1i + q * w2i
    b2r, b2i = r * w1r + s * w2r, r * w1i + s * w2i
    gram = (b1r * b1r + b1i * b1i, b1r * b2r + b1i * b2i, b2r * b2r + b2i * b2i)
    shift = -2 * (e + frac)
    read = _limit(lat, shift, LAMBDA_BUDGET, 0)
    lat.cuts[k] = cut = Cut(e, frac, b1r, b1i, b2r, b2i, b1r * b2i - b1i * b2r, gram, shift,
                            _limit(lat, shift, lat.w1, -lat.digits / 2),
                            _limit(lat, shift, lat.w1, -lat.digits),
                            read if 4 * read < gram[0] << 2 * frac else 0)
    return cut


class LatticePoint(namedtuple("LatticePoint", "lat x y cut")):
    """A point located in the reduced basis (locate), with no __slots__, so
    that each instance has the __dict__ its one scan is kept in."""

    __setattr__ = __delattr__ = _read_only

    @cached_property
    def scan(self) -> tuple:
        """(order, n): the least m <= TORSION_BOUND with m z within 10^(-digits/2)
        |w1| of the lattice, or None, and the least Gram value over all m."""
        ns = [n for n, _, _ in _nearest_multiples(self, TORSION_BOUND)]
        return next((m for m, n in enumerate(ns, 1) if n < self.cut.torsion), None), min(ns)


def locate(lat: PeriodLattice, z) -> LatticePoint:
    """(lat, x, y, cut): z = (x b1 + y b2) / 2^cut.frac in the reduced basis, x
    and y rounded down, at the lattice's cut for |z|, whose Gram value n at an
    offset (s, t) / 2^frac is the squared length n 2^cut.shift; solved at the
    lattice's working precision, whatever the caller's (module docstring)."""
    with mp.workdps(lat.digits + GUARD):
        z = mp.mpc(z)
    k = max(0, mp.mag(z) - mp.mag(lat.w1))
    cut = lat.cuts.get(k) or _cut(lat, k)
    zr, zi = int(mp.ldexp(z.real, cut.e)), int(mp.ldexp(z.imag, cut.e))
    x = ((zr * cut.b2i - zi * cut.b2r) << cut.frac) // cut.det
    y = ((cut.b1r * zi - cut.b1i * zr) << cut.frac) // cut.det
    return LatticePoint(lat, x, y, cut)


def _nearest_multiples(point: LatticePoint, bound: int):
    """For m = 1..bound in order, (n, i, j): the corner (i, j) of the reduced
    cell that holds m (x, y) / 2^F nearest to it, and the Gram form value n
    of its offset.  About the lowest corner (i, j), n = m^2 Q(x, y) - 2^(F+1)
    B(m (x, y), (i, j)) + 4^F Q(i, j), and the other three differ from it by
    4^F Q(a, b) - 2^(F+1) (a, b) . (A, B), (A, B) = G (m (x, y) - 2^F (i, j)),
    so that per m only the small m, i and j multiply the big integers."""
    _, x, y, cut = point
    frac, (g11, g12, g22) = cut.frac, cut.gram
    ax, bx = g11 * x + g12 * y, g12 * x + g22 * y
    qxy = x * ax + y * bx
    c10, c01 = g11 << 2 * frac, g22 << 2 * frac
    c11 = c10 + c01 + (g12 << 2 * frac + 1)
    for m in range(1, bound + 1):
        i, j = (m * x) >> frac, (m * y) >> frac
        ma, mb = m * ax, m * bx
        p, r = g11 * i + g12 * j, g12 * i + g22 * j
        n = m * m * qxy - ((i * ma + j * mb) << frac + 1) + ((i * p + j * r) << 2 * frac)
        a, b = (ma - (p << frac)) << frac + 1, (mb - (r << frac)) << frac + 1
        yield min((n, i, j), (n - a + c10, i + 1, j), (n - b + c01, i, j + 1),
                  (n - a - b + c11, i + 1, j + 1))


def _limit(lat: PeriodLattice, shift: int, radius, power) -> int:
    """n < _limit(lat, shift, radius, power) iff n 2^shift < (10^power |radius|)^2."""
    with mp.workdps(lat.digits + GUARD):
        return int(mp.ceil(mp.ldexp((mp.mpf(10) ** power * abs(radius)) ** 2, -shift)))


def read_vector(lat: PeriodLattice, z, error, what: str) -> tuple[int, int]:
    """(i, j) with i w1 + j w2 the lattice vector within LAMBDA_BUDGET of z, for
    a z known to less than that: the nearest corner of locate(lat, z), mapped
    to (w1, w2) by the integer rows of lat.reduction, accepted only when its
    Gram value is under the cut's read limit (module docstring).  Else
    error(f"{what} misses the lattice by ..."), with the miss and |b1| / 2."""
    point = locate(lat, z)
    cut = point.cut
    n, i, j = next(_nearest_multiples(point, 1))
    if not n < cut.read:
        with mp.workdps(lat.digits + GUARD):
            miss, b1 = (mp.sqrt(mp.ldexp(v, cut.shift)) for v in (n, cut.gram[0] << 2 * cut.frac))
        raise error(f"{what} misses the lattice by {mp.nstr(miss, 3)}, against "
                    f"{mp.nstr(LAMBDA_BUDGET, 2)} and |b1| / 2 = {mp.nstr(b1 / 2, 3)}")
    (p, q), (r, s) = lat.reduction
    return i * p + j * r, i * q + j * s


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


def elliptic_exp(point: LatticePoint) -> tuple | None:
    """The affine point (x, y) of E(C) at the point, by wp at z minus its nearest
    corner, or None within 10^-digits |w1| of the lattice (the point at
    infinity); satisfies the model equation to roughly 10^(5 - digits)."""
    lat, x, y, cut = point
    n, i, j = next(_nearest_multiples(point, 1))
    if n < cut.infinity:
        return None
    with mp.workdps(lat.digits + GUARD):
        b1, b2 = _reduced_basis(lat)
        wp, wpd = _wp_pair(lat, mp.ldexp(x - (i << cut.frac), -cut.frac) * b1
                           + mp.ldexp(y - (j << cut.frac), -cut.frac) * b2)
        px = wp - mp.mpf(lat.curve.b2) / 12
        py = (wpd - lat.curve.a1 * px - lat.curve.a3) / 2
        return px, py


def is_torsion(point: LatticePoint) -> bool:
    """Whether some multiple m*z, m <= TORSION_BOUND, falls on the lattice to
    10^(-digits/2) |w1|."""
    return point.scan[0] is not None


def torsion_residual(point: LatticePoint):
    """Smallest distance of m*z to the lattice over 1 <= m <= TORSION_BOUND."""
    with mp.workdps(point.lat.digits + GUARD):
        return mp.sqrt(mp.ldexp(point.scan[1], point.cut.shift))

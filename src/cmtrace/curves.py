"""Elliptic curves over Q: Weierstrass invariants, minimal models, Tate's
algorithm for reduction data and conductor, and Fourier coefficients a_n.

Good a_ell come from counting points over F_ell, in Python integers:
ell = 2 and 3 by their affine points.  For ell >= 5, E is isomorphic over
F_ell to y^2 = f(x) = x^3 + A x + B, A = -27 c4, B = -54 c6, and
#E(F_ell) = ell + 1 + sum_x chi(f(x)), chi the quadratic character: that
character sum counts ell <= MESTRE_BOUND, and a baby-step giant-step
search (Shanks-Mestre; Cohen, A Course in Computational Algebraic Number
Theory, GTM 138, 1993, section 7.4) every larger ell, exact by the
following argument.  Take v = f(x0) != 0.  The twist E^v: v y^2 = f(x)
holds (x0, 1); scaled by v^3 it is y^2 = x^3 + A v^2 x + B v^3 with the
point P = (x0 v, v^2), found with no square root.  E^v is E when v is a
square (Euler's criterion) and the quadratic twist E' otherwise, and
#E + #E' = 2 ell + 2.  By Hasse, #E^v = ell + 1 - t with t^2 <= 4 ell, so
|t| <= h = isqrt(4 ell): #E^v = low + k for some k in [0, 2h],
low = ell + 1 - h, and #E^v P = O.  Every multiple of the order of P in
that interval has the same property, so the search must find all of them,
not the first: it examines every k in [0, 2h], and #E^v is known only
when it finds exactly one.  It writes low + k = low + m + i (2m + 1) + s
with -m <= s <= m, m = isqrt(h), so that (low + k) P = O exactly when the
giant step Q_i = (low + m + i (2m + 1)) P equals -s P.  When the baby
steps jP, 1 <= j <= m + 1, have distinct x and y != 0, the points +-jP
(j <= m) and O are 2m + 1 distinct points: Q_i = O gives s = 0, and
otherwise x(Q_i) names at most one j and y(Q_i) its sign.  So the k found
are exactly those with (low + k) P = O, #E^v among them, and a unique k is
#E^v.  When the babies fail that test, P has order at most 2m + 2 <= h,
so two multiples in the interval, like a P for which two k are found: the
search moves to the next x0.  By Mestre's theorem, in the form Cremona and
Sutherland proved (J. Theor. Nombres Bordeaux 22, 2010), for ell > 229
E or E' has a point whose order has a single multiple in the interval, so
a further point rarely fails too; after SEARCH_POINTS points the character
sum decides.  Every step is exact integer arithmetic, so AN_BOUND is only
the cap on the coefficients a sieve may ask for.

A curve with complex multiplication by an order of
K = Q(sqrt d) skips the count where it is forced: at a good prime ell that
is inert in K the reduction is supersingular (Deuring, Abh. Math. Sem.
Hamburg 14, 1941), so a_ell = 0 mod ell, and for ell >= 5 the Hasse bound
|a_ell| <= 2 sqrt(ell) < ell leaves a_ell = 0.  The CM field is read off
the j-invariant, which for a rational CM curve is one of 13 integers.

A CM curve needs no count at all when its conductor forces its Hecke
character.  K = Q(sqrt d) has class number one for every rational CM
curve, and L(E, s) = L(psi, s) = sum over the ideals a of O_K of psi(a)
N(a)^-s for a Hecke character psi with psi((alpha)) = chi(alpha) alpha
at alpha prime to its conductor f, chi a character of (O_K / f)^x
(Deuring; Silverman, Advanced Topics in the Arithmetic of Elliptic Curves,
Thm. II.10.5; Gross, Arithmetic on Elliptic Curves with Complex
Multiplication, LNM 776, 1980), and the conductor of E is |d| N(f).
psi((alpha)) must not depend on the generator, so chi(u) = u^-1 on the
units U of O_K.  Each ideal prime to f has |U| generators, so a_n =
(1/|U|) sum chi(alpha) alpha over the alpha of norm n (chi = 0 off the
units mod f), a real number.  Two cases force chi:
- d odd and below -3 (d in {-7, -11, -19, -43, -67, -163}), U = {+-1},
  conductor d^2.  Then N(f) = |d|, so f = (sqrt d), the one ideal of
  that norm, and chi is a character of (O_K / sqrt d)^x = F_|d|^x with
  chi(-1) = -1.  F_|d|^x is cyclic, so its only characters with values +-1
  are the trivial one and the Legendre symbol mod |d|, and -1 is a
  non-square mod |d| = 3 mod 4: chi is the Legendre symbol, and a_n =
  (1/2) sum chi(alpha) Re(alpha).
- The units map onto (O_K / f)^x.  At d = -3, conductor 27 gives N(f) =
  9 and 36 gives N(f) = 12; 3 ramifies and 2 is inert in Q(sqrt -3), so
  the only ideals of those norms are (3) = (sqrt -3)^2 and (2 sqrt -3),
  and (O_K / f)^x has 9 - 3 = 6 or 3 * 2 = 6 elements.  At d = -4,
  conductor 32 gives N(f) = 8, and 2 = -i (1 + i)^2 ramifies, so f = (1 +
  i)^3 and (O_K / f)^x has 8 - 4 = 4 elements.  Each time the |U| units
  are distinct mod f (for u != 1, N(u - 1) <= 4 < N(f)), so they fill
  (O_K / f)^x, chi is fixed by chi(u) = u^-1, and chi(alpha) alpha is the
  one generator of (alpha) that is 1 mod f: a_n = sum Re(alpha) over the
  alpha = 1 mod f of norm n.
Every other CM curve, a twist of these to another conductor or y^2 = x^3
+- x at conductor 64, where two characters fit, is point-counted.
With alpha = (t + y sqrt d) / 2, t = d y mod 2, N(alpha) = (t^2 + |d| y^2)
/ 4 and Re(alpha) = t / 2; alpha = t / 2 mod sqrt d, so in the quadratic
case chi(alpha) = (t / 2 | |d|), and alpha = 1 mod f is t = 2 + k y mod s
on the rows y = 0 mod r, (r, k, s) = (3, 3, 6), (2, 3, 12) and (2, 6, 8)
at conductors 27, 36 and 32, a progression that never holds 0.  So one
walk over the rows y >= 0 and their progressions of t, conjugates paired
(weight 2 at y > 0) and, in the quadratic case, -alpha paired with alpha
(t > 0 only, weight 2), adds every alpha of norm up to the bound to its
a_n: no prime list, no recursion, the bad primes included (no alpha of
their norm is prime to f).

Bad primes contribute +1, -1, 0 according to split multiplicative, non-split
multiplicative, or additive reduction; _extended derives every other a_n.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd, isqrt, prod

from .errors import InputError
from .fp import factorint, isprime, kronecker


def _read_only(self, name, *_):      # cached_property writes __dict__ directly
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


class Curve(namedtuple("Curve", "a1 a2 a3 a4 a6")):
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    A named tuple of the a-invariants with no __slots__, so that each
    instance has the __dict__ its cached invariants are kept in."""

    __setattr__ = __delattr__ = _read_only

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.disc == 0:
            raise InputError("singular Weierstrass equation")
        return self

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace checks the curve too
        return cls(*iterable)

    @property
    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b2(self) -> int:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> int:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> int:
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self) -> int:
        return (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
                - self.a4 * self.a4)

    @cached_property
    def c4(self) -> int:
        return self.b2 * self.b2 - 24 * self.b4

    @cached_property
    def c6(self) -> int:
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @cached_property
    def disc(self) -> int:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @cached_property
    def cm_disc(self) -> int:
        """Fundamental discriminant of the CM field, or 0 without CM."""
        num = self.c4 ** 3
        if num % self.disc:
            return 0
        return _CM_FIELDS.get(num // self.disc, 0)


# The 13 rational j-invariants with complex multiplication, by the
# fundamental discriminant of the CM field (orders of conductor 1, 2 or 3).
_CM_FIELDS = {
    0: -3, 54000: -3, -12288000: -3,
    1728: -4, 287496: -4,
    -3375: -7, 16581375: -7,
    8000: -8,
    -32768: -11,
    -884736: -19,
    -884736000: -43,
    -147197952000: -67,
    -262537412640768000: -163,
}


def transform(cur: Curve, r: int, s: int, t: int) -> Curve:
    """Coordinate change x = x' + r, y = y' + s x' + t."""
    a1, a2, a3, a4, a6 = cur.ainvs
    return Curve(a1 + 2 * s,
                 a2 - s * a1 + 3 * r - s * s,
                 a3 + r * a1 + 2 * t,
                 a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
                 a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1)


def curve_from_c4c6(c4: int, c6: int) -> Curve | None:
    """Standardised integral model with the given invariants, or None."""
    if (c4 ** 3 - c6 * c6) % 1728:
        return None
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    num = b2 * b2 - c4
    if num % 24:
        return None
    b4 = num // 24
    num = -b2 ** 3 + 36 * b2 * b4 - c6
    if num % 216:
        return None
    b6 = num // 216
    a1 = b2 % 2
    a3 = b6 % 2
    if (b2 - a1) % 4 or (b4 - a1 * a3) % 2 or (b6 - a3) % 4:
        return None
    cur = Curve(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)
    if cur.c4 != c4 or cur.c6 != c6:
        return None
    return cur


def minimal_model(cur: Curve) -> Curve:
    """Global minimal model (Laska-Kraus-Connell via c4, c6 rescaling)."""
    c4, c6, disc = cur.c4, cur.c6, cur.disc
    u = 1
    for q, e in factorint(gcd(gcd(abs(c4) or abs(disc), abs(c6) or abs(disc)), abs(disc))).items():
        vd = _valuation(disc, q)
        vc4 = _valuation(c4, q) if c4 else vd
        vc6 = _valuation(c6, q) if c6 else vd
        u *= q ** min(vc4 // 4, vc6 // 6, vd // 12)
    # Kraus conditions live at 2 and 3: back off those exponents until the
    # rescaled pair is realised by an integral model, preferring the largest u.
    v2 = _valuation(u, 2)
    v3 = _valuation(u, 3)
    candidates = sorted(
        (u // (2 ** i * 3 ** j) for i in range(v2 + 1) for j in range(v3 + 1)),
        reverse=True,
    )
    for cand in candidates:
        out = curve_from_c4c6(c4 // cand ** 4, c6 // cand ** 6)
        if out is not None:
            return out
    raise AssertionError("no integral model found; invariants corrupted")


def _valuation(n: int, q: int) -> int:
    if n == 0:
        raise InputError("valuation of zero")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


# ---------------------------------------------------------------------------
# Tate's algorithm.  The curve must be globally minimal.  For q >= 5 additive
# reduction is tame, so f = 2; at q in {2, 3} the full step chain runs, with
# normalising coordinate changes found by brute force (q is tiny), and the
# conductor exponent is read off from Ogg's formula f = v(disc) + 1 - m.


class LocalData(namedtuple("LocalData", "v_disc f reduction")):
    """Tate's data at a prime q, which its readers key by q: v(disc), the
    conductor exponent f, and the reduction (good, split, nonsplit, additive)."""

    __slots__ = ()


def tate_local(cur: Curve, q: int) -> LocalData:
    disc = cur.disc
    if disc % q:
        return LocalData(0, 0, "good")
    v = _valuation(disc, q)
    if cur.c4 % q:
        # Multiplicative: I_n with n = v(disc); split iff the tangent cone at
        # the node splits, detected by -c6 being a square (odd q).
        if q == 2:
            split = _split_at_two(cur)
        else:
            split = kronecker(-cur.c6, q) == 1
        return LocalData(v, 1, "split" if split else "nonsplit")
    if q >= 5:
        return LocalData(v, 2, "additive")
    return LocalData(v, v + 1 - _tate_chain_23(cur, q), "additive")


def _singular_point(cur: Curve, q: int) -> tuple[int, int]:
    a1, a2, a3, a4, a6 = cur.ainvs
    for x in range(q):
        for y in range(q):
            on = (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % q == 0
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % q == 0
            fy = (2 * y + a1 * x + a3) % q == 0
            if on and fx and fy:
                return x, y
    raise AssertionError("no singular point found mod q")


def _split_at_two(cur: Curve) -> bool:
    x0, y0 = _singular_point(cur, 2)
    c = transform(cur, x0, 0, y0)
    return any((t * t + c.a1 * t - c.a2) % 2 == 0 for t in (0, 1))


def _tate_chain_23(cur: Curve, q: int) -> int:
    """The component count m of the additive fibre at q in {2, 3}: II 1, III 2,
    IV 3, I_n* 5 + n, IV* 7, III* 8, II* 9."""
    x0, y0 = _singular_point(cur, q)
    c = transform(cur, x0, 0, y0)
    if c.a6 % q ** 2:
        return 1
    if c.b8 % q ** 3:
        return 2
    if c.b6 % q ** 3:
        return 3

    # Normalise so that q | a1, a2; q^2 | a3, a4; q^3 | a6 (brute-forced shift,
    # which must exist once types II/III/IV are excluded).
    c = _normalise_star(c, q)
    a2t, a4t, a6t = c.a2 // q, c.a4 // q ** 2, c.a6 // q ** 3
    # Distinct roots over the closure <=> nonzero cubic discriminant; this is
    # characteristic-safe (reduce the integer discriminant mod q).
    disc_p = (18 * a2t * a4t * a6t - 4 * a2t ** 3 * a6t + a2t ** 2 * a4t ** 2
              - 4 * a4t ** 3 - 27 * a6t ** 2)
    if disc_p % q:
        return 5
    # A repeated root of a cubic is rational; locate it and its multiplicity
    # by synthetic division (derivative tests degenerate in char 2 and 3).
    roots = [r for r in range(q) if (r ** 3 + a2t * r * r + a4t * r + a6t) % q == 0]
    mult = {}
    for r in roots:
        c1 = (a2t + r) % q
        c0 = (a4t + r * c1) % q
        mult[r] = 1
        if (r * r + c1 * r + c0) % q == 0:
            mult[r] = 3 if (2 * r + c1) % q == 0 else 2
    assert mult and max(mult.values()) >= 2, "vanishing discriminant without repeated root"

    if max(mult.values()) == 2:
        theta = next(r for r in roots if mult[r] == 2)
        return 5 + _star_chain_length(transform(c, q * theta, 0, 0), q)

    theta = next(r for r in roots if mult[r] == 3)
    c = transform(c, q * theta, 0, 0)
    a3t, a6t = c.a3 // q ** 2, c.a6 // q ** 4
    if (a3t * a3t + 4 * a6t) % q:
        return 7
    y0 = a6t % q if q == 2 else (-a3t * pow(2, -1, q)) % q
    c = transform(c, 0, 0, q * q * y0)
    if c.a4 % q ** 4:
        return 8
    if c.a6 % q ** 6:
        return 9
    raise AssertionError("reached non-minimal branch on a minimal model")


def _normalise_star(c: Curve, q: int) -> Curve:
    for s in range(q):
        for t in range(q * q):
            cand = transform(c, 0, s, q * t)
            if (cand.a1 % q == 0 and cand.a2 % q == 0 and cand.a3 % q ** 2 == 0
                    and cand.a4 % q ** 2 == 0 and cand.a6 % q ** 3 == 0):
                return cand
    raise AssertionError("normalisation shift not found")


def _exact_div(a: int, b: int) -> int:
    d, r = divmod(a, b)
    assert r == 0, "valuation bookkeeping broke in the I_n* chain"
    return d


def _star_chain_length(c: Curve, q: int) -> int:
    """Length n of the I_n* chain, by the alternating quadratic blow-up tests."""
    n = 1
    mx, my = q * q, q * q
    while True:
        a2t = _exact_div(c.a2, q)
        a3t = _exact_div(c.a3, my)
        a6t = _exact_div(c.a6, mx * my)
        if (a3t * a3t + 4 * a6t) % q:
            return n
        y0 = a6t % q if q == 2 else (-a3t * pow(2, -1, q)) % q
        c = transform(c, 0, 0, my * y0)
        my *= q
        n += 1
        a2t = _exact_div(c.a2, q)
        a4t = _exact_div(c.a4, q * mx)
        a6t = _exact_div(c.a6, mx * my)
        if (a4t * a4t - 4 * a6t * a2t) % q:
            return n
        if q == 2:
            x0 = (a6t * a2t) % q
        else:
            x0 = (-a4t * pow(2 * a2t, -1, q)) % q
        c = transform(c, mx * x0, 0, 0)
        mx *= q
        n += 1


def conductor(cur: Curve) -> int:
    """Conductor of the curve (the model is minimalised internally)."""
    m = minimal_model(cur)
    n = 1
    for q in sorted(factorint(abs(m.disc))):
        n *= q ** tate_local(m, q).f
    return n


# ---------------------------------------------------------------------------
# Fourier coefficients.


def ap_good(cur: Curve, ell: int) -> int:
    """a_ell = ell + 1 - #E(F_ell) for a prime of good reduction; 0 without
    a count when ell >= 5 is inert in the CM field (module docstring)."""
    if cur.disc % ell == 0:
        raise InputError(f"{ell} is a prime of bad reduction")
    if ell > AN_BOUND:
        raise InputError(f"point counts capped at {AN_BOUND}")
    if ell >= 5 and cur.cm_disc and kronecker(cur.cm_disc, ell) == -1:
        return 0
    if ell < 5:
        a1, a2, a3, a4, a6 = cur.ainvs
        count = 1 + sum((y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % ell == 0
                        for x in range(ell) for y in range(ell))
        return ell + 1 - count
    return _ap_count(cur, ell)


MESTRE_BOUND = 229          # above it the search is the route (module docstring)
SEARCH_POINTS = 12          # points the search tries before the character sum decides


def _ap_count(cur: Curve, ell: int) -> int:
    """a_ell for a good prime ell >= 5 on the short model y^2 = x^3 + a x +
    b: the baby-step giant-step search on points P = (x0 v, v^2) of the
    twists E^v, x0 = 1, 2, ..., or the character sum (module docstring)."""
    a, b = -27 * cur.c4 % ell, -54 * cur.c6 % ell
    if ell <= MESTRE_BOUND:
        return _ap_char_sum(ell, a, b)
    tried = 0
    for x0 in range(1, ell):
        v = ((x0 * x0 + a) * x0 + b) % ell
        if not v:
            continue
        n = _hasse_multiple(ell, a * v * v % ell, x0 * v % ell, v * v % ell)
        if n:                               # n = #E^v; #E = 2 ell + 2 - n for the twist
            return ell + 1 - n if pow(v, (ell - 1) // 2, ell) == 1 else n - ell - 1
        tried += 1
        if tried == SEARCH_POINTS:
            break
    return _ap_char_sum(ell, a, b)


def _hasse_multiple(ell: int, a: int, x: int, y: int) -> int:
    """The n in the Hasse interval [low, low + 2h], h = isqrt(4 ell) and low
    = ell + 1 - h, with n P = O, P = (x, y) with y != 0 on y^2 = x^3 + a x +
    b over F_ell, when it is the only one; else 0.

    Baby steps jP, j <= m = isqrt(h), keyed by x; giant steps Q_i =
    (low + m + i (2m + 1)) P from the start (low + m) P by (2m + 1) P, both
    built from the babies.  Q_i = O or Q_i = +-jP is the multiple
    low + m + i (2m + 1) -+ j (module docstring)."""
    h = isqrt(4 * ell)
    low, m = ell + 1 - h, isqrt(h)
    # the babies P..(m + 1)P: the tangent at P, then chords through P
    lam = (3 * x * x + a) * pow(2 * y, -1, ell) % ell
    bx = (lam * lam - 2 * x) % ell
    by = (lam * (x - bx) - y) % ell
    xs, ys = [x, bx], [y, by]
    for _ in range(m - 1):
        if bx == x:
            return 0                        # jP = +-P
        lam = (by - y) * pow(bx - x, -1, ell) % ell
        bx = (lam * lam - x - bx) % ell
        by = (lam * (x - bx) - y) % ell
        xs.append(bx)
        ys.append(by)
    baby = dict(zip(xs, range(1, m + 1)))
    if len(baby) < m or bx in baby or 0 in ys:
        return 0                            # P has order at most 2m + 2
    g = gx, gy = _add((xs[m - 1], ys[m - 1]), (bx, by), a, ell)
    q, r = divmod(low + 2 * m, 2 * m + 1)   # low + m = q (2m + 1) + (r - m)
    s = _mul(q, g, a, ell)
    if r != m:
        j = abs(r - m) - 1
        s = _add(s, (xs[j], ys[j] if r > m else ell - ys[j]), a, ell)
    found, n, top = 0, low + m, low + 2 * h
    while True:
        if s is None:
            hit = n
        else:
            sx, sy = s
            j = baby.get(sx)
            hit = j and (n - j if sy == ys[j - 1] else n + j)
        if hit and low <= hit <= top:
            if found:
                return 0
            found = hit
        n += 2 * m + 1
        if n - m > top:
            return found
        if s is None or sx == gx:
            s = _add(s, g, a, ell)
            continue
        lam = (gy - sy) * pow(gx - sx, -1, ell) % ell
        nx = (lam * lam - sx - gx) % ell
        s = nx, (lam * (sx - nx) - sy) % ell


def _add(p, q, a: int, ell: int):
    """p + q on y^2 = x^3 + a x + b over F_ell, affine, None for O."""
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return x3, (lam * (x1 - x3) - y1) % ell


def _mul(k: int, p, a: int, ell: int):
    """k p, None for O, by double-and-add from the top bit of k."""
    out = None
    for bit in bin(k)[2:]:
        out = _add(out, out, a, ell)
        if bit == "1":
            out = _add(out, p, a, ell)
    return out


def _ap_char_sum(ell: int, a: int, b: int) -> int:
    """-sum_x chi(x^3 + a x + b) = ell + 1 - #E(F_ell), chi the quadratic
    character, from a table of the squares; x^3 + a x + b is reduced to
    [-ell, ell) only, since a negative index reads the table at x + ell."""
    chi = [-1] * ell
    for r in range(1, (ell + 1) // 2):
        chi[r * r % ell] = 1
    chi[0] = 0
    return -sum([chi[(x * x + a) * x % ell + b - ell] for x in range(ell)])


def ap_bad(local: LocalData) -> int:
    return {"split": 1, "nonsplit": -1, "additive": 0}[local.reduction]


AN_BOUND = 10 ** 6

# a-invariants of a model -> [its minimal model, the list a[0..bound] so far];
# a model and its minimal model share one entry, hence one list.
_an_cache: dict[tuple[int, ...], list] = {}


def an_coefficients(cur: Curve, bound: int) -> list[int]:
    """List a with a[n] the n-th coefficient for 1 <= n <= bound (a[0] = 0).

    The cached list of each curve only grows: a larger bound extends it, so
    every a_ell is point-counted once per curve and process.  The cache is
    keyed by the given model, so minimal_model runs once per model."""
    if bound > AN_BOUND:
        raise InputError(f"coefficient bound capped at {AN_BOUND}")
    entry = _an_cache.get(cur.ainvs)
    if entry is None:
        m = minimal_model(cur)
        entry = _an_cache[cur.ainvs] = _an_cache.setdefault(m.ainvs, [m, [0, 1]])
    m, a = entry
    if len(a) <= bound:
        a = entry[1] = _extended(m, a, bound)
    return a[: bound + 1]


def _extended(m: Curve, known: list[int], bound: int) -> list[int]:
    """A copy of `known` (a[0..old]) extended to a[0..bound]: by the walk
    over O_K when the conductor forces the Hecke character (module
    docstring), else in one pass over the new n: a prime takes its a_ell
    (bad or point-counted), ell^k the Hecke recursion a_ell a_(n/ell) - ell
    a_(n/ell^2) (ell as 0 at a bad prime), any other n = ell^k r the product
    a_(ell^k) a_r, ell the least prime of n."""
    old = len(known) - 1
    a = known + [0] * (bound - old)
    bad = {q: tate_local(m, q) for q in factorint(abs(m.disc))}
    rows = _hecke_rows(m, bad)
    if rows:
        _walk(a, m.cm_disc, rows, old, bound)
        return a
    spf = _smallest_prime_factors(bound)
    for n in range(old + 1, bound + 1):
        ell, pk, rest = spf[n], spf[n], n // spf[n]
        while rest % ell == 0:
            pk, rest = pk * ell, rest // ell
        if rest > 1:
            a[n] = a[pk] * a[rest]
        elif n in bad:
            a[n] = ap_bad(bad[n])
        elif n > ell:
            a[n] = a[ell] * a[n // ell] - (0 if ell in bad else ell) * a[n // ell // ell]
        else:
            a[n] = ap_good(m, n)
    return a


# (d, conductor) -> (r, k, s): alpha = 1 mod f on the rows y = 0 mod r at
# t = 2 + k y mod s, where the units fill (O_K / f)^x (module docstring)
_UNIT_ROWS = {(-3, 27): (3, 3, 6), (-3, 36): (2, 3, 12), (-4, 32): (2, 6, 8)}


def _hecke_rows(m: Curve, bad: dict):
    """The walk's rows when the conductor of the minimal model m forces its
    Hecke character: (1, 1, 2), every t = y mod 2, with the Legendre symbol
    when d is odd and below -3 at conductor d^2, the _UNIT_ROWS entry when
    the units fill (O_K / f)^x, else None (module docstring)."""
    d, n = m.cm_disc, prod(q ** loc.f for q, loc in bad.items())
    if d % 2 and d < -3 and n == d * d:
        return 1, 1, 2
    return _UNIT_ROWS.get((d, n))


def _walk(a: list[int], d: int, rows, old: int, bound: int) -> None:
    """Add to a[n], old < n <= bound, its share of sum chi(alpha) Re(alpha)
    / |U| over the alpha = (t + y sqrt d) / 2 of norm n = (t^2 + |d| y^2) / 4
    (module docstring).  Rows y = 0 mod r, t = 2 + k y mod s on each, and
    |t| above the known n; a row y > 0 stands for y and -y, and in the
    quadratic case t > 0 for t and -t, so a_n comes out integral with the
    row y = 0 at half weight (t even there)."""
    n = -d
    r, k, s = rows
    chi = [kronecker(c, n) for c in range(n)] if d < -4 else None     # U = {+-1}
    half = (n + 1) // 2                     # 2^-1 mod |d|
    for y in range(0, isqrt(4 * bound // n) + 1, r):
        base = n * y * y
        top, low = isqrt(4 * bound - base), 4 * old - base
        t0 = isqrt(low) + 1 if low >= 0 else 0      # t^2 > low: above the known n
        c, shift = (2 + k * y) % s, 0 if y else 1
        if chi:
            t0 = max(t0, 1)
            for t in range(t0 + (c - t0) % s, top + 1, s):
                a[(t * t + base) >> 2] += chi[t * half % n] * t >> shift
            continue
        for lo, hi in ((t0, top), (-top, -t0)):
            for t in range(lo + (c - lo) % s, hi + 1, s):
                a[(t * t + base) >> 2] += t >> shift


def _smallest_prime_factors(bound: int) -> list[int]:
    """spf[n] the least prime factor of n, spf[0] = 0 and spf[1] = 1: each
    prime q <= sqrt(bound) writes itself over its multiples from q^2, the
    largest q first, so that the least prime factor writes last."""
    spf = list(range(bound + 1))
    root = isqrt(bound)
    if root > 1:
        small = _smallest_prime_factors(root)
        for q in range(root, 1, -1):
            if small[q] == q:
                spf[q * q:: q] = [q] * ((bound - q * q) // q + 1)
    return spf


# ---------------------------------------------------------------------------
# The distinguished-level wrapper N = p^2 M.


class CurveModel(namedtuple("CurveModel", "curve minimal n p m")):
    """A rational elliptic curve with conductor factored as p^2 * M, p odd:
    the curve, its minimal model, N, p and M."""

    __slots__ = ()

    @property
    def ainvs(self):
        return self.curve.ainvs


def curve_model(ainvs, p: int | None = None) -> CurveModel:
    cur = Curve(*ainvs)
    mini = minimal_model(cur)
    n = conductor(mini)
    if p is None:
        cands = [q for q in factorint(n) if q > 2 and _valuation(n, q) == 2]
        if len(cands) != 1:
            raise InputError(
                f"conductor {n} has no unique odd prime with exact square power; pass p")
        p = cands[0]
    if p == 2 or not isprime(p):
        raise InputError("p must be an odd prime")
    if _valuation(n, p) != 2:
        raise InputError(f"p^2 does not exactly divide the conductor {n}")
    m = n // (p * p)
    return CurveModel(curve=cur, minimal=mini, n=n, p=p, m=m)

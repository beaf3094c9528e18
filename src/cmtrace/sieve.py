"""The a_n sieve behind curves.an_coefficients, their one entry point and
cache; cmtrace.modparam imports it, so it loads with the analytic layer.

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
their norm is prime to f).  n = (t^2 + |d| y^2) / 4 is t^2 >> 2 plus the
row's offset (|d| y^2 + (y & 1)) >> 2, as t = y mod 2 and |d| = 3 mod 4 for
odd d, and at d = -4 t is even and the offset y^2.  So the walk reads t^2
>> 2 and each term's value by slices of tables made once per call, one
look-up and one addition a term: chi(t / 2) t for t > 0 in the quadratic
case, and for the units t on t = c mod s and -t on t = -c mod s, the row's
negative t (no progression holds t = 0).

Bad primes contribute curves.ap_bad; _extended derives every other a_n.

The tables.  Each extension of a cached list (_extend) extends two tables of
its curve's entry (curves._an_cache) over the new n, for the series of
cmtrace.modparam.  pairs takes the n with a_n != 0 two by two in order from
n = 1 up and keeps each pair n1 < n2 as the exact products (a_n1 n2, a_n2
n1, n1 n2), three integers of an array('q').  An odd count leaves its last n
as the half pair (a_n, 0, n), which the next extension completes; as a_n1
n2 / (n1 n2) = a_n1 / n1, either member of a pair, or of a half pair, can be
taken alone from its own product and the pair's n1 n2.  inv holds the
correctly rounded doubles a_n / n of the same n in the same order, an
array('d'): the nonzero ones only, so that a_n = 0, which is most a_n of a
CM curve, costs neither a division nor a slot.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, islice
from math import isqrt, prod
from operator import mul, truediv

from .curves import AN_BOUND, Curve, ap_bad, tate_local
from .errors import InputError
from .fp import factorint, kronecker


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
    row y = 0 at half weight (t even there).  Each progression of t > 0
    reads t^2 >> 2 and its value, chi(t / 2) t or, for the units, t and -t,
    by slices of tables made once per call."""
    n = -d
    r, k, s = rows
    ts = range(isqrt(4 * bound) + 1)
    sq = [t * t >> 2 for t in ts]
    if d < -4:                              # U = {+-1}: chi(t / 2) t
        chi, half = [kronecker(c, n) for c in range(n)], (n + 1) // 2     # 2^-1 mod |d|
        tables = [(1, [chi[t * half % n] * t for t in ts])]
    else:                                   # the units: t and -t, by their own progressions
        tables = [(1, ts), (-1, [-t for t in ts])]
    for y in range(0, isqrt(4 * bound // n) + 1, r):
        base = n * y * y
        top, low = isqrt(4 * bound - base), 4 * old - base
        t0 = isqrt(low) + 1 if low >= 0 else 1      # t^2 > low: above the known n
        off, shift = base + (y & 1) >> 2, 0 if y else 1
        for sign, values in tables:
            t = t0 + (sign * (2 + k * y) - t0) % s
            for i, v in zip(sq[t:top + 1:s], values[t:top + 1:s]):
                a[i + off] += v >> shift


def _extend(entry: list, bound: int) -> list[int]:
    """Extend a curve's cache entry [m, a, pairs, inv] (curves._an_cache)
    to a[0..bound] by _extended, and its two tables with it (module
    docstring), made at the first extension from a = [0, 1]: the half pair
    (1, 0, 1) of n = 1 and a_1 / 1.  Returns the new list."""
    m, a, *tables = entry
    pairs, inv = tables or (array("q", (1, 0, 1)), array("d", (1.0,)))
    old = len(a)
    a = _extended(m, a, bound)
    ns = list(compress(range(old, bound + 1), islice(a, old, None)))
    vals = list(map(a.__getitem__, ns))
    inv.extend(map(truediv, vals, ns))
    if not pairs[-2]:                       # the half pair (a_n, 0, n) pairs with the first new n
        ns.insert(0, pairs.pop())
        vals.insert(0, pairs[-2])
        del pairs[-2:]
    n1, n2 = ns[::2], ns[1::2]
    pairs.extend(chain.from_iterable(zip(map(mul, vals[::2], n2), map(mul, vals[1::2], n1),
                                         map(mul, n1, n2))))
    if len(ns) & 1:
        pairs.extend((vals[-1], 0, ns[-1]))
    entry[1:] = a, pairs, inv
    return a


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

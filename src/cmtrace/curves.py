"""Elliptic curves over Q: Weierstrass invariants, minimal models, Tate's
algorithm for reduction data and conductor, and the cache of the a_n.

Bad primes contribute +1, -1, 0 according to split multiplicative, non-split
multiplicative, or additive reduction (ap_bad); an_coefficients takes every
other a_n from cmtrace.sieve, which loads with the analytic layer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd

from .errors import InputError
from .fp import check_hypotheses, factorint, kronecker


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
# Fourier coefficients: the bad a_ell and the cache (sieve computes the rest).


def ap_bad(local: LocalData) -> int:
    return {"split": 1, "nonsplit": -1, "additive": 0}[local.reduction]


AN_BOUND = 10 ** 6

# a-invariants of a model -> [its minimal model, the list a[0..bound] so far,
# and from its first extension on the two tables cmtrace.sieve._extend keeps
# with it: pairs, the exact (a_n1 n2, a_n2 n1, n1 n2) of the n with a_n != 0
# taken two by two from n = 1 up, and inv, their doubles a_n / n]; a model
# and its minimal model share one entry, hence one list and one pair of
# tables, and a new cache starts them all afresh.
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
    a = entry[1]
    if len(a) <= bound:
        from .sieve import _extend       # sieve imports curves
        a = _extend(entry, bound)
    return a[: bound + 1]


def coefficient_tables(cur: Curve) -> list:
    """[pairs, inv] of the curve's cache entry, as far as an_coefficients
    has extended its list (the tables of cmtrace.sieve._extend)."""
    return _an_cache[cur.ainvs][2:]


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
    check_hypotheses(p)
    if _valuation(n, p) != 2:
        raise InputError(f"p^2 does not exactly divide the conductor {n}")
    m = n // (p * p)
    return CurveModel(curve=cur, minimal=mini, n=n, p=p, m=m)

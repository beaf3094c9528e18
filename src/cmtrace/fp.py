"""Small-integer arithmetic, and the imaginary quadratic orders.

This is everything the package needs of elementary number theory,
always on small integers, one routine per idea: the extended gcd (_xgcd,
which the test oracles' Hermite normal form and every unimodular completion use),
the Kronecker symbol (the one quadratic symbol, the Legendre symbol at odd
primes included), square roots mod a prime (Tonelli-Shanks; Cohen, A Course
in Computational Algebraic Number Theory, Alg. 1.5.1), a primality test and
factorisation by trial division.  isprime is Miller-Rabin on the thirteen
prime bases 2..41, which is exact below MR_BOUND, the least strong
pseudoprime to all of them (Sorenson-Webster, "Strong pseudoprimes to twelve
prime bases", Math. Comp. 2017).  factorint divides by 2 and the odd numbers
up to TRIAL_BOUND and stops once the cofactor is prime; a composite cofactor
with no factor that small exceeds TRIAL_BOUND^2.  Both limits raise
ArithmeticBoundError rather than guess.  Any input of the package that
reaches them has a bad prime above TRIAL_BOUND, so a level far beyond the
q-series budget.  index_ns_plus is the one group-theoretic quantity, the
coset index of the Cartan normalizers in closed form.

The orders (QuadOrder, built by order_data) live here, below finite,
embeddings and quadforms, which all read them, so the finite layer loads no
binary-form code.  So does check_hypotheses, the one test of the paper's
hypotheses on p (an odd prime, prime to f, inert in K), which every entry
point that takes p calls, and HypothesisError, the one class it raises.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import InputError

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981
TRIAL_BOUND = 10 ** 6


class ArithmeticBoundError(InputError):
    """An integer beyond what isprime or factorint decide exactly."""


@lru_cache(maxsize=1024)
def isprime(n: int) -> bool:
    """Whether n is prime; ArithmeticBoundError for a probable prime
    n >= MR_BOUND (a composite one is still reported composite); cached."""
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_BOUND:
        raise ArithmeticBoundError(f"primality of {n} is decided exactly only below "
                                   f"{MR_BOUND} (Miller-Rabin on the primes up to 41)")
    return True


def factorint(n: int) -> dict[int, int]:
    """{q: e} with n the product of the q^e, primes ascending, for n >= 1."""
    if n < 1:
        raise InputError(f"factorint needs n >= 1, got {n}")
    out: dict[int, int] = {}
    rest, q = n, 2
    rest_is_prime = isprime(rest)
    while rest > 1 and not rest_is_prime:
        # a composite rest has a prime factor <= isqrt(rest), found before q
        # passes it; so reaching TRIAL_BOUND means rest > TRIAL_BOUND^2
        if q > TRIAL_BOUND:
            raise ArithmeticBoundError(
                f"{n} has the composite factor {rest} with no prime factor up to "
                f"the trial-division bound {TRIAL_BOUND}")
        if rest % q == 0:
            e = 0
            while rest % q == 0:
                rest //= q
                e += 1
            out[q] = e
            rest_is_prime = isprime(rest)
        q += 1 if q == 2 else 2
    if rest > 1:
        out[rest] = 1
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), any integers: for an odd prime n the Legendre
    symbol, by reciprocity rather than Euler's criterion."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


@lru_cache(maxsize=1024)
def smallest_nonsquare(p: int) -> int:
    """The least x >= 2 with (x|p) = -1, found once per p and process."""
    for x in range(2, p):
        if kronecker(x, p) == -1:
            return x
    raise InputError(f"no non-square mod {p}")


def sqrt_mod_p(a: int, p: int) -> int:
    """The square root r <= p // 2 of a mod the odd prime p (the smaller of
    r and p - r), or InputError if a is a non-square.

    p is not tested for primality.  At an odd composite p the Jacobi symbol
    can read 1 at a non-square, so both routes check what they found: a
    Tonelli-Shanks step whose t has no order 2^i < 2^m, and a root that does
    not square back to a, are InputErrors.  So the call ends at any odd p,
    and what it returns is a root of a mod p."""
    if p < 3 or p % 2 == 0:
        raise InputError(f"square roots are taken mod an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        raise InputError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks: p - 1 = 2^s q with q odd; t = a^q has 2-power order
        # 2^i < 2^m, and each step trades it for a lower power of two
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        m, c = s, pow(smallest_nonsquare(p), q, p)
        t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
                if i == m:
                    raise InputError(f"no square root of {a} mod {p} found: "
                                     f"{p} is not prime")
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    if r * r % p != a:
        raise InputError(f"no square root of {a} mod {p} found: {p} is not prime")
    return min(r, p - r)


def index_ns_plus(p: int) -> int:
    """[C_ns+ : C_ns+ cap C_s+] = 2(p^2-1) / 4(p-1) = (p+1)/2."""
    return (p + 1) // 2


# ---------------------------------------------------------------------------
# Orders


def is_fundamental_discriminant(d: int) -> bool:
    if d >= 0:
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factorint(abs(n)).values())


class QuadOrder(namedtuple("QuadOrder", "dK f disc t n")):
    """Order of conductor f in the imaginary quadratic field of discriminant dK.

    The standard generator w_f = (t + sqrt(disc)) / 2 has characteristic
    polynomial X^2 - t X + n with t^2 - 4n = disc = f^2 dK.
    """

    __slots__ = ()


def check_fundamental(dK: int):
    if not is_fundamental_discriminant(dK):
        raise InputError(f"dK = {dK} is not a fundamental discriminant")


def order_data(dK: int, f: int) -> QuadOrder:
    check_fundamental(dK)
    if dK >= -4:
        raise InputError("discriminants -3 and -4 are excluded (extra units)")
    if f < 1:
        raise InputError("conductor must be positive")
    t = f * (dK % 2)
    disc = f * f * dK
    n = (t * t - disc) // 4
    return QuadOrder(dK=dK, f=f, disc=disc, t=t, n=n)


class HypothesisError(InputError):
    """p breaks a hypothesis of the trace relation (check_hypotheses), or,
    from finite.ExperimentSpec.validate, the curve breaks one of its own."""


def check_hypotheses(p: int, order: QuadOrder | None = None):
    """The paper's hypotheses on p, in order: an odd prime, then, given the
    order O_f of K, p prime to f and inert in K (module docstring)."""
    if p < 3 or not isprime(p):
        raise HypothesisError(f"p must be an odd prime, got {p}")
    if order is None:
        return
    if order.f % p == 0:
        raise HypothesisError(f"p = {p} divides the conductor f = {order.f}")
    if kronecker(order.dK, p) != -1:
        raise HypothesisError(f"p = {p} is not inert in Q(sqrt({order.dK}))")

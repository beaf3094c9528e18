"""Small-integer arithmetic, and exact 2x2 matrix arithmetic over F_p with
the four Cartan subgroups.

The arithmetic is everything the package needs of elementary number theory,
always on small integers, one routine per idea: the extended gcd (_xgcd,
which quadforms' Hermite normal form and every unimodular completion use),
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
q-series budget.

Membership tests for the split and non-split Cartan subgroups of GL_2(F_p)
and their normalizers, and the coset index in closed form.  Nothing here
enumerates a group, so no routine is capped in p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError

CARTAN_KINDS = ("ns", "ns+", "s", "s+")
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981
TRIAL_BOUND = 10 ** 6


class ArithmeticBoundError(InputError):
    """An integer beyond what isprime or factorint decide exactly."""


def isprime(n: int) -> bool:
    """Whether n is prime; ArithmeticBoundError for a probable prime
    n >= MR_BOUND (a composite one is still reported composite)."""
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


def smallest_nonsquare(p: int) -> int:
    for x in range(2, p):
        if kronecker(x, p) == -1:
            return x
    raise InputError(f"no non-square mod {p}")


def sqrt_mod_p(a: int, p: int) -> int:
    """The square root r <= p // 2 of a mod the odd prime p (the smaller of
    r and p - r), or InputError if a is a non-square."""
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
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    return min(r, p - r)


@dataclass(frozen=True)
class FpParams:
    """An odd prime p together with its smallest non-square eps mod p."""

    p: int
    eps: int = field(init=False)

    def __post_init__(self):
        if self.p < 3 or not isprime(self.p):
            raise InputError(f"p must be an odd prime, got {self.p}")
        object.__setattr__(self, "eps", smallest_nonsquare(self.p))


@dataclass(frozen=True, order=True)
class FpMatrix:
    """2x2 matrix over F_p, entries stored reduced to [0, p)."""

    p: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        p = self.p
        object.__setattr__(self, "a", self.a % p)
        object.__setattr__(self, "b", self.b % p)
        object.__setattr__(self, "c", self.c % p)
        object.__setattr__(self, "d", self.d % p)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.p

    def trace(self) -> int:
        return (self.a + self.d) % self.p

    def is_invertible(self) -> bool:
        return self.det() != 0

    def mul(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise InputError("mixed characteristics")
        return FpMatrix(
            self.p,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "FpMatrix":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("matrix is singular mod p")
        dinv = pow(det, -1, self.p)
        return FpMatrix(self.p, self.d * dinv, -self.b * dinv, -self.c * dinv, self.a * dinv)

    def charpoly_coeffs(self) -> tuple[int, int]:
        """(t, n) with characteristic polynomial X^2 - tX + n mod p."""
        return (self.trace(), self.det())

    def is_diagonal(self) -> bool:
        return self.b == 0 and self.c == 0


def cartan_membership(m: FpMatrix, kind: str, params: FpParams) -> bool:
    """Whether m matches the mod-p congruence pattern of the chosen Cartan order.

    This is membership in the order reduced mod p; group membership in C_kind
    additionally requires det(m) != 0 (see in_cartan_group).
    """
    if kind not in CARTAN_KINDS:
        raise InputError(f"unknown Cartan kind {kind!r}")
    if m.p != params.p:
        raise InputError("matrix and params disagree on p")
    p, eps = params.p, params.eps
    a, b, c, d = m.entries
    ns = a == d and (b * eps - c) % p == 0
    if kind == "ns":
        return ns
    if kind == "ns+":
        return ns or ((a + d) % p == 0 and (b * eps + c) % p == 0)
    s = b == 0 and c == 0
    if kind == "s":
        return s
    return s or (a == 0 and d == 0)


def in_cartan_group(m: FpMatrix, kind: str, params: FpParams) -> bool:
    return m.is_invertible() and cartan_membership(m, kind, params)


def index_ns_plus(params: FpParams) -> int:
    """[C_ns+ : C_ns+ cap C_s+] = 2(p^2-1) / 4(p-1) = (p+1)/2."""
    return (params.p + 1) // 2

"""Exact 2x2 matrix arithmetic over F_p and the four Cartan subgroups.

Membership tests for the split and non-split Cartan subgroups of GL_2(F_p)
and their normalizers, the coset index in closed form, and determinant-one
lifts to integral matrices.  Nothing here enumerates a group, so no routine
is capped in p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from sympy import isprime
from sympy.ntheory import sqrt_mod

CARTAN_KINDS = ("ns", "ns+", "s", "s+")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def smallest_nonsquare(p: int) -> int:
    for x in range(2, p):
        if legendre(x, p) == -1:
            return x
    raise ValueError(f"no non-square mod {p}")


def sqrt_mod_p(a: int, p: int) -> int:
    """Smallest square root of a mod p, or ValueError if a is a non-square."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    # For prime p, sympy returns the root r <= p // 2, i.e. the smaller of r, p - r.
    return sqrt_mod(a, p)


@dataclass(frozen=True)
class FpParams:
    """An odd prime p together with a fixed non-square eps mod p."""

    p: int
    eps: int | None = None

    def __post_init__(self):
        if self.p < 3 or not isprime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        eps = self.eps
        if eps is None:
            eps = smallest_nonsquare(self.p)
        else:
            eps %= self.p
            if legendre(eps, self.p) != -1:
                raise ValueError(f"eps={eps} is a square mod {self.p}")
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True, order=True)
class FpMatrix:
    """2x2 matrix over F_p, entries stored reduced to [0, p)."""

    p: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, getattr(self, name) % self.p)

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
            raise ValueError("mixed characteristics")
        return FpMatrix(
            self.p,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = mul

    def inv(self) -> "FpMatrix":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("matrix is singular mod p")
        dinv = pow(det, -1, self.p)
        return FpMatrix(self.p, self.d * dinv, -self.b * dinv, -self.c * dinv, self.a * dinv)

    def scale(self, k: int) -> "FpMatrix":
        return FpMatrix(self.p, k * self.a, k * self.b, k * self.c, k * self.d)

    def add(self, other: "FpMatrix") -> "FpMatrix":
        return FpMatrix(self.p, self.a + other.a, self.b + other.b,
                        self.c + other.c, self.d + other.d)

    def charpoly_coeffs(self) -> tuple[int, int]:
        """(t, n) with characteristic polynomial X^2 - tX + n mod p."""
        return (self.trace(), self.det())

    def is_diagonal(self) -> bool:
        return self.b == 0 and self.c == 0

    def is_antidiagonal(self) -> bool:
        return self.a == 0 and self.d == 0


def identity(p: int) -> FpMatrix:
    return FpMatrix(p, 1, 0, 0, 1)


def cartan_membership(m: FpMatrix, kind: str, params: FpParams) -> bool:
    """Whether m matches the mod-p congruence pattern of the chosen Cartan order.

    This is membership in the order reduced mod p; group membership in C_kind
    additionally requires det(m) != 0 (see in_cartan_group).
    """
    if kind not in CARTAN_KINDS:
        raise ValueError(f"unknown Cartan kind {kind!r}")
    if m.p != params.p:
        raise ValueError("matrix and params disagree on p")
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


def lift_to_integral_sl2(m: FpMatrix, level: int = 1) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer matrix of determinant exactly 1 reducing to m mod p.

    With level > 1 (coprime to p) the lift additionally has lower-left entry
    divisible by level, i.e. lies in Gamma_0(level).  Entries are O(p^3 level^2):
    the bottom row comes from a CRT lift to coprime integers below (p*level)^2
    and the top row from a Bezout solve plus one row operation mod p.
    """
    p = m.p
    if m.det() != 1:
        raise ValueError("lift requires det = 1 mod p")
    if level < 1 or gcd(level, p) != 1:
        raise ValueError("level must be a positive integer coprime to p")
    q = p * level

    # Centered residues already of determinant one (identity, (0,-1;1,0), ...).
    cent = [e if e <= p // 2 else e - p for e in m.entries]
    if cent[0] * cent[3] - cent[1] * cent[2] == 1 and cent[2] % level == 0:
        return ((cent[0], cent[1]), (cent[2], cent[3]))

    # Bottom row: c0 = c (p), 0 (level); d0 = d (p), 1 (level); then make coprime.
    c0 = _crt_pair(m.c, p, 0, level)
    d0 = _crt_pair(m.d, p, 1, level)
    if c0 == 0:
        c0 = q
    k = 0
    while gcd(c0, d0 + k * q) != 1:
        k += 1
        if k > c0:
            raise AssertionError("no coprime lift found")
    d0 += k * q

    # Complete to determinant one, then fix the top row mod p by a shear.
    g, x, y = _xgcd(d0, c0)
    assert g == 1
    a0, b0 = x, -y          # a0*d0 - b0*c0 = 1
    # m * L0^{-1} is unipotent upper triangular mod p; read off the shear
    # from m = (1, kbar; 0, 1) * L0 mod p.
    if d0 % p:
        kbar = (m.b - b0) * pow(d0, -1, p) % p
    else:
        # d0 = 0 mod p forces c0 invertible mod p; use the other entry.
        kbar = (m.a - a0) * pow(c0, -1, p) % p
    a1, b1 = a0 + kbar * c0, b0 + kbar * d0
    lift = ((a1, b1), (c0, d0))
    assert a1 * d0 - b1 * c0 == 1
    assert (a1 - m.a) % p == 0 and (b1 - m.b) % p == 0
    assert (c0 - m.c) % p == 0 and (d0 - m.d) % p == 0
    assert c0 % level == 0
    return lift


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    if m2 == 1:
        return r1 % m1
    g, x, _ = _xgcd(m1, m2)
    assert g == 1
    return (r1 + (r2 - r1) * x % m2 * m1) % (m1 * m2)


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

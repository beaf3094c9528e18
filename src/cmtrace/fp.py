"""Exact 2x2 matrix arithmetic over F_p and the four Cartan subgroups.

Membership tests for the split and non-split Cartan subgroups of GL_2(F_p)
and their normalizers, and the coset index in closed form.  Nothing here
enumerates a group, so no routine is capped in p.
"""

from __future__ import annotations

from dataclasses import dataclass

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

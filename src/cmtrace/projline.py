"""The multiplicative group structure on P^1(F_p) carried by an inert quadratic order.

For an order with trace t and norm n whose generator stays irreducible mod p
(t^2 - 4n a non-square), the unit classes (O/pO)^x / F_p^x biject with
P^1(F_p), and transporting multiplication gives the bilinear rule

    [x1 : x2] * [y1 : y2] = [x1*y1 - n*x2*y2 : x1*y2 + x2*y1 + t*x2*y2]

with identity [1 : 0].  The resulting group is cyclic of order p + 1 and has
a single element of order two, namely [-a : 1] for the residue a with 2a = t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .fp import kronecker


@dataclass(frozen=True)
class ProjParams:
    """Odd prime p with trace/norm residues (t, n), t^2 - 4n a non-square mod p."""

    p: int
    t: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "t", self.t % self.p)
        object.__setattr__(self, "n", self.n % self.p)
        disc = (self.t * self.t - 4 * self.n) % self.p
        if kronecker(disc, self.p) != -1:
            raise InputError(
                f"t^2-4n = {disc} must be a non-square mod {self.p} (inert condition)")


@dataclass(frozen=True, order=True)
class ProjClass:
    """Point of P^1(F_p) in canonical form: x2 = 1, or x2 = 0 and x1 = 1."""

    x1: int
    x2: int


def proj_class(p: int, x1: int, x2: int) -> ProjClass:
    """Canonical representative of [x1 : x2]; raises if both coordinates vanish."""
    x1 %= p
    x2 %= p
    if x1 == 0 and x2 == 0:
        raise InputError("both projective coordinates vanish mod p")
    if x2 == 0:
        return ProjClass(1, 0)
    inv = pow(x2, -1, p)
    return ProjClass(x1 * inv % p, 1)


def proj_elements(p: int) -> list[ProjClass]:
    """The p + 1 points, identity first, then [0:1], [1:1], ... in affine order."""
    return [ProjClass(1, 0)] + [ProjClass(x, 1) for x in range(p)]


def proj_mul(params: ProjParams, u: ProjClass, v: ProjClass) -> ProjClass:
    p, t, n = params.p, params.t, params.n
    z1 = u.x1 * v.x1 - n * u.x2 * v.x2
    z2 = u.x1 * v.x2 + u.x2 * v.x1 + t * u.x2 * v.x2
    # The norm form is anisotropic mod p, so the product never degenerates.
    return proj_class(p, z1, z2)


def involution_class(params: ProjParams, a: int) -> ProjClass:
    """The unique order-two class [-a : 1]; requires 2a = t mod p."""
    if (2 * a - params.t) % params.p != 0:
        raise InputError(f"2a = {2 * a % params.p} differs from t = {params.t} mod {params.p}")
    return proj_class(params.p, -a, 1)

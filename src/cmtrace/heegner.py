"""Heegner forms of level N and the Galois orbit of a CM point of conductor p*f.

A CM point of discriminant D = c^2 dK on X_0(N) is carried by a primitive
form (A, B, C) with N | A and B^2 = D mod 4N, with representative
tau = (-B + sqrt(D)) / (2A) in the upper half plane; equivalently by the pair
of lattices  L1 = <A, (-B + sqrt(D))/2>  and its index-N cyclic sublattice
L2 = <A, N(-B + sqrt(D))/2>, both proper modules over the order of that
discriminant.

The Galois group of the ring class field acts through ideal multiplication on
the lattice pair (main theorem of complex multiplication), so the orbit under
Gal(H_pf / H_f) is computed exactly: multiply both lattices by each kernel
ideal, re-read the cyclic pair through a basis of the first lattice whose
first vector is a primitive vector of the Hermite normal form of the second,
and take the basis ratio as the new point.  Everything stays in integer
arithmetic.  Any two such bases differ by a matrix in Gamma_0(N), and the
resulting N-divisible forms are finally reduced inside their Gamma_0(N) class,
which keeps imaginary parts workable for the q-series and makes each point
independent of the basis chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import mpmath as mp

from .errors import InputError
from .fp import _xgcd, factorint, kronecker
from .modparam import al_matrix
from .quadforms import (BinaryForm, GaloisKernel, _hnf2, basis_form, check_fundamental,
                        form_to_ideal, generator_ideal, ideal_mul, lagrange_reduce)


class NoHeegnerPoint(InputError):
    """The discriminant admits no form with N | A (square-root obstruction)."""


@dataclass(frozen=True)
class HeegnerTau:
    """CM point data: an N-divisible form with its level and discriminant split."""

    form: BinaryForm
    n_level: int
    dK: int
    conductor: int

    def __post_init__(self):
        if self.form.a % self.n_level:
            raise InputError("leading coefficient must be divisible by N")
        if self.form.disc() != self.conductor ** 2 * self.dK:
            raise InputError("discriminant mismatch")

    def tau(self, digits: int):
        """Upper half plane representative at the requested precision."""
        with mp.workdps(digits + 15):
            d = self.form.disc()
            return (-self.form.b + mp.sqrt(mp.mpc(d))) / (2 * self.form.a)


def heegner_form(n_level: int, dK: int, c: int) -> BinaryForm:
    """Deterministic smallest-|B| primitive form (N, B, C) with B^2 = c^2 dK mod 4N.

    dK must be a fundamental discriminant, as for order_data (InputError).
    Raises NoHeegnerPoint when the congruence is unsolvable, which is exactly
    the classical obstruction (for instance conductor 1 at an inert prime);
    that is decided from the factorisation of 4N before any scan.

    At a prime q with q^2 || N and q || c the solutions split into strata by
    B mod 2N; only the stratum q^2 | B is stable under the local Atkin-Lehner
    involution (B and -B agree mod 2N there), and it is the one whose points
    come from generators landing in the non-split Cartan order, so the trace
    relations live there.  heegner_form restricts to it.
    """
    if n_level < 1 or c < 1:
        raise InputError(f"level and conductor must be positive, got N = {n_level}, c = {c}")
    check_fundamental(dK)                # so disc < 0
    disc = c * c * dK
    stratum = 1
    for q, e in factorint(gcd(c, n_level)).items():
        if e == 1 and n_level % q ** 2 == 0 and n_level % q ** 3:
            stratum *= q * q
    four_n = 4 * n_level
    if not _has_square_root(disc, four_n):
        raise NoHeegnerPoint(f"B^2 = {disc} mod {four_n} has no solution")
    # B = 0, 1, -1, 2, -2, ... over |B| < 4N, so the first hit is the smallest
    # (|B|, -B); B^2 = disc mod 4 needs B = disc mod 2, so the scan skips the rest
    for k in range(disc % 2, four_n, 2):
        for b in (k, -k) if k else (0,):
            if (b * b - disc) % four_n == 0 and b % stratum == 0:
                form = BinaryForm(n_level, b, (b * b - disc) // four_n)
                if form.is_primitive():
                    return form
    raise NoHeegnerPoint(f"no primitive form of discriminant {disc} at level "
                         f"{n_level} in the involution-stable stratum")


def _has_square_root(disc: int, modulus: int) -> bool:
    """Whether B^2 = disc mod modulus is solvable, decided at each q^e ||
    modulus.  With disc = q^v u, q not dividing u, it is when v >= e (B = 0).
    Otherwise a root has v_q(B^2) = v, so v must be even, and B / q^(v/2)
    must be a square root of u mod q^(e-v): for odd q one exists iff u is a
    square mod q (Hensel), and for q = 2 iff u = 1 mod 2^min(e-v, 3)."""
    for q, e in factorint(modulus).items():
        v, u = 0, disc
        while v < e and u % q == 0:
            v, u = v + 1, u // q
        if v >= e:
            continue
        if v % 2:
            return False
        if q == 2:
            if (u - 1) % (1 << min(e - v, 3)):
                return False
        elif kronecker(u, q) != 1:
            return False
    return True


def _complete_unimodular(x: int, y: int):
    """(u, v) with x*v - y*u = 1 for coprime (x, y)."""
    g, u0, v0 = _xgcd(x, y)
    assert g == 1
    return -v0, u0


def gamma0_reduce(form: BinaryForm, n_level: int) -> BinaryForm:
    """Small representative of the Gamma_0(N) class of an N-divisible form.

    Minimises A = Q(x, y) over primitive vectors with y = 0 mod N (columns of
    Gamma_0(N) matrices), then translates B into (-A, A]; only the vectors of
    minimal A are completed to a matrix, and ties go to the smallest (|B|, -B).
    The candidates are the small combinations of the basis (1, 0), (0, N) of
    that sublattice, Lagrange-reduced for the Gram triple (2A, B, 2C) of Q.
    """
    if form.a % n_level:
        raise InputError("form is not N-divisible")
    v1, v2 = lagrange_reduce((2 * form.a, form.b, 2 * form.c), (1, 0), (0, n_level))
    primitive = []
    for s in range(-4, 5):
        for t in range(-4, 5):
            x, y = s * v1[0] + t * v2[0], s * v1[1] + t * v2[1]
            if (s or t) and gcd(x, y) == 1:
                primitive.append((form.value(x, y), x, y))
    a_min = min(primitive)[0]
    cands = []
    for a, x, y in primitive:
        if a == a_min:
            u, v = _complete_unimodular(x, y)
            cand = form.transform(x, u, y, v)
            k = (cand.a - cand.b) // (2 * cand.a)
            cands.append(BinaryForm(cand.a, cand.b + 2 * cand.a * k,
                                    cand.a * k * k + cand.b * k + cand.c))
    out = min(cands, key=lambda f: (abs(f.b), -f.b))
    assert out.a % n_level == 0 and out.disc() == form.disc()
    return out


def al_move(form: BinaryForm, n_level: int, q_div: int) -> tuple[int, BinaryForm]:
    """(k, G): G the form of W_Q (tau + k), tau the point of the N-divisible
    form F = (A, B, C) and W_Q = al_matrix(N, Q) = (a, b; N, d), for the
    integer k that makes the leading coefficient of G least, hence Im W_Q
    (tau + k) greatest.

    With W = W_Q T^k = (a, a k + b; N, N k + d) of determinant Q, the point
    W tau is the root of F(d' x - b' y, -N x + a y) / Q, d' = N k + d and b'
    = a k + b: W^{-1} is the adjugate over Q, and W keeps the upper half
    plane.  Its leading coefficient F(N k + d, -N) / Q is least at N k + d
    nearest B N / (2 A).  W_Q maps Heegner forms of level N and discriminant
    D to Heegner forms of the same level and discriminant (Gross, Kohnen and
    Zagier, Math. Ann. 278, 1987), which the closing assertion checks."""
    a, b, n, d = al_matrix(n_level, q_div)
    k0 = (form.b * n - 2 * form.a * d) // (2 * form.a * n)
    k = min((k0, k0 + 1), key=lambda k: (form.value(n * k + d, -n), k))
    x, y, u, v = n * k + d, -n, -(a * k + b), a        # columns (x, y), (u, v)
    big_a, big_c = form.value(x, y), form.value(u, v)
    big_b = 2 * (form.a * x * u + form.c * y * v) + form.b * (x * v + y * u)
    assert big_a % q_div == 0 and big_b % q_div == 0 and big_c % q_div == 0
    out = BinaryForm(big_a // q_div, big_b // q_div, big_c // q_div)
    assert out.a % n_level == 0 and out.disc() == form.disc()
    return k, out


def galois_orbit(base: HeegnerTau, kernel: GaloisKernel) -> list[HeegnerTau]:
    """The Gal(H_pf / H_f) orbit of the base point, one member per kernel class.

    Multiplies the point's lattice pair by each kernel ideal, the
    generator_ideal of the class's generator, and reads the new point off a
    basis of the first lattice that starts with a primitive vector of the
    second lattice's Hermite normal form.  Members come back in the
    fixed kernel ordering; the identity class reproduces the base point.
    """
    order = kernel.order
    p = kernel.p
    if base.dK != order.dK or base.conductor != p * order.f:
        raise InputError("kernel and base point disagree on the order")
    n_level = base.n_level
    dK = order.dK
    cond = base.conductor
    l1 = form_to_ideal(base.form, dK, cond)
    # index-N cyclic sublattice <A, N*(-B + sqrt(disc))/2>
    l2 = (l1[0], (n_level * l1[1][0], n_level * l1[1][1]))

    out = []
    for kc in kernel.classes:
        # the conjugate of the kernel ideal lam O_f cap O_pf
        abar = tuple((u, -v) for u, v in generator_ideal(order, p, *kc.generator))
        (a1, b1), (_, c1) = ideal_mul(abar, l1, dK)
        (a2, b2), (_, c2) = ideal_mul(abar, l2, dK)
        # both are in Hermite normal form, so m2's rows in the basis of m1 are
        # triangular; their normal form is ((e, f), (0, g)) with e*g = [m1 : m2]
        x = a2 // a1
        assert x * a1 == a2 and (b2 - x * b1) % c1 == 0 and c2 % c1 == 0
        (e, f), (_, g) = _hnf2([(x, (b2 - x * b1) // c1), (0, c2 // c1)])
        assert e * g == n_level, "lattice pair does not have index N"
        # m1/m2 is cyclic exactly when gcd(e, f, g) = 1, and then some
        # s1 = (e, f + k*g) with k < e is primitive
        k = next((k for k in range(e) if gcd(e, f + k * g) == 1), None)
        assert k is not None, "lattice pair is not cyclic"
        s1 = (e, f + k * g)
        s2 = _complete_unimodular(*s1)
        # m2 has index N in m1, so it holds N*m1 and with it <s1, N*s2>, which
        # also has index N: m2 = <s1, N*s2>, and the point is s2 / s1
        v1, v2 = ((s[0] * a1, s[0] * b1 + s[1] * c1) for s in (s1, s2))
        form = basis_form(v1, v2, dK)
        assert form.a % n_level == 0, "adapted basis lost the level structure"
        form = gamma0_reduce(form, n_level)
        out.append(HeegnerTau(form=form, n_level=n_level, dK=dK, conductor=cond))
    return out

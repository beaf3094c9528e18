"""Heegner forms of level N and Galois orbits of CM points.

A CM point of discriminant D = c^2 dK on X_0(N) is carried by a primitive
form (A, B, C) with N | A and B^2 = D mod 4N, with representative
tau = (-B + sqrt(D)) / (2A) in the upper half plane.  A point is that form
alone; its level N travels beside it, and tau is computed where a series
needs it.

Pic(O_D) acts on these Heegner forms by Dirichlet composition (Gross, Kohnen
and Zagier, Math. Ann. 278, 1987, section I.1; Cox, Primes of the form
x^2 + ny^2, Lemma 3.2).  For a form (a, b, c) of discriminant D with a prime
to A, the composite of (A, B, C) and (a, b, c) is (A a, B', C') with
B' = B mod 2A and B' = b mod 2a: it lies in the product class, N still
divides its leading coefficient, and since N | A, B' = B mod 2N.  So the
action keeps B mod 2N, and with it the stratum q^2 | B that heegner_form
picks at q^2 || N.  On the Gamma_0(N) classes of Heegner forms with a fixed
B mod 2N the action is simply transitive, so the composite's Gamma_0(N)
class depends only on the two classes, not on the forms chosen.  A form
with a prime to A exists in every class: a primitive form represents
numbers prime to any given integer (Cox, Lemma 2.25), and _prime_to finds
one.

By the main theorem of complex multiplication the Artin symbol of an ideal
class acts on CM points through the inverse class, so galois_orbit composes
the base form with the inverse of each given form and reduces the composite
inside its Gamma_0(N) class, which keeps imaginary parts workable for the
q-series.  The forms may be any forms of the base's discriminant:
experiments.trace_point passes the kernel forms of Pic(O_pf) -> Pic(O_f),
whose orbit is the Gal(H_pf / H_f) orbit it traces, and reduced_forms(D)
gives the whole Pic(O_D) orbit, whose sum is the trace down to K.
The moves of the orbit points are found here too: al_move, the best W_Q
(tau + k), and coset_move, the best point of the whole coset W_Q
Gamma_0(N) tau, by the least-vector search (_least_vectors) that
gamma0_reduce runs at Q = 1, with W_Q itself from al_matrix, which
cmtrace.modparam imports from here.  Everything stays in integer
arithmetic: the module imports no mpmath.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import InputError
from .fp import _xgcd, check_fundamental, factorint, kronecker
from .quadforms import BinaryForm, lagrange_reduce


class NoHeegnerPoint(InputError):
    """The discriminant admits no form with N | A (square-root obstruction)."""


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

    B mod 2N fixes the ideal n = (N, (B + sqrt D) / 2), which the least |B|
    need not keep across conductors: on the catalogue's pairs (p, l p), l in
    {2, 3}, B_lp = l B_p mod 2N at N = 49 and 121 but -3 B_p at N = 50 (the
    conjugate of n), so there the Heegner norm relation S_lp = c_l S_p of
    the Pic orbit sums holds against conj(S_p) (tests/test_orbit_moves.py).
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


def gamma0_reduce(form: BinaryForm, n_level: int) -> BinaryForm:
    """Small representative of the Gamma_0(N) class of an N-divisible form.

    Minimises A = Q(x, y) over primitive vectors with y = 0 mod N (columns of
    Gamma_0(N) matrices, _least_vectors at Q = 1), then translates B into
    (-A, A]; only the vectors of minimal A are completed to a matrix, and
    ties go to the smallest (|B|, -B)."""
    if form.a % n_level:
        raise InputError("form is not N-divisible")
    cands = [_image(form, x, y, 1) for x, y in _least_vectors(form, n_level, 1)]
    out = min(cands, key=lambda f: (abs(f.b), -f.b))
    assert out.a % n_level == 0 and out.disc() == form.disc()
    return out


def _least_vectors(form: BinaryForm, n_level: int, q_div: int) -> list[tuple[int, int]]:
    """The (x, y) = (Q w, -N z) with gcd(x, y / Q) = 1 at which F = form
    takes its least value: the first columns (the bottom rows (N z, Q w)
    read backwards) of the adjugates of W_Q Gamma_0(N), Gamma_0(N) at Q = 1.

    With v1, v2 the basis (Q, 0), (0, N) of that lattice Lagrange-reduced for
    the Gram triple (2A, B, 2C), n_i = 2F(v_i), b = v1.v2 in it and det = n1
    n2 - b^2 > 0, n1 2F(s v1 + t v2) = (n1 s + b t)^2 + det t^2: the loops
    visit every s v1 + t v2 with F <= bound (det t^2 <= 2 bound n1, then |n1 s
    + b t| <= isqrt(2 bound n1 - det t^2)), for bound = F(v1), 2 F(v1), ...
    until some pass the gcd; those include every vector of least value.  Of
    v and -v, which give the same matrix up to sign, only the one with t > 0,
    or t = 0 and s > 0, is visited."""
    (x1, y1), (x2, y2) = lagrange_reduce((2 * form.a, form.b, 2 * form.c), (q_div, 0),
                                         (0, n_level))
    n1, n2 = 2 * form.value(x1, y1), 2 * form.value(x2, y2)
    b = form.value(x1 + x2, y1 + y2) - (n1 + n2) // 2
    det = n1 * n2 - b * b
    bound, found = n1 // 2, []
    while not found:
        t_max = isqrt(2 * bound * n1 // det)
        for t in range(t_max + 1):
            r = isqrt(2 * bound * n1 - det * t * t)
            low = -((r + b * t) // n1)
            for s in range(low if t else max(low, 1), (r - b * t) // n1 + 1):
                x, y = s * x1 + t * x2, s * y1 + t * y2
                if gcd(x, y // q_div) == 1:
                    found.append((form.value(x, y), x, y))
        bound *= 2
    least = min(found)[0]
    return [(x, y) for value, x, y in found if value == least]


def _image(form: BinaryForm, x: int, y: int, q_div: int) -> BinaryForm:
    """The form of M tau, B in (-A, A], tau the point of F = form and M of
    determinant Q with bottom row (-y, x), x = Q w, y = N z, gcd(x, y / Q) =
    1: one _xgcd gives x s + (y / Q) t = 1, and the columns (x, y), (u, v) =
    (-t, Q s) of determinant Q carry F to Q times the form."""
    g, s, t = _xgcd(x, y // q_div)
    assert g == 1
    u, v = -t, q_div * s
    big_a, big_c = form.value(x, y), form.value(u, v)
    big_b = 2 * (form.a * x * u + form.c * y * v) + form.b * (x * v + y * u)
    assert big_a % q_div == 0 and big_b % q_div == 0 and big_c % q_div == 0
    a, b, c = big_a // q_div, big_b // q_div, big_c // q_div
    k = (a - b) // (2 * a)
    return BinaryForm(a, b + 2 * a * k, a * k * k + b * k + c)


def al_matrix(n_level: int, q_div: int) -> tuple[int, int, int, int]:
    """Integral matrix (Qa, b; Nc, Qd) of determinant Q for the involution W_Q."""
    if q_div < 1 or n_level % q_div:
        raise InputError(f"Q must be a positive divisor of N = {n_level}, got Q = {q_div}")
    comp = n_level // q_div
    if gcd(q_div, comp) != 1:
        raise InputError("W_Q needs gcd(Q, N/Q) = 1")
    if q_div == n_level:
        return (0, -1, n_level, 0)
    g, x, y = _xgcd(q_div, comp)
    assert g == 1
    # Q*a*d - (N/Q)*b*c = 1 with a = x, d = 1, b = -y, c = 1.
    return (q_div * x, -y, n_level, q_div)


def al_move(form: BinaryForm, n_level: int, q_div: int) -> BinaryForm:
    """The form of W_Q (tau + k) up to translation, tau the point of the
    N-divisible form F = (A, B, C) and W_Q = al_matrix(N, Q) = (a, b; N, d),
    for the k that makes its leading coefficient F(N k + d, -N) / Q least,
    at N k + d nearest B N / (2 A), hence Im W_Q (tau + k) greatest.  It is
    _image's at the bottom row (N, N k + d) of W_Q T^k: another matrix of
    that row moves the point by an integer and B by a multiple of 2A, which
    keeps the keys (A, B mod 2A), B mod 2N and the reduced form.  W_Q keeps
    the Heegner forms of level N and discriminant D (Gross, Kohnen and
    Zagier, Math. Ann. 278, 1987), which the closing assertion checks."""
    _, _, n, d = al_matrix(n_level, q_div)
    k0 = (form.b * n - 2 * form.a * d) // (2 * form.a * n)
    k = min((k0, k0 + 1), key=lambda k: (form.value(n * k + d, -n), k))
    out = _image(form, n * k + d, -n, q_div)
    assert out.a % n_level == 0 and out.disc() == form.disc()
    return out


def coset_move(form: BinaryForm, n_level: int, q_div: int) -> tuple[bool, BinaryForm]:
    """(translation, G): G the form of M tau, tau the point of the N-divisible
    form F, for the M = (Q x, y; N z, Q w) of determinant Q whose image has
    the least leading coefficient F(Q w, -N z) / Q, hence the greatest Im M
    tau, among all of W_Q Gamma_0(N) (Atkin and Lehner, Math. Ann. 185,
    1970: every such integer matrix lies in that coset).  translation is
    True when M = +-W_Q T^k, W_Q = al_matrix(N, Q), that is z = +-1 and w =
    z mod N/Q, which al_move already offers; ties go to such an M, then to
    the smallest (|B|, -B).  One lagrange_reduce and a few short vectors
    (_least_vectors), not a scan."""
    comp = n_level // q_div
    # off the translations unless z = -y / N = +-1 and w - z = x / Q + y / N = 0 mod N/Q
    least = [(abs(y) != n_level or (x // q_div + y // n_level) % comp != 0, x, y)
             for x, y in _least_vectors(form, n_level, q_div)]
    off = min(least)[0]
    out = min((_image(form, x, y, q_div) for o, x, y in least if o == off),
              key=lambda f: (abs(f.b), -f.b))
    assert out.a % n_level == 0 and out.disc() == form.disc()
    return not off, out


def _prime_to(form: BinaryForm, m: int) -> BinaryForm:
    """A form properly equivalent to the primitive form F = (a, b, c) whose
    leading coefficient is prime to m >= 1 (Cox, Lemma 2.25).

    Scans k = 0, 1, ..., m - 1 and returns F transformed by (1, 0; k, 1),
    that is (F(1, k), b + 2 c k, c), at the first k with F(1, k) prime to m.
    When m and a are even and c is odd, F is first replaced by (c, -b, a).
    A k below m exists: at an odd prime q | m, F(1, k) = a + b k + c k^2 is
    a nonzero polynomial mod q of degree at most 2 (F is primitive), so at
    most 2 of the q residues of k fail; at q = 2, F(1, k) = a + (b + c) k
    mod 2 with a odd or b + c odd, so at most one residue fails.  By the
    Chinese remainder theorem some k below the product of the primes of m
    passes.  Raises InputError for a form that is not primitive.
    """
    if not form.is_primitive() or m < 1:
        raise InputError(f"need a primitive form and m >= 1, got {form} and m = {m}")
    if m % 2 == 0 and form.a % 2 == 0 and form.c % 2:
        form = form.transform(0, -1, 1, 0)
    for k in range(m):
        if gcd(form.value(1, k), m) == 1:
            return form.transform(1, 0, k, 1)
    raise AssertionError(f"no value F(1, k) prime to {m} below k = {m}")


def galois_orbit(base: BinaryForm, n_level: int, forms) -> list[BinaryForm]:
    """The images of the Heegner form base of level N = n_level under the
    Artin symbols of the classes of the given forms, one Gamma_0(N)-reduced
    form per given form, in their order.  InputError unless N | A for the
    base (A0, B0, C0).

    Every form must have the base's discriminant D: the kernel forms give the
    Gal(H_pf / H_f) orbit that trace_point traces, and reduced_forms(D) the
    whole Pic(O_D) orbit.  The member of a class is the base form
    (A0, B0, C0) composed with the inverse (a, -b, c) of the class's form
    (module docstring).  The inverse is moved to a properly equivalent
    (a', b', c') with a' prime to A0 (_prime_to).  Then B = B0 + 2 A0 k,
    with A0 k = (b' - B0) / 2 mod a' (one modular inverse), meets B = B0
    mod 2 A0 and B = b' mod 2 a', and the composite (A0 a', B, (B^2 - D) /
    (4 A0 a')) is reduced in its Gamma_0(N) class.  It keeps B0 mod 2N, on
    which the Gamma_0(N) class is fixed by the ideal class alone (Gross,
    Kohnen and Zagier), so the member does not depend on the representative
    a' or on the base form chosen in its Gamma_0(N) class.  The principal
    class reproduces the base form's reduction.
    """
    a0, b0, disc = base.a, base.b, base.disc()
    if a0 % n_level:
        raise InputError(f"the base form {base} is not N-divisible at N = {n_level}")
    if any(form.disc() != disc for form in forms):
        raise InputError(f"every form must have the base's discriminant {disc}")
    out = []
    for form in forms:
        rep = _prime_to(BinaryForm(form.a, -form.b, form.c), a0)
        big_a = a0 * rep.a
        big_b = b0 + 2 * a0 * ((rep.b - b0) // 2 * pow(a0, -1, rep.a) % rep.a)
        assert (big_b * big_b - disc) % (4 * big_a) == 0
        composite = BinaryForm(big_a, big_b, (big_b * big_b - disc) // (4 * big_a))
        out.append(gamma0_reduce(composite, n_level))
    return out

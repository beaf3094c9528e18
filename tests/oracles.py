"""Exhaustive enumerations kept as test oracles for the closed forms in cmtrace.

The package computes each finite-layer quantity by one closed-form route: the
index [C_ns+ : C_ns+ cap C_s+], the coset label of a matrix, the image
iota_omega of the order generator, and the Galois kernel from its unit-class
generators.  The routines here reach the same quantities by brute force
(listing Cartan subgroups, SL_2(F_p), in which the tests find the conjugator
from the companion matrix to iota_omega, the split normalizer, and every
reduced form of the big discriminant), so the tests can compare the two
routes.  They are capped at p <= ENUMERATION_BOUND.

The package builds no ideal as a lattice; this module holds the one lattice
reference.  Ideals are rank-two lattices in half-integer coordinates, the
pair (u, v) standing for (u + v*sqrt(dK)) / 2: _half_mul multiplies two
elements, _hnf2 is the Hermite normal form, form_to_ideal and basis_form go
from a form to a lattice basis and back, and ideal_mul multiplies two
lattices.  galois_orbit_by_lattices is the Galois orbit by the main theorem
of complex multiplication: it multiplies the point's lattice pair
L1 = <A, (-B + sqrt(D))/2> and its index-N cyclic sublattice by the
conjugate of each kernel ideal, and reads the new point off a basis of the
first lattice that starts with a primitive vector of the Hermite normal
form of the second.  cmtrace.heegner.galois_orbit composes the base form
with the inverse kernel form instead; both results are reduced in their
Gamma_0(N) class, so the orbit forms must agree member by member.
generator_ideal writes each kernel ideal (x1 + x2*w_f) O_f cap O_pf as the
Hermite normal form of two rows, generator_ideal_by_intersection
intersects the two lattices with lattice_intersect, an integer left-kernel
row reduction (_left_kernel_rows), and generator_ideal_three_rows builds it
as N(lam) Z + p lam O_f, from three rows; the HNF of a lattice is unique,
so the three routes must agree row for row.  kernel_classes_by_hnf reads
every kernel form off the Hermite normal form of the three-row ideal
(ideal_to_form), where cmtrace.quadforms.kernel_classes writes
(N(lam), -p Tr(lam), p^2) down directly.  coset_label_by_matrices
labels a matrix through its inverse and two candidate matrices, and
two_to_one_by_matrices groups the kernel classes by those labels of
galois_matrix and pairs the fiber mates by proj_mul with the
involution_class; cmtrace.embeddings reads each label of the pencil
x1*I + iota_omega off its entries in closed form, keys each fiber by that
4-tuple, labels one point of each fiber and files its mate u' = bc/u with
it (pencil_fibers_by_point labels every point), and checks the pairing by
one residue, det iota_omega = n, where fibers_paired_by_involution checks
each mate by the group law in closed form, and coset_label is the label of
any invertible matrix, read off its entries by _label_entries.  A label is
the row-major 4-tuple of entries in every route.  signo_pairing_by_matrices
builds the involution's matrix with galois_matrix, tests its Cartan
membership and factors it through (0,1;-1,0), where
cmtrace.embeddings.signo_pairing_check reads the answer off two entries.

These routes run on the matrix layer that the package no longer has.  A
matrix over F_p is a row-major 4-tuple in [0, p) (mat, mat_det, mat_mul,
mat_inv, IDENTITY), in_cartan_group tests membership of the Cartan group
of each of the four CARTAN_KINDS, galois_matrix is x1*I + x2*iota_omega,
and proj_params, proj_class, proj_elements, proj_mul and involution_class
are the group law of P^1(F_p) on pairs (x1, x2) (cmtrace.quadforms
docstring), where cmtrace reads each of these off a few residues.

On the analytic side, eval_series_direct is the term-by-term mpc evaluation
of the q-series that the fixed-point evaluator in cmtrace.modparam replaced,
eval_series_in_doubles_by_chain the route in doubles with each a_n / n
divided as it goes, where modparam reads them from the curve's table,
phi_terms_mp its term count at 30 digits, where modparam.phi_terms
computes it in doubles,
orbit_trace_direct the sum of the parametrisation over the orbit points
themselves, where cmtrace.experiments.orbit_trace evaluates some of them at
W_Q (tau + k) and one series per evaluation point up to conjugation,
w_p2_pairs the W_{p^2} pairing of the orbit found by search, where
orbit_trace checks the finite shadow's fibers against it,
coset_least_by_search the best point of an Atkin-Lehner coset W_Q
Gamma_0(N) by a search of a box, where cmtrace.heegner.coset_move reads it
off a Lagrange-reduced basis,
orbit_values_by_fiber orbit_trace's fiber route rebuilt in kernel order,
where orbit_trace evaluates deepest first, al_constant_by_series the constant K_Q of such a move summed
at full precision, where cmtrace.modparam.al_constant reads it off the
lattice, two_torsion_roots the roots of the 2-division cubic from the
integers of cmtrace.periods._cubic (one Newton iteration and the
discriminant), which period_lattice reads its periods from, and
two_torsion_roots_by_polyroots the same roots by mpmath's polyroots, period_lattice_by_agm the periods by that
Newton iteration in mpf and mpmath's agm, where cmtrace.periods runs both
in integers,
ap_char_sum_reduced the numpy point count with every product reduced mod
ell, the reference for the baby-step giant-step count of cmtrace.curves,
walk_unit_rows_by_term the Hecke walk's unit rows (d = -3, -4) one term at
a time, where cmtrace.sieve._walk reads every row by slices of its tables,
lattice_reduce_descent the descent from the nearest integer coordinates by
steps of w1, w2 and w1 +- w2 that the four-corner rule of cmtrace.periods
replaced, and wp_pair_by_laurent the Laurent series of the Weierstrass
function (coefficients by the mpf recurrence wp_series_coeffs_mpf) plus
duplication that the theta quotients of cmtrace.periods replaced.  The
descent finds the nearest lattice vector only when (w1, w2) is
Lagrange-reduced (the steps then hold every Voronoi-relevant vector), so
the tests compare the four-corner rule with
lattice_distance_by_search, an exhaustive search of a box of coordinates.  gamma0_reduce_all_candidates is
the Gamma_0(N) reduction that builds the reduced form of every candidate
vector, where cmtrace.heegner builds only those of minimal leading
coefficient.  heegner_form_all_roots chooses the Heegner form among sympy's every
square root of the discriminant mod 4N, where cmtrace.heegner.heegner_form
scans B = 0, 1, -1, 2, -2, ... and stops at the first hit; sympy stays in
the tests as the reference for the package's own primality test,
factorisation and square roots.  q_by_libmp takes q = e^(2 pi i tau) from
libmp's exp and cos-sin, where cmtrace.elementary.q_scaled takes it from
integers alone.  dyadic_point is the FormPoint of the exact dyadic value of
a complex or mpc tau, which cmtrace.modparam built itself until its series
took FormPoints only: the tests evaluate a series at any other point
through it.

Square-and-multiply powers, element orders and the
curve-equation residual are test-only helpers: the pipeline never needs
them.  So is the API that
cmtrace kept only for its tests: principal_form, coset_label with _label_entries, lift_to_integral_sl2, Gaussian composition
(compose, form_inverse, ClassGroup, class_to_proj), proj_inverse, recognize_algebraic with minpoly, root_number,
lattice_reduce and lattice_distance.  Their bodies are as they were in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, isqrt
from operator import mul

import mpmath as mp
import numpy as np
import sympy
from mpmath.libmp import (fone, from_float, from_int, fzero, mpf_cos_sin, mpf_div, mpf_exp,
                          mpf_mul, mpf_neg, mpf_pi, mpf_sqrt, to_rational)
from sympy.ntheory import sqrt_mod

from cmtrace.curves import Curve, CurveModel, an_coefficients
from cmtrace.embeddings import EmbeddingData, FiberStructureError, inverse_table
from cmtrace.errors import InputError
from cmtrace.fp import QuadOrder, _xgcd, check_fundamental, isprime, kronecker, smallest_nonsquare
from cmtrace.heegner import NoHeegnerPoint, gamma0_reduce
from cmtrace.modparam import SERIES_GUARD, FormPoint, atkin_lehner_sign, float_error, phi_terms
from cmtrace.periods import (LATTICE_GUARD, NEWTON_GUARD, TORSION_BOUND, PeriodLattice,
                             _cubic, _nearest_multiples, locate)
from cmtrace.quadforms import BinaryForm, KernelClass, lagrange_reduce, reduce_form, reduced_forms
from cmtrace.recognize import AlgebraicNumber, recognize_in_quadratic, recognize_rational

ENUMERATION_BOUND = 200
CARTAN_KINDS = ("ns", "ns+", "s", "s+")
IDENTITY = (1, 0, 0, 1)


class EnumerationBoundError(ValueError):
    """Exhaustive GL_2(F_p) work was requested for p beyond the cap."""


def _check_bound(p: int):
    if p > ENUMERATION_BOUND:
        raise EnumerationBoundError(f"enumeration capped at p <= {ENUMERATION_BOUND}, got {p}")


# ---------------------------------------------------------------------------
# 2x2 matrices over F_p as row-major 4-tuples (a, b, c, d) in [0, p), the
# four Cartan subgroups, and the group law of P^1(F_p) on pairs (x1, x2).


def mat(p: int, a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    return (a % p, b % p, c % p, d % p)


def mat_det(p: int, m) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % p


def mat_mul(p: int, x, y) -> tuple[int, int, int, int]:
    a, b, c, d = x
    e, f, g, h = y
    return mat(p, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(p: int, m) -> tuple[int, int, int, int]:
    """The inverse; ValueError for a singular m."""
    a, b, c, d = m
    dinv = pow(mat_det(p, m), -1, p)
    return mat(p, d * dinv, -b * dinv, -c * dinv, a * dinv)


def in_cartan_group(p: int, m, kind: str) -> bool:
    """Whether m is invertible and matches the congruence pattern of the
    Cartan order of the given kind, eps the smallest non-square mod p."""
    eps = smallest_nonsquare(p)
    a, b, c, d = mat(p, *m)
    ns = a == d and (b * eps - c) % p == 0
    kinds = {"ns": ns, "ns+": ns or ((a + d) % p == 0 and (b * eps + c) % p == 0),
             "s": b == c == 0, "s+": b == c == 0 or a == d == 0}
    return mat_det(p, m) != 0 and kinds[kind]


def galois_matrix(emb: EmbeddingData, x1: int, x2: int) -> tuple[int, int, int, int]:
    """The matrix x1*I + x2*iota_omega; invertible whenever (x1, x2) != (0, 0)."""
    p = emb.p
    if x1 % p == 0 and x2 % p == 0:
        raise ValueError("zero pair")
    a, b, c, d = emb.iota_omega
    m = mat(p, x1 + x2 * a, x2 * b, x2 * c, x1 + x2 * d)
    assert mat_det(p, m), "norm form vanished at an inert prime"
    return m


def proj_params(p: int, t: int, n: int) -> tuple[int, int, int]:
    """(p, t, n) reduced: the group law of P^1(F_p) carried by X^2 - tX + n,
    which must be irreducible mod p (cmtrace.quadforms docstring)."""
    if kronecker(t * t - 4 * n, p) != -1:
        raise ValueError(f"t^2-4n must be a non-square mod {p} (inert condition)")
    return (p, t % p, n % p)


def proj_class(p: int, x1: int, x2: int) -> tuple[int, int]:
    """Canonical representative of [x1 : x2]: (x, 1), or (1, 0)."""
    x1, x2 = x1 % p, x2 % p
    if x1 == 0 and x2 == 0:
        raise ValueError("both projective coordinates vanish mod p")
    return (1, 0) if x2 == 0 else (x1 * pow(x2, -1, p) % p, 1)


def proj_elements(p: int) -> list[tuple[int, int]]:
    """The p + 1 points in kernel_classes' order: [1 : 0], then [x : 1]."""
    return [(1, 0)] + [(x, 1) for x in range(p)]


def proj_mul(params, u, v) -> tuple[int, int]:
    p, t, n = params
    return proj_class(p, u[0] * v[0] - n * u[1] * v[1],
                      u[0] * v[1] + u[1] * v[0] + t * u[1] * v[1])


def involution_class(params, a: int) -> tuple[int, int]:
    """The unique order-two class [-a : 1]; requires 2a = t mod p."""
    p, t, _ = params
    if (2 * a - t) % p:
        raise ValueError(f"2a = {2 * a % p} differs from t = {t} mod {p}")
    return proj_class(p, -a, 1)


def enumerate_cartan(p: int, kind: str) -> list[tuple[int, int, int, int]]:
    """All invertible matrices of the given Cartan pattern, sorted by entries.

    Sizes: |C_ns| = p^2-1, |C_s| = (p-1)^2, and the normalizers are twice that.
    """
    _check_bound(p)
    eps = smallest_nonsquare(p)
    out = []
    if kind in ("ns", "ns+"):
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                # det = a^2 - eps*b^2 != 0 automatically: eps is a non-square.
                out.append(mat(p, a, b, b * eps, a))
                if kind == "ns+":
                    out.append(mat(p, a, b, -b * eps, -a))
    elif kind in ("s", "s+"):
        for a in range(1, p):
            for d in range(1, p):
                out.append((a, 0, 0, d))
        if kind == "s+":
            for b in range(1, p):
                for c in range(1, p):
                    out.append((0, b, c, 0))
    else:
        raise ValueError(f"unknown Cartan kind {kind!r}")
    for m in out:
        assert in_cartan_group(p, m, kind)
    return sorted(out)


def cartan_intersection_ns_s(p: int) -> list[tuple[int, int, int, int]]:
    """The group C_ns+ intersect C_s+ (diagonal and antidiagonal pieces), sorted."""
    _check_bound(p)
    eps = smallest_nonsquare(p)
    out = []
    for a in range(1, p):
        out.append(mat(p, a, 0, 0, a))
        out.append(mat(p, a, 0, 0, -a))
    for b in range(1, p):
        out.append(mat(p, 0, b, b * eps, 0))
        out.append(mat(p, 0, b, -b * eps, 0))
    return sorted(set(out))


def index_ns_plus_by_enumeration(p: int) -> int:
    """[C_ns+ : C_ns+ cap C_s+] as the quotient of the two enumerated orders."""
    big = enumerate_cartan(p, "ns+")
    inter = [m for m in cartan_intersection_ns_s(p)
             if in_cartan_group(p, m, "ns+") and in_cartan_group(p, m, "s+")]
    if len(big) % len(inter):
        raise AssertionError("intersection does not divide group order")
    return len(big) // len(inter)


def sl2_elements(p: int) -> list[tuple[int, int, int, int]]:
    _check_bound(p)
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        out.append((a, b, c, d))
    return out


def split_normalizer_sl2(p: int) -> list[tuple[int, int, int, int]]:
    """C_s+ cap SL_2(F_p): diagonal (a, a^{-1}) and antidiagonal (0, b; -b^{-1}, 0)."""
    _check_bound(p)
    out = []
    for a in range(1, p):
        out.append(mat(p, a, 0, 0, pow(a, -1, p)))
        out.append(mat(p, 0, a, -pow(a, -1, p), 0))
    return sorted(out)


def sorted_min_label(p: int, g) -> tuple[int, int, int, int]:
    """Minimum of the coset (C_s+ cap SL_2) * g^{-1}, found by listing it."""
    if mat_det(p, g) != 1:
        raise ValueError("coset labels are defined for determinant-one matrices")
    ginv = mat_inv(p, g)
    return min(mat_mul(p, h, ginv) for h in split_normalizer_sl2(p))


def _label_entries(inv: list[int], a: int, b: int, c: int,
                   d: int) -> tuple[int, int, int, int]:
    """The entries of the coset label of g = (a, b; c, d), row-major, in [0, p):
    the lexicographically minimal determinant-one element of C_s+ * g^{-1}.
    inv is inverse_table(p), so p = len(inv), and every inverse is read
    from it.

    C_s+ holds the scalars, so C_s+ * g^{-1} = C_s+ * h for the adjugate
    h = (d, -b; -c, a), of determinant delta = det(g).  The determinant-one
    elements of the diagonal part are diag(x, 1/(x delta)) * h =
    (xd, -xb; -c/(x delta), a/(x delta)), and those of the antidiagonal part
    are (0, x; -1/(x delta), 0) * h = (-xc, xa; -d/(x delta), b/(x delta)).
    Each part has its minimum at the one x that makes the first nonzero entry
    of the top row 1, x = 1/lead; the label is the smaller of those two.
    """
    p = len(inv)
    delta = (a * d - b * c) % p
    if delta == 0:
        raise InputError("coset labels are defined for invertible matrices")
    dinv = inv[delta]
    lead = d % p or -b % p
    x = inv[lead]
    diag = (x * d % p, -x * b % p, -c * lead * dinv % p, a * lead * dinv % p)
    lead = -c % p or a % p
    x = inv[lead]
    anti = (-x * c % p, x * a % p, -d * lead * dinv % p, b * lead * dinv % p)
    return min(diag, anti)


_inverses = lru_cache(maxsize=None)(inverse_table)


def coset_label(p: int, g) -> tuple[int, int, int, int]:
    """Lexicographically minimal determinant-one element of C_s+ * g^{-1}.

    For det(g) = 1 this is the minimum of the coset (C_s+ cap SL_2) * g^{-1}.
    The entries come from _label_entries, the label of any invertible matrix,
    with the inverses of inverse_table(p), built once per p; the closed form
    of cmtrace.embeddings labels only the pencil x1*I + iota_omega.
    """
    return _label_entries(_inverses(p), *g)


def pencil_fibers_by_point(p: int, a: int, b: int,
                           c: int) -> dict[tuple[int, int, int, int], list[tuple[int, int]]]:
    """The fibers of cmtrace.embeddings._pencil_fibers with every point of
    P^1(F_p) labelled by the closed form, in kernel order, and grouped by its
    label, where _pencil_fibers labels one point of each fiber."""
    inv = inverse_table(p)
    bc, c_inv, minus_b = b * c % p, inv[c], -b % p
    identity = (0, 1, p - 1, 0)         # the label of [1 : 0] and of u = 0
    fibers = {identity: [(1, 0)]}
    for x1 in range(p):
        u = (x1 + a) % p
        if u:
            cu, dinv = c * u, inv[(u * u - bc) % p]
            diag, anti = minus_b * inv[u] % p, (p - u) * c_inv % p
            label = ((1, diag, -cu * dinv % p, u * u * dinv % p) if diag < anti
                     else (1, anti, cu * dinv % p, -bc * dinv % p))
        else:
            label = identity
        fibers.setdefault(label, []).append((x1, 1))
    return fibers


def fibers_paired_by_involution(emb: EmbeddingData, fibers):
    """The per-fiber test that cmtrace.embeddings.two_to_one_check made
    before it tested det iota_omega = n alone: every fiber has two points,
    and the second is the first times the involution [-a : 1] by the group
    law in closed form.  Raises FiberStructureError on the first fiber that
    fails, with two_to_one_check's involution message, or naming its size,
    which the walk's construction fixes at two."""
    p, n, a = emb.p, emb.order.n, emb.iota_omega[0] % emb.p
    for label, mates in fibers.items():
        if len(mates) != 2:
            raise FiberStructureError(f"fiber of {label} has size {len(mates)}")
        (x1, x2), (y1, y2) = mates
        if (y1 * (x1 + a * x2) - y2 * (-a * x1 - n * x2)) % p:
            raise FiberStructureError("fiber partners do not differ by the involution")


def coset_label_by_matrices(p: int, g) -> tuple[int, int, int, int]:
    """coset_label through g^{-1} and the two candidate
    matrices.  Write g^{-1} = (a, b; c, d) and delta = det(g): the diagonal
    part of the coset is (xa, xb; (delta/x)c, (delta/x)d), the antidiagonal
    part (xc, xd; -(delta/x)a, -(delta/x)b), and each has its minimum at the
    x that makes the first nonzero entry of the top row 1."""
    delta = mat_det(p, g)
    if delta == 0:
        raise ValueError("coset labels are defined for invertible matrices")
    a, b, c, d = mat_inv(p, g)
    lead_ab, lead_cd = a or b, c or d        # 1/x for the two parts
    x_ab, x_cd = pow(lead_ab, -1, p), pow(lead_cd, -1, p)
    diag = mat(p, x_ab * a, x_ab * b, delta * lead_ab * c, delta * lead_ab * d)
    anti = mat(p, x_cd * c, x_cd * d, -delta * lead_cd * a, -delta * lead_cd * b)
    return min(diag, anti)


def two_to_one_by_matrices(emb: EmbeddingData,
                           classes) -> dict[tuple[int, int, int, int], list[tuple[int, int]]]:
    """cmtrace.embeddings.two_to_one_check with each label taken by
    coset_label_by_matrices of galois_matrix, and the fiber mates paired by
    proj_mul with the involution_class, and the checks of every fiber, its
    count (experiment_finite's) and size (two by the walk's construction)
    as well as its pairing (two_to_one_check's).  It labels the
    points of the given kernel classes in their order, where
    two_to_one_check walks P^1(F_p) itself, so equal dicts hold that walk
    to the kernel order; the classes must match the embedding."""
    p = emb.p
    if len(classes) != p + 1 or any(kc.form.disc() != p * p * emb.order.disc for kc in classes):
        raise ValueError("kernel classes and embedding disagree on (order, p)")
    fibers: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
    for kc in classes:
        label = coset_label_by_matrices(p, galois_matrix(emb, *kc.proj))
        fibers.setdefault(label, []).append(kc.proj)
    if len(fibers) != (p + 1) // 2:
        raise FiberStructureError(f"expected {(p + 1) // 2} labels, got {len(fibers)}")
    pp = proj_params(p, emb.order.t, emb.order.n)
    invol = involution_class(pp, emb.iota_omega[0])
    for label, classes in fibers.items():
        if len(classes) != 2:
            raise FiberStructureError(f"fiber of {label} has size {len(classes)}")
        if proj_mul(pp, classes[0], invol) != classes[1]:
            raise FiberStructureError("fiber partners do not differ by the involution")
    return fibers


def signo_pairing_by_matrices(emb: EmbeddingData) -> bool:
    """cmtrace.embeddings.signo_pairing_check by matrices: the involution's
    matrix w = galois_matrix(emb, -a, 1) lies in C_s+ but not C_s, and
    (0,1;-1,0)^-1 w is diagonal and invertible.  galois_matrix raises
    AssertionError when w is singular."""
    p = emb.p
    w = galois_matrix(emb, -emb.iota_omega[0], 1)
    if not (in_cartan_group(p, w, "s+") and not in_cartan_group(p, w, "s")):
        return False
    sigma = mat_mul(p, mat_inv(p, mat(p, 0, 1, -1, 0)), w)
    return sigma[1] == sigma[2] == 0 and mat_det(p, sigma) != 0


@dataclass(frozen=True)
class GammaDecomposition:
    """r_bar = gamma_i * r_s with gamma_i in SL_2 cap C_ns+ and r_s in C_s+."""

    r_bar: tuple[int, int, int, int]
    gamma_i: tuple[int, int, int, int]
    r_s: tuple[int, int, int, int]


def decompose_gamma(emb: EmbeddingData, r_bar) -> GammaDecomposition:
    """Split r_bar in C_ns as gamma_i * r_s, det(gamma_i) = 1, r_s in C_s+.

    The corrector m is searched in C_ns+ cap C_s+ for det(m) = det(r_bar)^{-1};
    squares are fixed by scalars and non-squares by antidiagonal elements, so
    the search always succeeds.
    """
    p = emb.p
    if not in_cartan_group(p, r_bar, "ns"):
        raise InputError("matrix is not in the non-split Cartan group")
    want = pow(mat_det(p, r_bar), -1, p)
    m = next(x for x in cartan_intersection_ns_s(p) if mat_det(p, x) == want)
    gamma_i = mat_mul(p, r_bar, m)
    r_s = mat_inv(p, m)
    assert mat_det(p, gamma_i) == 1
    assert in_cartan_group(p, gamma_i, "ns+")
    assert in_cartan_group(p, r_s, "s+")
    assert mat_mul(p, gamma_i, r_s) == r_bar
    return GammaDecomposition(r_bar=r_bar, gamma_i=gamma_i, r_s=r_s)


# ---------------------------------------------------------------------------
# Ideals as lattices in half-coordinates: (u, v) means (u + v sqrt(dK)) / 2.


def _half_mul(x: tuple[int, int], y: tuple[int, int], dK: int) -> tuple[int, int]:
    u = x[0] * y[0] + x[1] * y[1] * dK
    v = x[0] * y[1] + x[1] * y[0]
    assert u % 2 == 0 and v % 2 == 0, "product left the maximal order"
    return (u // 2, v // 2)


def _hnf2(rows) -> tuple[tuple[int, int], tuple[int, int]]:
    """Upper triangular basis ((e, f), (0, g)), e, g > 0, 0 <= f < g, of the
    lattice the rows span (Cohen, GTM 138, section 2.4.2).  Each row (x, y)
    is folded into the pivot (e, f) by one xgcd u e + v x = d on the first
    column: the unimodular (u, v; -x/d, e/d) takes the two rows to the new
    pivot (d, u f + v y) and (0, (e y - x f) / d), and g is the gcd of those
    second entries."""
    e = f = g = 0
    for x, y in rows:
        d, u, v = _xgcd(e, x)
        if d:
            e, f, g = d, u * f + v * y, gcd(g, (e * y - x * f) // d)
        else:
            g = gcd(g, y)
    if not (e and g):
        raise ValueError("lattice has rank < 2")
    return ((e, f % g), (0, g))


def form_to_ideal(form: BinaryForm, dK: int, cond: int):
    """Representing lattice A*Z + ((-B + cond*sqrt(dK))/2)*Z, in half-coordinates."""
    if form.disc() != cond * cond * dK:
        raise ValueError("form discriminant does not match cond^2 * dK")
    return ((2 * form.a, 0), (-form.b, cond))


def basis_form(s1, s2, dK: int) -> BinaryForm:
    """The primitive form N(x s1 - y s2) / content of a lattice basis (s1, s2) in
    half-coordinates, with s2 negated if need be so that Im(s2 / s1) > 0; its
    root in the upper half plane is then s2 / s1."""
    (u1, v1), (u2, v2) = s1, s2
    if u1 * v2 - u2 * v1 < 0:
        u2, v2 = -u2, -v2
    a = (u1 * u1 - dK * v1 * v1) // 4
    b = (dK * v1 * v2 - u1 * u2) // 2
    c = (u2 * u2 - dK * v2 * v2) // 4
    g = gcd(gcd(a, b), c)
    return BinaryForm(a // g, b // g, c // g)


def ideal_mul(l1, l2, dK: int):
    rows = [_half_mul(x, y, dK) for x in l1 for y in l2]
    return _hnf2(rows)


def generator_ideal(order: QuadOrder, p: int, x1: int, x2: int):
    """The proper O_pf-ideal lam O_f  intersect  O_pf for lam = x1 + x2*w_f, a
    unit mod the inert p, as a lattice: the Hermite normal form of two rows.

    For x2 = 1 the rows are N(lam) and p lam.  Both lie in the intersection
    (N(lam) = lam conj(lam) is an integer, and p lam lies in p O_f), and both
    lattices have index p N(lam) in O_f: lam O_f has index N(lam), and
    lam O_f + O_pf = O_f because lam is a unit mod p, so the intersection has
    index p in lam O_f.  In general write lam = g lam' with g = gcd(x1, x2),
    prime to p, and lam' = u1 + u2*w_f.  Then u2 is a unit mod N(lam') and
    O_f / lam' O_f = Z / N(lam'), in which w_f = -u1 v for u2 v = 1 mod
    N(lam'); so the rows are g N(lam') and g p (u1 v + w_f), which is p lam
    itself when x2 = 1 (v = 1), and O_pf = <1, p w_f> at [1 : 0] (v = 0)."""
    g = gcd(x1, x2)
    u1, u2 = x1 // g, x2 // g
    norm = u1 * u1 + order.t * u1 * u2 + order.n * u2 * u2
    v = pow(u2, -1, norm)
    return _hnf2([(2 * g * norm, 0), (g * p * (2 * u1 * v + order.t), g * p * order.f)])


def galois_orbit_by_lattices(base: BinaryForm, n_level: int, order: QuadOrder, p: int,
                             classes) -> list[BinaryForm]:
    """cmtrace.heegner.galois_orbit through the lattice pair of the point of
    the Heegner form base at level N = n_level, of conductor p * order.f.

    Multiplies the point's lattice pair by the conjugate of each kernel
    ideal, the generator_ideal of the class's generator, and reads the new point off a
    basis of the first lattice that starts with a primitive vector of the
    second lattice's Hermite normal form.  Members come back in the order
    of the classes; the identity class reproduces the base point.
    """
    dK, cond = order.dK, p * order.f
    if base.disc() != cond * cond * dK or base.a % n_level:
        raise ValueError("base form is not a Heegner form of the kernel's order at level N")
    l1 = form_to_ideal(base, dK, cond)
    # index-N cyclic sublattice <A, N*(-B + sqrt(disc))/2>
    l2 = (l1[0], (n_level * l1[1][0], n_level * l1[1][1]))

    out = []
    for kc in classes:
        # the conjugate of the kernel ideal lam O_f cap O_pf
        abar = tuple((u, -v) for u, v in generator_ideal(order, p, *kc.proj))
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
        out.append(gamma0_reduce(form, n_level))
    return out


def ideal_to_form(lattice, dK: int, cond: int) -> BinaryForm:
    """Reduced form of an oriented proper ideal of the order of conductor cond.

    The primitive form of a lattice has the discriminant of the lattice's ring
    of multipliers (Cox, Primes of the form x^2 + ny^2, Lemma 7.5), so the
    check passes exactly for proper (fractional) ideals of that order."""
    form = basis_form(*_hnf2(lattice), dK)
    if form.disc() != cond * cond * dK:
        raise ValueError("lattice is not a proper ideal of this order")
    return reduce_form(form)


def project_form(form: BinaryForm, dK: int, cond_big: int, cond_small: int) -> BinaryForm:
    """Image of a class of disc cond_big^2*dK in Pic of the smaller-conductor order.

    Realised by extending the representing ideal: multiply by the basis of the
    target order and re-read the form.
    """
    if cond_big % cond_small:
        raise ValueError("target conductor must divide the source conductor")
    lat = form_to_ideal(form, dK, cond_big)
    delta = dK % 2
    target_basis = ((2, 0), (cond_small * delta, cond_small))
    ext = ideal_mul(lat, target_basis, dK)
    return ideal_to_form(ext, dK, cond_small)


def heegner_form_all_roots(n_level: int, dK: int, c: int) -> BinaryForm:
    """cmtrace.heegner.heegner_form through sympy's every root of B^2 = disc
    mod 4N, the least (|B|, -B) among the primitive forms in the stratum."""
    if n_level < 1 or c < 1:
        raise ValueError(f"level and conductor must be positive, got N = {n_level}, c = {c}")
    check_fundamental(dK)
    disc = c * c * dK
    roots = sqrt_mod(disc % (4 * n_level), 4 * n_level, all_roots=True)
    if not roots:
        raise NoHeegnerPoint(f"B^2 = {disc} mod {4 * n_level} has no solution")
    stratum = 1
    for q, e in sympy.factorint(gcd(c, n_level)).items():
        if e == 1 and n_level % q ** 2 == 0 and n_level % q ** 3:
            stratum *= q * q
    candidates = []
    for r in roots:
        for b in (r, r - 4 * n_level):
            if b % stratum:
                continue
            cc = (b * b - disc) // (4 * n_level)
            form = BinaryForm(n_level, b, cc)
            if form.is_primitive():
                candidates.append(form)
    if not candidates:
        raise NoHeegnerPoint(f"no primitive form of discriminant {disc} at level "
                             f"{n_level} in the involution-stable stratum")
    return min(candidates, key=lambda f: (abs(f.b), -f.b))


def principal_form(disc: int) -> BinaryForm:
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"invalid negative discriminant {disc}")
    k = disc % 2
    return BinaryForm(1, k, (k * k - disc) // 4)


def kernel_forms_by_filter(order: QuadOrder, p: int) -> set[BinaryForm]:
    """Every reduced form of discriminant p^2 f^2 dK whose class projects to
    the principal class of Pic(O_f)."""
    principal_small = principal_form(order.disc)
    return {form for form in reduced_forms(p * p * order.disc)
            if project_form(form, order.dK, p * order.f, order.f) == principal_small}


def _left_kernel_rows(mat: list[list[int]]) -> list[list[int]]:
    """Basis of the integer left kernel {w : w * mat = 0} via row reduction."""
    m = len(mat)
    n = len(mat[0])
    h = [row[:] for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for j in range(n):
        while True:
            nz = [i for i in range(r, m) if h[i][j]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][j]))
            h[r], h[piv] = h[piv], h[r]
            u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, m):
                if h[i][j]:
                    q = h[i][j] // h[r][j]
                    h[i] = [h[i][k] - q * h[r][k] for k in range(n)]
                    u[i] = [u[i][k] - q * u[r][k] for k in range(m)]
                    if h[i][j]:
                        done = False
            if done:
                r += 1
                break
    return [u[i] for i in range(m) if not any(h[i])]


def lattice_intersect(l1, l2) -> tuple[tuple[int, int], tuple[int, int]]:
    """Intersection of two full-rank lattices in Z^2 given by basis rows."""
    det2 = l2[0][0] * l2[1][1] - l2[0][1] * l2[1][0]
    adj = ((l2[1][1], -l2[0][1]), (-l2[1][0], l2[0][0]))
    # a = l1 * adj(l2); the condition y*l1 in l2 reads y*a = 0 mod det2.
    a = [[l1[i][0] * adj[0][j] + l1[i][1] * adj[1][j] for j in range(2)] for i in range(2)]
    stacked = [a[0], a[1], [det2, 0], [0, det2]]
    ker = _left_kernel_rows(stacked)
    assert len(ker) == 2, "intersection lattice must have rank 2"
    vecs = []
    for w in ker:
        vecs.append((w[0] * l1[0][0] + w[1] * l1[1][0],
                     w[0] * l1[0][1] + w[1] * l1[1][1]))
    return _hnf2(vecs)


def generator_ideal_by_intersection(order: QuadOrder, p: int, x1: int, x2: int):
    """The kernel ideal (x1 + x2*w_f) O_f cap O_pf by intersecting the two lattices."""
    dK, f, t = order.dK, order.f, order.t
    lam = (2 * x1 + x2 * t, x2 * f)
    omega = (t, f)
    l1 = (lam, _half_mul(lam, omega, dK))
    l2 = ((2, 0), (p * t, p * f))
    return lattice_intersect(l1, l2)


def generator_ideal_three_rows(order: QuadOrder, p: int, x1: int, x2: int):
    """The kernel ideal as N(lam) Z + p lam O_f: the Hermite normal form of
    N(lam), p lam and p lam w_f."""
    lam = (2 * x1 + x2 * order.t, x2 * order.f)
    lam_w = _half_mul(lam, (order.t, order.f), order.dK)
    norm = x1 * x1 + order.t * x1 * x2 + order.n * x2 * x2
    return _hnf2([(2 * norm, 0), (p * lam[0], p * lam[1]), (p * lam_w[0], p * lam_w[1])])


def kernel_classes_by_hnf(order: QuadOrder, p: int) -> tuple[KernelClass, ...]:
    """cmtrace.quadforms.kernel_classes with each form read off the lattice:
    ideal_to_form of the three-row ideal of each unit class of P^1(F_p)."""
    if not isprime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if kronecker(order.dK, p) != -1:
        raise ValueError(f"p = {p} is not inert in the field of discriminant {order.dK}")
    if order.f % p == 0:
        raise ValueError("p must not divide the conductor")
    classes = []
    for pt in proj_elements(p):
        ideal = generator_ideal_three_rows(order, p, *pt)
        classes.append(KernelClass(proj=pt, form=ideal_to_form(ideal, order.dK, p * order.f)))
    if len({kc.form for kc in classes}) != p + 1:
        raise AssertionError("unit classes gave coinciding ideal classes")
    return tuple(classes)


def _complete_unimodular(x: int, y: int):
    """(u, v) with x*v - y*u = 1 for coprime (x, y)."""
    g, u0, v0 = _xgcd(x, y)
    assert g == 1
    return -v0, u0


def gamma0_reduce_all_candidates(form: BinaryForm, n_level: int) -> BinaryForm:
    """heegner.gamma0_reduce by completing, transforming and translating every
    primitive candidate vector, not only those of minimal A."""
    if form.a % n_level:
        raise ValueError("form is not N-divisible")
    v1, v2 = lagrange_reduce((2 * form.a, form.b, 2 * form.c), (1, 0), (0, n_level))
    best = None
    for s in range(-4, 5):
        for t in range(-4, 5):
            if s == 0 and t == 0:
                continue
            x, y = s * v1[0] + t * v2[0], s * v1[1] + t * v2[1]
            if gcd(x, y) != 1:
                continue
            u, v = _complete_unimodular(x, y)
            cand = form.transform(x, u, y, v)
            k = (cand.a - cand.b) // (2 * cand.a)
            cand = BinaryForm(cand.a, cand.b + 2 * cand.a * k,
                              cand.a * k * k + cand.b * k + cand.c)
            key = (cand.a, abs(cand.b), -cand.b)
            if best is None or key < best[0]:
                best = (key, cand)
    assert best is not None
    out = best[1]
    assert out.a % n_level == 0 and out.disc() == form.disc()
    return out


def phi_terms_mp(im_tau, digits: int) -> int:
    """modparam.phi_terms at 30 digits and without the cap: the least n >= 4
    with sqrt(3) q^n / (1 - q) <= 10^(-digits-10), q = e^(-2 pi Im tau)."""
    with mp.workdps(30):
        logq = -2 * mp.pi * mp.mpf(im_tau)
        target = -(digits + 10) * mp.log(10) + mp.log((1 - mp.exp(logq)) / mp.sqrt(3))
        return max(int(mp.ceil(target / logq)), 4)


def eval_series_direct(cur, tau, digits: int, weight: int):
    """sum_{n <= n_max} a_n q^n / n^weight (weight 1: eval_phi, weight 0:
    eval_newform), one mpc multiply per term."""
    with mp.workdps(digits + SERIES_GUARD):
        tau = mp.mpc(tau)
        nmax = phi_terms(tau.imag, digits)
        a = an_coefficients(cur, nmax)
        q = mp.exp(2j * mp.pi * tau)
        qn = mp.mpc(1)
        acc = mp.mpc(0)
        for n in range(1, nmax + 1):
            qn *= q
            if a[n]:
                if weight == 1:
                    acc += mp.mpf(a[n]) / n * qn
                else:
                    acc += a[n] * qn
        return +acc


def eval_series_in_doubles_by_chain(cur, tau: FormPoint, digits: int, weight: int) -> complex:
    """sum_{n <= n_max} a_n q^n / n^weight in doubles by modparam's chain,
    q^1..q^n_max by accumulate, each a_n / n by int division as the sum goes,
    summed from n_max down: the same doubles in the same order as modparam's
    route in doubles, which reads a_n / n from the curve's table."""
    y = tau.imag
    nmax = phi_terms(y, digits)
    q = float_error(tau, y, nmax, weight)[0]
    a = an_coefficients(cur, nmax)
    powers = [1, *accumulate(repeat(q, nmax), mul)]
    return sum((a[n] / n if weight else a[n]) * powers[n] for n in range(nmax, 0, -1) if a[n])


def dyadic_point(tau) -> FormPoint:
    """The FormPoint at the exact dyadic value x + i y of a complex or an mpc
    tau, y > 0, as mpmath holds it (not rounded to the working precision): a
    = the larger denominator of x and y, b = -2 a x and disc = -(2 a y)^2,
    all integers.  The series of cmtrace.modparam take a FormPoint only; the
    tests that evaluate one at any other point pass it through here."""
    parts = tau._mpc_ if isinstance(tau, mp.mpc) else (from_float(tau.real), from_float(tau.imag))
    (xn, xd), (yn, yd) = (to_rational(v) for v in parts)
    assert yn > 0, tau
    a = max(xd, yd)
    return FormPoint(a, -2 * a // xd * xn, -(2 * a // yd * yn) ** 2)


def q_by_libmp(tau: FormPoint, prec: int) -> tuple:
    """e^(2 pi i tau) as raw (re, im) at prec + 10 bits, for a FormPoint, by
    libmp's mpf_exp and mpf_cos_sin: 4 Re tau = j + f exactly, q = i^j e^(-2
    pi Im tau) e^(i pi f / 2), with no cos or sin at f = 0, where q is exactly
    real or imaginary.  The trace-precision q of cmtrace.modparam was this
    until it came from integers (cmtrace.elementary); each part within 8
    2^-(prec + 10) relatively."""
    wp = prec + 10
    pi = mpf_pi(wp)
    num, den = -2 * tau.b, tau.a                # 4 x = -2b / a, 2 pi y = pi sqrt|disc| / a
    t = mpf_div(mpf_mul(pi, mpf_sqrt(from_int(-tau.disc), wp), wp), from_int(den), wp)
    j = (2 * num + den) // (2 * den)            # 4 x = j + f, -1/2 <= f < 1/2
    f = num - j * den                           # theta = pi f / 2, |theta| <= pi / 4
    c, s = (mpf_cos_sin(mpf_div(mpf_mul(pi, from_int(f), wp), from_int(2 * den), wp), wp)
            if f else (fone, fzero))
    r = mpf_exp(mpf_neg(t), wp)
    re, im = mpf_mul(r, c, wp), mpf_mul(r, s, wp)
    return ((re, im), (mpf_neg(im), re), (mpf_neg(re), mpf_neg(im)), (im, mpf_neg(re)))[j % 4]


def heegner_tau(form: BinaryForm, digits: int):
    """The point tau = (-B + sqrt D) / (2A) of a form, at digits + SERIES_GUARD."""
    with mp.workdps(digits + SERIES_GUARD):
        return mp.mpc(-form.b, mp.sqrt(-form.disc())) / (2 * form.a)


def orbit_trace_direct(model: CurveModel, orbit, digits: int):
    """(zs, trace) with zs the values eval_phi(tau) at the orbit points
    themselves, in orbit order, and trace their sum: the route
    cmtrace.experiments.orbit_trace took before it moved points by W_Q."""
    from cmtrace.modparam import eval_phi
    with mp.workdps(digits + 15):
        zs = [eval_phi(model, dyadic_point(heegner_tau(pt, digits)), digits) for pt in orbit]
        trace = mp.mpc(0)
        for z in zs:
            trace += z
        return zs, +trace


def evaluated_moves(moves, pairs, wp: int) -> list:
    """The move each orbit point is evaluated by in
    cmtrace.experiments.orbit_trace: its own move at the trace precision
    (the a of each fiber (a, b) when w_p = +1), its translation move (low,
    or the move itself when that is one) at LAMBDA_DIGITS."""
    full = {a for a, _ in pairs} if wp == 1 else set()
    return [mv if i in full else mv.low or mv for i, mv in enumerate(moves)]


def evaluation_key(form) -> tuple[tuple[int, int], tuple[int, int]]:
    """((A, B mod 2A), (A, -B mod 2A)) of an evaluation point's form: the
    points of one key are equal mod 1, those of a key and its mate are
    conjugate mod 1 (s and -conj s)."""
    return (form.a, form.b % (2 * form.a)), (form.a, -form.b % (2 * form.a))


def coset_least_by_search(form, n_level: int, q_div: int, box: int = 20) -> int:
    """The least leading coefficient F(Q w, -N z) / Q of the form of M tau,
    that is the largest Im M tau, over every M = (Q x, y; N z, Q w) of
    determinant Q with |z|, |w| <= box, found by search, where
    cmtrace.heegner.coset_move reads it off a Lagrange-reduced basis."""
    comp = n_level // q_div
    return min(form.value(q_div * w, -n_level * z) // q_div
               for z in range(-box, box + 1) for w in range(-box, box + 1)
               if gcd(q_div * w, comp * z) == 1)


def w_p2_pairs(model: CurveModel, orbit) -> list[tuple[int, int]]:
    """The orbit paired by W_{p^2}, found by search: for each point i the one
    j with B_j = B' mod 2N and the reduced form of G, G = (A', B', C') the
    form of W_{p^2} (tau_i + k), as sorted pairs (i, j), i < j.  Raises
    unless every point has exactly one such j and the relation is an
    involution.  cmtrace.experiments.fiber_pairs checks the shadow's fibers
    against this instead of searching."""
    from cmtrace.heegner import al_move
    from cmtrace.quadforms import reduce_form
    n, p2 = model.n, model.p ** 2
    mates = []
    for pt in orbit:
        image = al_move(pt, n, p2)
        hits = [j for j, other in enumerate(orbit) if (image.b - other.b) % (2 * n) == 0
                and reduce_form(image) == reduce_form(other)]
        if len(hits) != 1:
            raise AssertionError(f"W_{p2} image of {pt} matches orbit points {hits}")
        mates.append(hits[0])
    if any(mates[j] != i for i, j in enumerate(mates)):
        raise AssertionError(f"W_{p2} does not pair the orbit: {mates}")
    return sorted({tuple(sorted(pair)) for pair in enumerate(mates)})


def orbit_values_by_fiber(model: CurveModel, moves, pairs, wp: int, lat):
    """(zs, digits, sources, terms, trace) in orbit order, as
    cmtrace.experiments.orbit_trace defines them, rebuilt in kernel order
    where orbit_trace evaluates deepest first.  pairs are the fibers (a, b),
    a the point of fewer terms, in order of their first point.  A pass at the
    trace precision over the a of each fiber (none when w_p = -1) and its
    move, one at LAMBDA_DIGITS over the other points and their translation
    moves, and one at LAMBDA_DIGITS over the translation moves of the a whose
    move is none, evaluate phi at the point of the first move of each key in
    kernel order with 0 <= B < 2A, only its real part where the key is its
    own mate, and give a later move of that key the same value ("same:i")
    and one of its mate the conjugate ("conj:i"), at the precision it was
    evaluated at.  Each move applies its w_Q and K_Q, and an a off the
    translations subtracts the lattice vector of the rounded real
    coordinates of its value less that of its translation move (Omega).  A
    fiber whose b has only LAMBDA_DIGITS sums to (1 + w_p) z_a + K +
    lam, lam the lattice vector of the rounded real coordinates of z_b - w_p
    z_a - K, and with w_p = +1 z_b becomes z_a + K + lam ("fiber:a");
    otherwise it sums to z_a + z_b.  The trace sums the fibers in order.  A
    value at LAMBDA_DIGITS is a complex, taken with the allowance of a read
    and moved by K_Q as a complex, as orbit_trace takes it, and every point
    is evaluated as its FormPoint, at either precision."""
    from cmtrace.experiments import LAMBDA_DIGITS, VALUE_ALLOWANCE, al_signs
    from cmtrace.modparam import SERIES_GUARD, FormPoint, al_constant, eval_phi, phi_terms
    digits, n, p2 = lat.digits, len(moves), model.p ** 2
    signs = {q: wp if w is None else w for q, w in al_signs(model)}
    cheap = sorted(a for a, _ in pairs) if wp == 1 else []
    rest = sorted(set(range(n)) - set(cheap))
    zs, precs, sources, terms, first = [None] * n, [None] * n, [None] * n, [None] * n, {}
    with mp.workdps(digits + SERIES_GUARD):
        def constant(q_div):
            i, j, order = al_constant(lat, model.n, q_div, signs[q_div])
            return (i * lat.w1 + j * lat.w2) / order

        def evaluate(i, mv, prec):
            """(value, precision, terms, source) of point i by the move mv."""
            key, mate = evaluation_key(mv.form)
            if key in first:
                j, prec, n, z = first[key]
                source = f"same:{j}"
            elif mate in first:
                j, prec, n, z = first[mate]
                z, source = z.conjugate(), f"conj:{j}"
            else:
                s = FormPoint(key[0], key[1], disc)
                if prec == LAMBDA_DIGITS:
                    z = complex(eval_phi(model, s, prec, VALUE_ALLOWANCE))
                    z = complex(z.real) if key == mate else z
                else:
                    z = eval_phi(model, s, prec)
                    z = mp.mpc(z.real) if key == mate else z
                first[key] = (i, prec, phi_terms(s.imag, prec), z)
                n, source = first[key][2], "series"
            if mv.q != 1:
                k = constant(mv.q)
                z = signs[mv.q] * (z - (complex(k) if prec == LAMBDA_DIGITS else k))
            return z, prec, n, source

        disc = moves[0].form.disc()
        used = evaluated_moves(moves, pairs, wp)
        for prec, members in ((digits, cheap), (LAMBDA_DIGITS, rest)):
            for i in members:
                zs[i], precs[i], terms[i], sources[i] = evaluate(i, used[i], prec)
        for i in cheap:
            if moves[i].low:
                x, y = lattice_coords(lat, zs[i] - evaluate(i, moves[i].low, LAMBDA_DIGITS)[0])
                zs[i] -= int(mp.nint(x)) * lat.w1 + int(mp.nint(y)) * lat.w2
        trace = mp.mpc(0)
        for a, b in pairs:
            if wp == 1 and precs[b] == digits:
                trace += zs[a] + zs[b]
                continue
            k = constant(p2)
            x, y = lattice_coords(lat, zs[b] - wp * zs[a] - k)
            shift = k + int(mp.nint(x)) * lat.w1 + int(mp.nint(y)) * lat.w2
            trace += (1 + wp) * zs[a] + shift
            if wp == 1:
                zs[b], precs[b], sources[b] = zs[a] + shift, digits, f"fiber:{a}"
        return zs, precs, sources, terms, +trace


def al_constant_by_series(cur: Curve, n_level: int, q_div: int, w: int, digits: int):
    """K_Q summed from al_constant_points at `digits` itself: the route
    cmtrace.modparam.al_constant took before it read K_Q off the lattice from
    one evaluation at LAMBDA_DIGITS.  Each point (x + i sqrt Q) / N is built
    at `digits` and errs by under 10^-(digits+10), and the weights sum to 2."""
    from cmtrace.modparam import SERIES_GUARD, al_constant_points, eval_phi
    with mp.workdps(digits + SERIES_GUARD):
        k, height = mp.mpc(0), mp.sqrt(q_div) / n_level
        for c, x in al_constant_points(n_level, q_div, w):
            k += c * eval_phi(cur, dyadic_point(mp.mpc(mp.mpf(x) / n_level, height)), digits)
        return k


def two_torsion_roots(curve: Curve) -> tuple:
    """The roots of 4x^3 + b2 x^2 + 2 b4 x + b6 at the working precision:
    the three real ones in decreasing order when disc > 0, else the real one
    and the one of positive imaginary part, from cmtrace.periods._cubic (its
    module docstring), the integers period_lattice reads the periods from."""
    x, d, frac = _cubic(curve, mp.mp.prec + NEWTON_GUARD)
    t, shift, scale = -x if curve.c6 < 0 else x, 6 * curve.b2 << frac, 72 << frac   # 72 e
    if curve.disc > 0:
        roots = (mp.mpf(v - shift) / scale for v in (2 * t, 2 * d - t, -2 * d - t))
        return tuple(sorted(roots, reverse=True))
    return mp.mpf(2 * t - shift) / scale, mp.mpc(-t - shift, 2 * d) / scale


def two_torsion_roots_by_polyroots(curve: Curve, digits: int) -> tuple:
    """The roots of 4x^3 + b2 x^2 + 2 b4 x + b6 by mpmath's polyroots at
    digits + 25, ordered as two_torsion_roots orders them:
    the route period_lattice took before it solved the cubic by Newton."""
    with mp.workdps(digits + 25):
        roots = mp.polyroots([4, curve.b2, 2 * curve.b4, curve.b6], maxsteps=200, extraprec=60)
        if curve.disc > 0:
            return tuple(sorted((r.real for r in roots), reverse=True))
        e1 = next(r.real for r in roots if abs(r.imag) < mp.mpf(10) ** (-digits))
        ec = next(r for r in roots if r.imag > mp.mpf(10) ** (-digits))
        return e1, ec


def period_lattice_by_agm(curve: Curve, digits: int, extra: int = 0) -> tuple:
    """(w1, w2) at digits + 25 + extra digits by mpf Newton steps on the
    2-division cubic and mpmath's agm: the route cmtrace.periods.period_lattice
    took before it ran both in integers, with extra more digits."""
    with mp.workdps(digits + LATTICE_GUARD + extra):
        if curve.disc > 0:
            e1, e2, e3 = _two_torsion_roots_by_newton(curve)
            w1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            w2 = mp.pi * mp.mpc(0, 1) / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        else:
            e1, ec = _two_torsion_roots_by_newton(curve)
            big_a = abs(e1 - ec)
            cc = e1 - ec.real
            w1 = mp.pi / mp.agm(mp.sqrt(big_a), mp.sqrt((big_a + cc) / 2))
            v = mp.pi / mp.agm(mp.sqrt(big_a), mp.sqrt((big_a - cc) / 2))
            w2 = (w1 + mp.mpc(0, 1) * v) / 2
        return +w1, +w2


def _two_torsion_roots_by_newton(curve: Curve) -> tuple:
    """The roots of 4x^3 + b2 x^2 + 2 b4 x + b6 at the working precision, by
    Newton steps in mpf at doubling precision on the root of t^3 - 27 c4 t -
    54 |c6| farthest from the others, and the other two from the exact
    discriminant (cmtrace.periods docstring)."""
    c4, c6, disc = curve.c4, curve.c6, curve.disc
    prec = mp.mp.prec + 20
    sign = -1 if c6 < 0 else 1
    with mp.workprec(53):
        if disc > 0:
            t = 6 * mp.sqrt(c4) * mp.cos(mp.atan2(mp.sqrt(1728 * disc), abs(c6)) / 3)
        else:
            u = mp.cbrt(abs(c6) + mp.sqrt(-1728 * disc))
            t = 3 * (u + c4 / u)
    steps = [prec]
    while steps[-1] > 100:
        steps.append(steps[-1] // 2 + 10)
    for bits in reversed([prec] + steps):
        with mp.workprec(bits):
            t = t - (t * t * t - 27 * c4 * t - 54 * abs(c6)) / (3 * t * t - 27 * c4)
    with mp.workprec(prec):
        t = sign * t
        fp = 3 * t * t - 27 * c4
        d2 = 34012224 * disc / (fp * fp)
        shift = 3 * curve.b2
        if disc > 0:
            r = mp.sqrt(d2)
            roots = sorted(((x - shift) / 36 for x in (t, -t / 2 + r, -t / 2 - r)), reverse=True)
        else:
            roots = [(t - shift) / 36, mp.mpc(-t / 2 - shift, mp.sqrt(-d2)) / 36]
    return tuple(+x for x in roots)


def lattice_coords(lat, z) -> tuple:
    """Real coordinates (alpha, beta) with z = alpha*w1 + beta*w2."""
    w1, w2 = lat.w1, lat.w2
    det = mp.re(w1) * mp.im(w2) - mp.re(w2) * mp.im(w1)
    alpha = (mp.re(z) * mp.im(w2) - mp.re(w2) * mp.im(z)) / det
    beta = (mp.re(w1) * mp.im(z) - mp.re(z) * mp.im(w1)) / det
    return alpha, beta


def lattice_reduce_descent(lat, z):
    """Representative of z mod the lattice close to the origin."""
    alpha, beta = lattice_coords(lat, z)
    z = z - mp.nint(alpha) * lat.w1 - mp.nint(beta) * lat.w2
    changed = True
    while changed:
        changed = False
        for step in (lat.w1, lat.w2, lat.w1 + lat.w2, lat.w1 - lat.w2):
            for sgn in (1, -1):
                if abs(z + sgn * step) < abs(z):
                    z = z + sgn * step
                    changed = True
    return z


def lattice_distance_by_search(lat, z):
    """min |z - a w1 - b w2| over every (a, b) within R + 1 of the rounded
    coordinates of z.  The nearest vector is no farther than the rounded one,
    at most (|w1| + |w2|) / 2, and R bounds both coordinates of any offset
    that short, so the box holds the nearest vector."""
    w1, w2 = lat.w1, lat.w2
    alpha, beta = lattice_coords(lat, z)
    det = abs(mp.im(mp.conj(w1) * w2))
    radius = int(mp.ceil((abs(w1) + abs(w2)) / 2 * max(abs(w1), abs(w2)) / det)) + 1
    a0, b0 = int(mp.nint(alpha)), int(mp.nint(beta))
    return min(abs(z - a * w1 - b * w2)
               for a in range(a0 - radius, a0 + radius + 1)
               for b in range(b0 - radius, b0 + radius + 1))


def ap_char_sum_reduced(cur: Curve, ell: int) -> int:
    # #affine = sum over x of (1 + chi(4x^3 + b2 x^2 + 2 b4 x + b6)), odd ell.
    x = np.arange(ell, dtype=np.int64)
    x2 = x * x % ell
    f = (4 * (x2 * x % ell) + (cur.b2 % ell) * x2 + (2 * cur.b4 % ell) * x + cur.b6 % ell) % ell
    qr = np.zeros(ell, dtype=np.int8)
    qr[x2] = 1
    chi = np.where(f == 0, 0, np.where(qr[f] == 1, 1, -1))
    return int(-chi.sum())


def walk_unit_rows_by_term(a: list[int], d: int, rows, old: int, bound: int) -> None:
    """cmtrace.sieve._walk for d = -3 or -4, term by term: on each row y = 0
    mod r, every t = 2 + k y mod s with t^2 above 4 old - |d| y^2 and at
    most 4 bound - |d| y^2, of either sign, adds t (t / 2 on the row y = 0)
    to a[(t^2 + |d| y^2) / 4]."""
    n = -d
    r, k, s = rows
    for y in range(0, isqrt(4 * bound // n) + 1, r):
        base = n * y * y
        top, low = isqrt(4 * bound - base), 4 * old - base
        t0 = isqrt(low) + 1 if low >= 0 else 0
        c, shift = (2 + k * y) % s, 0 if y else 1
        for lo, hi in ((t0, top), (-top, -t0)):
            for t in range(lo + (c - lo) % s, hi + 1, s):
                a[(t * t + base) >> 2] += t >> shift


def wp_series_coeffs_mpf(g2, g3, nterms: int):
    """[0, c_1, ..., c_nterms], wp(u) = u^-2 + sum c_k u^2k, by the quadratic
    recurrence in mpf at the working precision."""
    cs = [mp.mpf(0)] * (nterms + 1)
    cs[1] = g2 / 20
    cs[2] = g3 / 28
    for k in range(3, nterms + 1):
        acc = mp.mpf(0)
        for i in range(1, k - 1):
            acc += cs[i] * cs[k - 1 - i]
        cs[k] = 3 * acc / ((2 * k + 3) * (k - 2))
    return cs


def wp_pair_by_laurent(lat: PeriodLattice, z):
    """(wp(z), wp'(z)) for reduced z != 0 at the working precision: the
    Laurent series at z / 2^k, |z / 2^k| <= |b1| / 8, with 0.6 (dps + 10) + 8
    terms whose coefficients wp_series_coeffs_mpf sums with 2 nterms + 10
    guard bits, then k duplications.  The route cmtrace.periods took before
    the theta quotients."""
    cur = lat.curve
    g2, g3 = mp.mpf(cur.c4) / 12, mp.mpf(cur.c6) / 216
    radius = abs(reduced_basis(lat)[0]) / 8
    k = 0
    while abs(z) / 2 ** k > radius:
        k += 1
    u = z / 2 ** k
    nterms = int(0.6 * (mp.mp.dps + 10)) + 8
    with mp.workprec(mp.mp.prec + 2 * nterms + 10):
        cs = wp_series_coeffs_mpf(g2, g3, nterms)
    u2 = u * u
    wp = 1 / u2
    wpd = -2 / (u2 * u)
    upow = mp.mpc(1)
    for j in range(1, nterms + 1):
        upow *= u2
        wp += cs[j] * upow
        wpd += 2 * j * cs[j] * upow / u
    for _ in range(k):
        lam = (6 * wp * wp - g2 / 2) / wpd
        wp2 = lam * lam / 4 - 2 * wp
        wpd = -(lam * (wp2 - wp) + wpd)
        wp = wp2
    return wp, wpd


def equation_residual(cur: Curve, x, y):
    return abs(y * y + cur.a1 * x * y + cur.a3 * y
               - (x ** 3 + cur.a2 * x * x + cur.a4 * x + cur.a6))


# ---------------------------------------------------------------------------
# API the pipeline never calls, kept for the tests: integral SL_2 lifts,
# Gaussian composition and class-group tables, the P^1(F_p) identity and
# inverse, general algebraic recognition, the root number and the distance to
# a period lattice.


def lift_to_integral_sl2(p: int, m, level: int = 1) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer matrix of determinant exactly 1 reducing to m mod p.

    With level > 1 (coprime to p) the lift additionally has lower-left entry
    divisible by level, i.e. lies in Gamma_0(level).  Entries are O(p^3 level^2):
    the bottom row comes from a CRT lift to coprime integers below (p*level)^2
    and the top row from a Bezout solve plus one row operation mod p.
    """
    if mat_det(p, m) != 1:
        raise ValueError("lift requires det = 1 mod p")
    if level < 1 or gcd(level, p) != 1:
        raise ValueError("level must be a positive integer coprime to p")
    q = p * level

    # Centered residues already of determinant one (identity, (0,-1;1,0), ...).
    ma, mb, mc, md = m = mat(p, *m)
    cent = [e if e <= p // 2 else e - p for e in m]
    if cent[0] * cent[3] - cent[1] * cent[2] == 1 and cent[2] % level == 0:
        return ((cent[0], cent[1]), (cent[2], cent[3]))

    # Bottom row: c0 = c (p), 0 (level); d0 = d (p), 1 (level); then make coprime.
    c0 = _crt_pair(mc, p, 0, level)
    d0 = _crt_pair(md, p, 1, level)
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
        kbar = (mb - b0) * pow(d0, -1, p) % p
    else:
        # d0 = 0 mod p forces c0 invertible mod p; use the other entry.
        kbar = (ma - a0) * pow(c0, -1, p) % p
    a1, b1 = a0 + kbar * c0, b0 + kbar * d0
    lift = ((a1, b1), (c0, d0))
    assert a1 * d0 - b1 * c0 == 1
    assert (a1 - ma) % p == 0 and (b1 - mb) % p == 0
    assert (c0 - mc) % p == 0 and (d0 - md) % p == 0
    assert c0 % level == 0
    return lift


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    if m2 == 1:
        return r1 % m1
    g, x, _ = _xgcd(m1, m2)
    assert g == 1
    return (r1 + (r2 - r1) * x % m2 * m1) % (m1 * m2)


class NotComposableError(ValueError):
    """Internal composition failure; cannot happen for primitive forms of equal disc."""


def compose(x: BinaryForm, y: BinaryForm) -> BinaryForm:
    """Reduced composition of two primitive forms of equal discriminant."""
    if x.disc() != y.disc():
        raise ValueError("discriminant mismatch")
    if not (x.is_primitive() and y.is_primitive()):
        raise ValueError("composition needs primitive forms")
    if x.a > y.a:
        x, y = y, x
    a1, b1 = x.a, x.b
    a2, b2, c2 = y.a, y.b, y.c
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, u, _ = _xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1, u, v = _xgcd(s, d)
        x2, y2 = u, -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    num = c2 * d1 + r * (b2 + v2 * r)
    if num % v1:
        raise NotComposableError("composition bookkeeping failed")
    c3 = num // v1
    return reduce_form(BinaryForm(a3, b3, c3))


def form_inverse(form: BinaryForm) -> BinaryForm:
    return reduce_form(BinaryForm(form.a, -form.b, form.c))


class ClassGroup:
    """Pic of the order of the given discriminant, as reduced forms plus tables."""

    def __init__(self, disc: int):
        self.disc = disc
        self.elements = reduced_forms(disc)
        self._index = {f: i for i, f in enumerate(self.elements)}
        self.identity_index = self._index[principal_form(disc)]
        self._table: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, form: BinaryForm) -> int:
        return self._index[reduce_form(form)]

    def compose_idx(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        got = self._table.get(key)
        if got is None:
            got = self._index[compose(self.elements[i], self.elements[j])]
            self._table[key] = got
        return got

    def cayley(self) -> list[list[int]]:
        n = len(self.elements)
        return [[self.compose_idx(i, j) for j in range(n)] for i in range(n)]

    def inverse_idx(self, i: int) -> int:
        return self._index[form_inverse(self.elements[i])]

    def order_of(self, i: int) -> int:
        k, j = 1, i
        while j != self.identity_index:
            j = self.compose_idx(j, i)
            k += 1
        return k


def class_to_proj(order: QuadOrder, p: int, lam: tuple[int, int]) -> tuple[int, int]:
    """Canonical P^1(F_p) class of the unit x1 + x2*w_f; rejects (0, 0) mod p."""
    x1, x2 = lam
    if x1 % p == 0 and x2 % p == 0:
        raise ValueError("both coordinates vanish mod p")
    norm = (x1 * x1 + order.t * x1 * x2 + order.n * x2 * x2) % p
    assert norm != 0, "unit norm vanished at an inert prime"
    return proj_class(p, x1, x2)


def proj_inverse(params, u) -> tuple[int, int]:
    # Conjugation: the inverse of x1 + x2*w is its conjugate up to norm scaling,
    # i.e. [x1 + t*x2 : -x2].
    p, t, _ = params
    return proj_class(p, u[0] + t * u[1], -u[1])


def recognize_algebraic(x, field_disc: int | None, degree_bound: int,
                        height_bound: int, digits: int) -> AlgebraicNumber | tuple | None:
    """Exact value of x: rational, quadratic over Q(sqrt(field_disc)), or an
    integer minimal polynomial of degree <= degree_bound found by PSLQ.  The
    rational and quadratic reads take recognize's height at `digits`;
    height_bound bounds the PSLQ coefficients.

    Returns an AlgebraicNumber, a coefficient tuple (leading first), or None.
    """
    if digits < 3 * height_bound:
        raise ValueError("working precision must be at least three times the height bound")
    with mp.workdps(digits):
        x = mp.mpc(x)
        tol = mp.mpf(10) ** (-digits / 2)
        if abs(x.imag) < tol:
            frac = recognize_rational(x.real, digits)
            if frac is not None:
                return AlgebraicNumber(frac.numerator, 0, frac.denominator, None)
        if field_disc is not None:
            quad = recognize_in_quadratic(x, field_disc, digits)
            if quad is not None:
                return quad
        # Generic integer relation on powers of x (real values only).
        if abs(x.imag) < tol:
            xr = x.real
            for deg in range(2, degree_bound + 1):
                powers = [xr ** k for k in range(deg + 1)]
                rel = mp.pslq(powers, maxcoeff=10 ** height_bound,
                              tol=mp.mpf(10) ** (-digits + 6))
                if rel is None:
                    continue
                val = sum(c * t for c, t in zip(rel, powers))
                if abs(val) < tol:
                    return tuple(int(c) for c in reversed(rel))
        return None


def minpoly(num: AlgebraicNumber) -> tuple[int, ...]:
    """Coefficients (monic up to content) of an integer polynomial vanishing here."""
    if num.mu == 0 or num.field_disc is None:
        return (num.den, -num.nu)
    # (den*x - nu)^2 = mu^2 * field_disc
    c2 = num.den * num.den
    c1 = -2 * num.den * num.nu
    c0 = num.nu * num.nu - num.mu * num.mu * num.field_disc
    g = gcd(gcd(c2, abs(c1)), abs(c0))
    return (c2 // g, c1 // g, c0 // g)


def root_number(model: CurveModel) -> int:
    """Sign of the functional equation, -1 times the Fricke eigenvalue."""
    return -atkin_lehner_sign(model.minimal, model.n, model.n)


def reduced_basis(lat: PeriodLattice) -> tuple:
    """(b1, b2) of lat.reduction, at the working precision."""
    (p, q), (r, s) = lat.reduction
    return p * lat.w1 + q * lat.w2, r * lat.w1 + s * lat.w2


def nearest_vector(lat: PeriodLattice, z) -> tuple[int, int]:
    """(i, j) with i w1 + j w2 the lattice vector nearest to z: the nearest corner
    of periods.locate(lat, z), mapped to (w1, w2) by the integer rows of
    lat.reduction, with no budget; cmtrace.periods.read_vector reads the same
    vector and accepts it only within its budget."""
    _, i, j = next(_nearest_multiples(locate(lat, z), 1))
    (p, q), (r, s) = lat.reduction
    return i * p + j * r, i * q + j * s


def nearest_multiples_expanded(point, bound: int):
    """periods._nearest_multiples by a second route: each of the four corners
    (i, j) of the cell of m (x, y) / 2^F expanded on its own, m^2 Q(x, y)
    - 2^(F+1) m B((x, y), (i, j)) + 4^F Q(i, j)."""
    _, x, y, cut = point
    frac, (g11, g12, g22) = cut.frac, cut.gram
    ax, bx = g11 * x + g12 * y, g12 * x + g22 * y
    qxy = x * ax + y * bx
    for m in range(1, bound + 1):
        i0, j0 = (m * x) >> frac, (m * y) >> frac
        yield min((m * m * qxy - ((m * (i * ax + j * bx)) << (frac + 1))
                   + (((g11 * i + 2 * g12 * j) * i + g22 * j * j) << (2 * frac)), i, j)
                  for i in (i0, i0 + 1) for j in (j0, j0 + 1))


def _torsion_limit(point) -> int:
    """The torsion test's limit ceil((10^(-digits/2) |w1|)^2 2^-shift), made
    anew in mpmath at each call."""
    lat = point.lat
    with mp.workdps(lat.digits + LATTICE_GUARD):
        radius = mp.mpf(10) ** (-lat.digits / 2) * abs(lat.w1)
        return int(mp.ceil(mp.ldexp(radius ** 2, -point.cut.shift)))


def torsion_order_two_pass(point):
    """The least m <= TORSION_BOUND with m z within 10^(-digits/2) |w1| of the
    lattice, by its own pass over the multiples from m = 1, against a limit
    made anew (the order of periods' one scan)."""
    limit = _torsion_limit(point)
    for m, (n, _, _) in enumerate(nearest_multiples_expanded(point, TORSION_BOUND), 1):
        if n < limit:
            return m
    return None


def torsion_residual_two_pass(point):
    """The least distance of m z to the lattice over m <= TORSION_BOUND, by a
    second, full pass over the multiples (periods.torsion_residual)."""
    n = min(n for n, _, _ in nearest_multiples_expanded(point, TORSION_BOUND))
    with mp.workdps(point.lat.digits + LATTICE_GUARD):
        return mp.sqrt(mp.ldexp(n, point.cut.shift))


def lattice_reduce(lat: PeriodLattice, z):
    """z minus the lattice vector nearest to it, at the working precision."""
    i, j = nearest_vector(lat, z)
    return mp.mpc(z) - i * lat.w1 - j * lat.w2


def lattice_distance(lat: PeriodLattice, z):
    return abs(lattice_reduce(lat, z))


def form_pow(x: BinaryForm, k: int) -> BinaryForm:
    acc = principal_form(x.disc())
    base = reduce_form(x) if k >= 0 else form_inverse(x)
    k = abs(k)
    while k:
        if k & 1:
            acc = compose(acc, base)
        base = compose(base, base)
        k >>= 1
    return acc


def proj_pow(params, u, k: int) -> tuple[int, int]:
    acc = (1, 0)
    base = u
    if k < 0:
        base = proj_inverse(params, u)
        k = -k
    while k:
        if k & 1:
            acc = proj_mul(params, acc, base)
        base = proj_mul(params, base, base)
        k >>= 1
    return acc


def element_order(params, u) -> int:
    acc = u
    for k in range(1, params[0] + 2):
        if acc == (1, 0):
            return k
        acc = proj_mul(params, acc, u)
    raise AssertionError("order exceeds group size")

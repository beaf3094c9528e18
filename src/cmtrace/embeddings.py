"""Optimal embeddings of quadratic orders into Cartan orders at p, and the
finite coset combinatorics they induce.

The order generator, with characteristic polynomial X^2 - tX + n, goes to
iota_omega = (t/2, s; eps*s, t/2) in the non-split Cartan order, with
eps*s^2 = (t^2 - 4n)/4.  That matrix has the same characteristic polynomial
as the companion matrix of X^2 - tX + n, which is irreducible at an inert p,
so the two are conjugate in GL_2(F_p), and even in SL_2(F_p): the
determinant is surjective on the centralizer F_p[companion]^x = F_{p^2}^x.
On top of that sit the coset labels of the split normalizer, each a
row-major 4-tuple of entries computed in closed form, and the two-to-one
fiber structure over P^1(F_p) whose fiber partners differ by the unique
involution.  No routine here lists a Cartan subgroup, SL_2(F_p) or
P^1(F_p), or multiplies matrices; the tests check the closed forms against
such enumerations and matrix routes, the SL_2 conjugator included
(tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CmtraceError, InputError
from .fp import FpMatrix, FpParams, in_cartan_group, kronecker, sqrt_mod_p
from .projline import ProjClass, involution_class, proj_mul
from .quadforms import QuadOrder, proj_params


class EmbeddingError(InputError):
    pass


class FiberStructureError(CmtraceError, AssertionError):
    """The two-to-one fiber structure failed; indicates corrupted inputs."""


@dataclass(frozen=True)
class EmbeddingData:
    """Matrix-level data of an optimal embedding at p.

    iota_omega is the image of the order generator: the element
    (t/2, s; eps*s, t/2) of C_ns with trace t and determinant n mod p, whose
    off-diagonal entries are nonzero (module docstring).
    """

    params: FpParams
    order: QuadOrder
    iota_omega: FpMatrix


def build_embedding(params: FpParams, order: QuadOrder) -> EmbeddingData:
    """Construct the embedding data for an inert prime p coprime to f."""
    p, eps = params.p, params.eps
    # p | f puts p^2 into the discriminant, which the inertness test would
    # misread as a square mod p, so it is named first
    if order.f % p == 0:
        raise EmbeddingError(f"p = {p} divides the conductor f = {order.f}")
    if kronecker(order.disc, p) != -1:
        raise EmbeddingError(f"p = {p} is not inert (discriminant is a square mod p)")
    # eps*s^2 = (t^2-4n)/4: the right side is a non-square times the inverse
    # of a square, so s exists, and s != 0
    t, n = order.t % p, order.n % p
    half_t = t * pow(2, -1, p)
    s = sqrt_mod_p((t * t - 4 * n) * pow(4 * eps, -1, p), p)
    return EmbeddingData(params=params, order=order,
                         iota_omega=FpMatrix(p, half_t, s, eps * s, half_t))


def verify_optimal(emb: EmbeddingData) -> bool:
    """Optimality at p: generator lands in C_ns, and p divides neither
    off-diagonal entry (which is what forces integrality of split-side
    coefficients)."""
    p = emb.params.p
    io = emb.iota_omega
    if not in_cartan_group(io, "ns", emb.params):
        return False
    if io.b == 0 or io.c == 0:
        return False
    if io.charpoly_coeffs() != (emb.order.t % p, emb.order.n % p):
        return False
    if (2 * io.a - emb.order.t) % p != 0:
        return False
    return True


def galois_matrix(emb: EmbeddingData, x1: int, x2: int) -> FpMatrix:
    """The matrix x1*I + x2*iota_omega; invertible whenever (x1, x2) != (0, 0)."""
    p = emb.params.p
    if x1 % p == 0 and x2 % p == 0:
        raise InputError("zero pair")
    a, b, c, d = emb.iota_omega.entries
    m = FpMatrix(p, x1 + x2 * a, x2 * b, x2 * c, x1 + x2 * d)
    assert m.is_invertible(), "norm form vanished at an inert prime"
    return m


def lemma_converse_check(emb: EmbeddingData) -> bool:
    """Whether the matrices x1*I + x2*iota_omega, [x1 : x2] in P^1(F_p), fall
    in the split-normalizer pattern (diagonal or antidiagonal) exactly at the
    identity class [1 : 0] and the involution class [-a : 1].

    With iota_omega = (a, b; c, d) the matrix is (x1 + x2 a, x2 b; x2 c,
    x1 + x2 d).  When b = c = 0 every class gives a diagonal matrix, p + 1 > 2
    hits.  Otherwise it is diagonal exactly when x2 = 0, at [1 : 0], and
    antidiagonal exactly when x2 != 0 and x1 = -x2 a = -x2 d, which has a
    solution, [-a : 1], exactly when a = d.  So the two hits are the expected
    ones exactly when (b, c) != (0, 0) and a = d; the tests compare this with
    the scan of P^1(F_p)."""
    a, b, c, d = emb.iota_omega.entries
    return (b, c) != (0, 0) and a == d


def _label_entries(p: int, a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The entries of the coset label of g = (a, b; c, d), row-major, in [0, p):
    the lexicographically minimal determinant-one element of C_s+ * g^{-1}.

    C_s+ holds the scalars, so C_s+ * g^{-1} = C_s+ * h for the adjugate
    h = (d, -b; -c, a), of determinant delta = det(g).  The determinant-one
    elements of the diagonal part are diag(x, 1/(x delta)) * h =
    (xd, -xb; -c/(x delta), a/(x delta)), and those of the antidiagonal part
    are (0, x; -1/(x delta), 0) * h = (-xc, xa; -d/(x delta), b/(x delta)).
    Each part has its minimum at the one x that makes the first nonzero entry
    of the top row 1, x = 1/lead; the label is the smaller of those two.
    """
    delta = (a * d - b * c) % p
    if delta == 0:
        raise InputError("coset labels are defined for invertible matrices")
    dinv = pow(delta, -1, p)
    lead = d % p or -b % p
    x = pow(lead, -1, p)
    diag = (x * d % p, -x * b % p, -c * lead * dinv % p, a * lead * dinv % p)
    lead = -c % p or a % p
    x = pow(lead, -1, p)
    anti = (-x * c % p, x * a % p, -d * lead * dinv % p, b * lead * dinv % p)
    return min(diag, anti)


def two_to_one_check(emb: EmbeddingData,
                     classes) -> dict[tuple[int, int, int, int], list[ProjClass]]:
    """Map each kernel class x1 + x2*w_f to the coset label of its matrix
    x1*I + x2*iota_omega, the 4-tuple of _label_entries (which raises if the
    matrix is singular).  The classes must be the p + 1 kernel classes of
    the embedding's order, each of discriminant p^2 times the order's.
    Enforces the expected structure: (p+1)/2 distinct labels, every fiber of
    size exactly two, and fiber partners differing by the involution class.
    """
    p = emb.params.p
    disc = p * p * emb.order.disc
    if len(classes) != p + 1 or any(kc.form.disc() != disc for kc in classes):
        raise InputError("kernel classes and embedding disagree on (order, p)")
    a, b, c, d = emb.iota_omega.entries
    fibers: dict[tuple[int, int, int, int], list[ProjClass]] = {}
    for kc in classes:
        x1, x2 = kc.proj.x1, kc.proj.x2
        label = _label_entries(p, x1 + x2 * a, x2 * b, x2 * c, x1 + x2 * d)
        fibers.setdefault(label, []).append(kc.proj)
    if len(fibers) != (p + 1) // 2:
        raise FiberStructureError(f"expected {(p + 1) // 2} labels, got {len(fibers)}")
    pp = proj_params(emb.order, p)
    invol = involution_class(pp, a)
    for label, classes in fibers.items():
        if len(classes) != 2:
            raise FiberStructureError(f"fiber of {label} has size {len(classes)}")
        if proj_mul(pp, classes[0], invol) != classes[1]:
            raise FiberStructureError("fiber partners do not differ by the involution")
    return fibers


def signo_pairing_check(emb: EmbeddingData) -> bool:
    """The involution's matrix factors through J = (0,1;-1,0) times a split
    element, i.e. it lies in C_s+ but not C_s.

    With iota_omega = (a, b; c, d) that matrix is w = galois_matrix(emb, -a, 1)
    = (0, b; c, d - a).  It lies in C_s+ and not in C_s exactly when it is
    antidiagonal and invertible, that is when a = d and bc != 0, and then
    J^-1 w = (-c, 0; 0, b) is diagonal and invertible.  The tests compare
    this with the matrix route (tests/oracles.py)."""
    a, b, c, d = emb.iota_omega.entries
    return a == d and b * c % emb.params.p != 0


def find_common_norm_element(params: FpParams, l: int) -> FpMatrix:
    """Element of C_s+ cap C_ns+ with determinant l: a scalar when l is a
    square, an antidiagonal (0, b; -eps*b, 0) with eps*b^2 = l otherwise."""
    p, eps = params.p, params.eps
    l %= p
    if l == 0:
        raise InputError("determinant must be a unit")
    if kronecker(l, p) == 1:
        mu = sqrt_mod_p(l, p)
        out = FpMatrix(p, mu, 0, 0, mu)
    else:
        b = sqrt_mod_p(l * pow(eps, -1, p) % p, p)
        out = FpMatrix(p, 0, b, -eps * b, 0)
    assert out.det() == l
    assert in_cartan_group(out, "ns+", params) and in_cartan_group(out, "s+", params)
    return out

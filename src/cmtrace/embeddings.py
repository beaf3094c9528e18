"""Optimal embeddings of quadratic orders into Cartan orders at p, and the
finite coset combinatorics they induce.

The conjugation step sends the companion matrix of X^2 - tX + n mod p into the
non-split Cartan subgroup by an SL_2(F_p) conjugator (possible because the
determinant is surjective on the centralizer).  On top of that sit canonical
labels for the cosets of the split normalizer, computed in closed form, and
the two-to-one fiber structure over P^1(F_p) whose fiber partners differ by
the unique involution.  No routine here lists a Cartan subgroup or SL_2(F_p);
the tests check the closed forms against such enumerations (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .fp import FpMatrix, FpParams, identity, in_cartan_group, legendre, sqrt_mod_p
from .projline import ProjClass, involution_class, proj_class, proj_elements, proj_mul
from .quadforms import GaloisKernel, QuadOrder, proj_params


class EmbeddingError(ValueError):
    pass


class FiberStructureError(AssertionError):
    """The two-to-one fiber structure failed; indicates corrupted inputs."""


@dataclass(frozen=True)
class EmbeddingData:
    """Matrix-level data of an optimal embedding at p.

    iota_omega is the image of the order generator: an element of C_ns with
    trace t and determinant n mod p, off-diagonal entries nonzero, obtained by
    conjugating the companion matrix a0 by gamma_bar in SL_2(F_p).  level_m
    records the prime-to-p part of the ambient order's discriminant.
    """

    params: FpParams
    order: QuadOrder
    level_m: int
    a0: FpMatrix
    gamma_bar: FpMatrix
    iota_omega: FpMatrix

    @property
    def a(self) -> int:
        return self.iota_omega.a

    @property
    def b(self) -> int:
        return self.iota_omega.b

    @property
    def c(self) -> int:
        return self.iota_omega.c

    @property
    def d(self) -> int:
        return self.iota_omega.d

    def proj_params(self):
        return proj_params(self.order, self.params.p)


@dataclass(frozen=True, order=True)
class CosetLabel:
    """Canonical representative of the SL_2 part of the coset C_s+ * g^{-1}."""

    rep: FpMatrix


def build_embedding(params: FpParams, order: QuadOrder, level_m: int = 1) -> EmbeddingData:
    """Construct the embedding data for an inert prime p coprime to f * level_m."""
    p, eps = params.p, params.eps
    if legendre(order.disc % p, p) != -1:
        raise EmbeddingError(f"p = {p} is not inert (discriminant is a square mod p)")
    if gcd(p, order.f * level_m) != 1:
        raise EmbeddingError("p must be coprime to the conductor and to level_m")
    t, n = order.t % p, order.n % p
    a0 = FpMatrix(p, 0, -n, 1, t)
    # Target in C_ns: (t/2, s; eps*s, t/2) with eps*s^2 = (t^2-4n)/4; the
    # right side is a non-square times the inverse of a square, so s exists.
    inv2 = pow(2, -1, p)
    dd = (t * t - 4 * n) % p
    s = sqrt_mod_p(dd * pow(4 * eps, -1, p) % p, p)
    target = FpMatrix(p, t * inv2, s, eps * s, t * inv2)
    assert target.charpoly_coeffs() == (t, n)

    # Any conjugator from a0 to target is a centralizer multiple z = u + v*a0
    # of one of them; z must have norm u^2 + t*u*v + n*v^2 = det(g0) to land
    # us in SL_2.  Solved for u, that needs v^2 (t^2 - 4n) + 4 det(g0) to be a
    # square: at v = 0 when det(g0) is a square, else for about half of all v.
    g0 = FpMatrix(p, 1, target.a, 0, target.c)      # columns e1, target*e1
    need = g0.det()
    v = next(v for v in range(p) if legendre(v * v * dd + 4 * need, p) != -1)
    u = (sqrt_mod_p(v * v * dd + 4 * need, p) - t * v) * inv2
    z = FpMatrix(p, u, -n * v, v, u + t * v)         # u*I + v*a0
    gamma_bar = z.mul(g0.inv())
    assert gamma_bar.det() == 1
    iota = gamma_bar.inv().mul(a0).mul(gamma_bar)
    assert iota == target
    emb = EmbeddingData(params=params, order=order, level_m=level_m,
                        a0=a0, gamma_bar=gamma_bar, iota_omega=iota)
    assert verify_optimal(emb)
    return emb


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
        raise ValueError("zero pair")
    m = identity(p).scale(x1).add(emb.iota_omega.scale(x2))
    assert m.is_invertible(), "norm form vanished at an inert prime"
    return m


def lemma_converse_check(emb: EmbeddingData) -> bool:
    """Scan P^1(F_p): membership in the split-normalizer pattern happens exactly
    at the identity class and the involution class [-a : 1]."""
    p = emb.params.p
    expected = {proj_class(p, 1, 0), proj_class(p, -emb.a, 1)}
    hits = set()
    for pt in proj_elements(p):
        m = galois_matrix(emb, pt.x1, pt.x2)
        if (m.is_diagonal() or m.is_antidiagonal()):
            hits.add(pt)
    return hits == expected


def coset_label(g: FpMatrix) -> CosetLabel:
    """Lexicographically minimal determinant-one element of C_s+ * g^{-1}.

    For det(g) = 1 this is the minimum of the coset (C_s+ cap SL_2) * g^{-1}.
    Write g^{-1} = (a, b; c, d) and delta = det(g).  The diagonal part of the
    coset is diag(x, delta/x) * g^{-1} = (xa, xb; (delta/x)c, (delta/x)d) and
    the antidiagonal part is (0, x; -delta/x, 0) * g^{-1} =
    (xc, xd; -(delta/x)a, -(delta/x)b).  Each part has its minimum at the one
    x that makes the first nonzero entry of the top row 1; the label is the
    smaller of those two matrices.
    """
    p = g.p
    delta = g.det()
    if delta == 0:
        raise ValueError("coset labels are defined for invertible matrices")
    a, b, c, d = g.inv().entries
    lead_ab, lead_cd = a or b, c or d        # 1/x for the two parts
    x_ab, x_cd = pow(lead_ab, -1, p), pow(lead_cd, -1, p)
    diag = FpMatrix(p, x_ab * a, x_ab * b, delta * lead_ab * c, delta * lead_ab * d)
    anti = FpMatrix(p, x_cd * c, x_cd * d, -delta * lead_cd * a, -delta * lead_cd * b)
    return CosetLabel(rep=min(diag, anti))


def two_to_one_check(emb: EmbeddingData, kernel: GaloisKernel) -> dict[CosetLabel, list[ProjClass]]:
    """Map each kernel class x1 + x2*w_f to the coset label of its matrix
    x1*I + x2*iota_omega.

    Enforces the expected structure: (p+1)/2 distinct labels, every fiber of
    size exactly two, and fiber partners differing by the involution class.
    """
    p = emb.params.p
    if kernel.p != p or kernel.order != emb.order:
        raise ValueError("kernel and embedding disagree on (order, p)")
    fibers: dict[CosetLabel, list[ProjClass]] = {}
    for kc in kernel.classes:
        x1, x2 = kc.generator
        label = coset_label(galois_matrix(emb, x1, x2))
        fibers.setdefault(label, []).append(kc.proj)
    if len(fibers) != (p + 1) // 2:
        raise FiberStructureError(f"expected {(p + 1) // 2} labels, got {len(fibers)}")
    pp = emb.proj_params()
    invol = involution_class(pp, emb.a)
    for label, classes in fibers.items():
        if len(classes) != 2:
            raise FiberStructureError(f"fiber of {label} has size {len(classes)}")
        if proj_mul(pp, classes[0], invol) != classes[1]:
            raise FiberStructureError("fiber partners do not differ by the involution")
    return fibers


def signo_pairing_check(emb: EmbeddingData) -> bool:
    """The involution's matrix factors through (0,1;-1,0) times a split element,
    i.e. it lies in C_s+ but not C_s."""
    params = emb.params
    p = params.p
    w = galois_matrix(emb, -emb.a, 1)
    if not (in_cartan_group(w, "s+", params) and not in_cartan_group(w, "s", params)):
        return False
    j = FpMatrix(p, 0, 1, -1, 0)
    sigma = j.inv().mul(w)
    return sigma.is_diagonal() and sigma.is_invertible()


def find_common_norm_element(params: FpParams, l: int) -> FpMatrix:
    """Element of C_s+ cap C_ns+ with determinant l: a scalar when l is a
    square, an antidiagonal (0, b; -eps*b, 0) with eps*b^2 = l otherwise."""
    p, eps = params.p, params.eps
    l %= p
    if l == 0:
        raise ValueError("determinant must be a unit")
    if legendre(l, p) == 1:
        mu = sqrt_mod_p(l, p)
        out = FpMatrix(p, mu, 0, 0, mu)
    else:
        b = sqrt_mod_p(l * pow(eps, -1, p) % p, p)
        out = FpMatrix(p, 0, b, -eps * b, 0)
    assert out.det() == l
    assert in_cartan_group(out, "ns+", params) and in_cartan_group(out, "s+", params)
    return out

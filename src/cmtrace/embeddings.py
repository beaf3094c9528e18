"""Optimal embeddings of quadratic orders into Cartan orders at p, and the
finite coset combinatorics they induce.

The order generator, with characteristic polynomial X^2 - tX + n, goes to
iota_omega = (t/2, s; eps*s, t/2) in the non-split Cartan order, with
eps*s^2 = (t^2 - 4n)/4.  That matrix has the same characteristic polynomial
as the companion matrix of X^2 - tX + n, which is irreducible at an inert p,
so the two are conjugate in GL_2(F_p), and even in SL_2(F_p): the
determinant is surjective on the centralizer F_p[companion]^x = F_{p^2}^x.
On top of that sit the coset labels of the split normalizer, and the
two-to-one fiber structure over P^1(F_p) whose fiber partners differ by
the unique involution.  A matrix is a row-major 4-tuple of residues, and
every routine reads it in closed form: none lists a Cartan subgroup,
SL_2(F_p) or P^1(F_p), or multiplies matrices.  The tests check the closed
forms against such enumerations and matrix routes, the SL_2 conjugator
included (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CmtraceError, InputError
from .fp import isprime, kronecker, smallest_nonsquare, sqrt_mod_p
from .quadforms import QuadOrder


class EmbeddingError(InputError):
    pass


class FiberStructureError(CmtraceError, AssertionError):
    """The two-to-one fiber structure failed; indicates corrupted inputs."""


@dataclass(frozen=True)
class EmbeddingData:
    """Matrix-level data of an optimal embedding at the odd prime p, with
    eps the smallest non-square mod p.

    iota_omega is the image of the order generator: the element
    (t/2, s; eps*s, t/2) of C_ns with trace t and determinant n mod p, whose
    off-diagonal entries are nonzero (module docstring), as the row-major
    4-tuple of its entries in [0, p).
    """

    p: int
    eps: int
    order: QuadOrder
    iota_omega: tuple[int, int, int, int]


def build_embedding(p: int, order: QuadOrder) -> EmbeddingData:
    """Construct the embedding data for an inert prime p coprime to f."""
    if p < 3 or not isprime(p):
        raise InputError(f"p must be an odd prime, got {p}")
    eps = smallest_nonsquare(p)
    # p | f puts p^2 into the discriminant, which the inertness test would
    # misread as a square mod p, so it is named first
    if order.f % p == 0:
        raise EmbeddingError(f"p = {p} divides the conductor f = {order.f}")
    if kronecker(order.disc, p) != -1:
        raise EmbeddingError(f"p = {p} is not inert (discriminant is a square mod p)")
    # eps*s^2 = (t^2-4n)/4: the right side is a non-square times the inverse
    # of a square, so s exists, and s != 0
    t, n = order.t % p, order.n % p
    half_t = t * pow(2, -1, p) % p
    s = sqrt_mod_p((t * t - 4 * n) * pow(4 * eps, -1, p), p)
    return EmbeddingData(p=p, eps=eps, order=order, iota_omega=(half_t, s, eps * s % p, half_t))


def verify_optimal(emb: EmbeddingData) -> bool:
    """Optimality at p: the generator lands in the group C_ns, that is
    a = d, c = eps*b and det != 0 for iota_omega = (a, b; c, d), with the
    order's trace t = a + d = 2a and norm n as its trace and determinant,
    and p divides neither off-diagonal entry (which is what forces
    integrality of split-side coefficients)."""
    p, (a, b, c, d) = emb.p, emb.iota_omega
    det = (a * d - b * c) % p
    in_ns = (a - d) % p == 0 and (c - emb.eps * b) % p == 0 and det != 0
    return (in_ns and b % p != 0 and c % p != 0 and (2 * a - emb.order.t) % p == 0
            and (det - emb.order.n) % p == 0)


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
    p, (a, b, c, d) = emb.p, emb.iota_omega
    return (b % p, c % p) != (0, 0) and (a - d) % p == 0


def inverse_table(p: int) -> list[int]:
    """The inverses mod the prime p as a list: inv[i] * i = 1 mod p for
    0 < i < p, and inv[0] = 0.

    O(p), one product per entry, by inv[i] = -(p // i) * inv[p mod i] mod p:
    from p = (p // i) * i + (p mod i), reading mod p gives
    (p mod i) = -(p // i) * i, and p mod i lies in (0, i) since the prime p
    has no divisor i in (1, p), so its inverse is already in the table;
    multiplying by inv[p mod i] * inv[i] gives inv[i] = -(p // i) * inv[p mod i].
    """
    inv = [0, 1]
    for i in range(2, p):
        inv.append(-(p // i) * inv[p % i] % p)
    return inv


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


def two_to_one_check(emb: EmbeddingData,
                     classes) -> dict[tuple[int, int, int, int], list[tuple[int, int]]]:
    """Map each kernel class x1 + x2*w_f to the coset label of its matrix
    x1*I + x2*iota_omega, the 4-tuple of _label_entries (which raises if the
    matrix is singular).  Every inverse is read from one table built here,
    inverse_table(p), by inv[i] = -(p // i) inv[p mod i] mod p (proved from
    p = (p // i) i + (p mod i) in its docstring), one product per entry and
    no modular exponentiation per class.  The classes must be the p + 1
    kernel classes of the embedding's order, each of discriminant p^2 times
    the order's.  Enforces the expected structure: (p+1)/2 distinct labels,
    every fiber of size exactly two, and fiber partners differing by the
    involution class [-a : 1], a = t/2 the diagonal entry of iota_omega.

    The mate check is the group law of P^1(F_p) (quadforms docstring) with
    y = [-a : 1] and t = 2a in closed form:

        [x1 : x2] * [-a : 1] = [-a x1 - n x2 : x1 - a x2 + t x2]
                             = [-a x1 - n x2 : x1 + a x2],

    and a mate [y1 : y2] is that point exactly when y1 (x1 + a x2) =
    y2 (-a x1 - n x2) mod p, with no inverse taken.
    """
    p, n = emb.p, emb.order.n
    disc = p * p * emb.order.disc
    if len(classes) != p + 1 or any(kc.form.disc() != disc for kc in classes):
        raise InputError("kernel classes and embedding disagree on (order, p)")
    a, b, c, d = emb.iota_omega
    if (2 * a - emb.order.t) % p:
        raise InputError(f"2a = {2 * a % p} differs from t = {emb.order.t % p} mod {p}")
    inv = inverse_table(p)
    fibers: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
    for kc in classes:
        x1, x2 = kc.proj
        label = _label_entries(inv, x1 + x2 * a, x2 * b, x2 * c, x1 + x2 * d)
        fibers.setdefault(label, []).append(kc.proj)
    if len(fibers) != (p + 1) // 2:
        raise FiberStructureError(f"expected {(p + 1) // 2} labels, got {len(fibers)}")
    for label, mates in fibers.items():
        if len(mates) != 2:
            raise FiberStructureError(f"fiber of {label} has size {len(mates)}")
        (x1, x2), (y1, y2) = mates
        if (y1 * (x1 + a * x2) - y2 * (-a * x1 - n * x2)) % p:
            raise FiberStructureError("fiber partners do not differ by the involution")
    return fibers


def signo_pairing_check(emb: EmbeddingData) -> bool:
    """The involution's matrix factors through J = (0,1;-1,0) times a split
    element, i.e. it lies in C_s+ but not C_s.

    With iota_omega = (a, b; c, d) that matrix is w = -a*I + iota_omega
    = (0, b; c, d - a).  It lies in C_s+ and not in C_s exactly when it is
    antidiagonal and invertible, that is when a = d and bc != 0, and then
    J^-1 w = (-c, 0; 0, b) is diagonal and invertible.  The tests compare
    this with the matrix route (tests/oracles.py)."""
    p, (a, b, c, d) = emb.p, emb.iota_omega
    return (a - d) % p == 0 and b * c % p != 0


def find_common_norm_element(p: int, l: int) -> tuple[int, int, int, int]:
    """Element of C_s+ cap C_ns+ with determinant l, as a row-major 4-tuple
    in [0, p): a scalar when l is a square, an antidiagonal (0, b; -eps*b, 0)
    with eps*b^2 = l otherwise, eps the smallest non-square mod the odd
    prime p."""
    if p < 3 or not isprime(p):
        raise InputError(f"p must be an odd prime, got {p}")
    eps = smallest_nonsquare(p)
    l %= p
    if l == 0:
        raise InputError("determinant must be a unit")
    if kronecker(l, p) == 1:
        mu = sqrt_mod_p(l, p)
        return (mu, 0, 0, mu)
    b = sqrt_mod_p(l * pow(eps, -1, p) % p, p)
    return (0, b, -eps * b % p, 0)

"""Optimal embeddings of quadratic orders into Cartan orders at p, and the
finite coset combinatorics they induce.

The order generator, with characteristic polynomial X^2 - tX + n, goes to
iota_omega = (t/2, s; eps*s, t/2) in the non-split Cartan order, with
eps*s^2 = (t^2 - 4n)/4.  That matrix has the same characteristic polynomial
as the companion matrix of X^2 - tX + n, which is irreducible at an inert p,
so the two are conjugate in GL_2(F_p), and even in SL_2(F_p): the
determinant is surjective on the centralizer F_p[companion]^x = F_{p^2}^x.
On top of that sit the coset labels of the split normalizer, and the
two-to-one fiber structure over P^1(F_p) whose fiber partners differ by the
unique involution.  A matrix is a row-major 4-tuple of residues, and every
routine reads it in closed form: none lists a Cartan subgroup or SL_2(F_p),
or multiplies matrices; two_to_one_check walks P^1(F_p) once.  The tests
check the closed forms against such enumerations and matrix routes, the SL_2
conjugator and the label of any invertible matrix included (tests/oracles.py).

The coset label of an invertible g is the lexicographically least
determinant-one element of C_s+ * g^{-1}.  two_to_one_check labels only the
identity, at [1 : 0], and the pencil g = x1*I + iota_omega = (u, b; c, u),
u = x1 + a, at [x1 : 1].  C_s+ holds the scalars, so C_s+ * g^{-1} = C_s+ * h
for the adjugate h = (u, -b; -c, u), of determinant delta = u^2 - bc, which
is nonzero because bc = eps*s^2 is a non-square.  The determinant-one
elements of C_s+ * h are diag(x, 1/(x delta)) * h = (xu, -xb; -c/(x delta),
u/(x delta)) and (0, x; -1/(x delta), 0) * h = (-xc, xu; -u/(x delta),
b/(x delta)), and each part is least at the one x that makes the first
nonzero entry of its top row 1.  As c != 0, that is x = -1/c in the
antidiagonal part, (1, -u/c, cu/delta, -bc/delta), and for u != 0 it is
x = 1/u in the diagonal part, (1, -b/u, -cu/delta, u^2/delta).  Both start
with 1, so the label is the diagonal one exactly when -b/u < -u/c as residues
in [0, p); they never tie, since -b/u = -u/c would mean u^2 = bc.  At u = 0
the diagonal part is least at x = -1/b, (0, 1, bc/delta, 0) = (0, 1, p - 1, 0)
as delta = -bc, below the antidiagonal one, which starts with 1.  The identity
has that label too: its parts are least at (1, 0, 0, 1) and (0, 1, p - 1, 0).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CmtraceError, InputError
from .fp import QuadOrder, check_hypotheses, kronecker, smallest_nonsquare, sqrt_mod_p


class FiberStructureError(CmtraceError, AssertionError):
    """The two-to-one fiber structure failed; indicates corrupted inputs."""


class EmbeddingData(namedtuple("EmbeddingData", "p eps order iota_omega")):
    """Matrix-level data of an optimal embedding at the odd prime p, with
    eps the smallest non-square mod p.

    iota_omega is the image of the order generator: the element
    (t/2, s; eps*s, t/2) of C_ns with trace t and determinant n mod p, whose
    off-diagonal entries are nonzero (module docstring), as the row-major
    4-tuple of its entries in [0, p).
    """

    __slots__ = ()


def build_embedding(p: int, order: QuadOrder) -> EmbeddingData:
    """The embedding data for an inert odd prime p coprime to f (fp.check_hypotheses)."""
    check_hypotheses(p, order)
    # eps*s^2 = (t^2-4n)/4: the right side is a non-square times the inverse
    # of a square, so s exists, and s != 0
    eps, t, n = smallest_nonsquare(p), order.t % p, order.n % p
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


def _pencil_fibers(p: int, a: int, b: int,
                   c: int) -> dict[tuple[int, int, int, int], list[tuple[int, int]]]:
    """The points of P^1(F_p) in kernel order, [1 : 0] and then [x1 : 1] for
    x1 = 0..p-1, grouped by the closed-form coset labels of their matrices
    (module docstring), for the residues of iota_omega = (a, b; c, a) with bc
    a non-square mod the odd prime p.  Every inverse is read from one
    inverse_table(p); none is taken per point."""
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


def two_to_one_check(emb: EmbeddingData) -> dict[tuple[int, int, int, int], list[tuple[int, int]]]:
    """Map each point [x1 : x2] of P^1(F_p) to the coset label of its matrix
    x1*I + x2*iota_omega (_pencil_fibers), in kernel order: (1, 0), then
    (x1, 1) for x1 = 0..p-1, as quadforms.kernel_classes lists them; the
    fibers, and the points of each, come in the order the walk met them first
    (which experiments.fiber_pairs relies on).  The closed form needs p and
    the order to pass fp.check_hypotheses and iota_omega = (a, b; c, a) with
    2a = t and bc a non-square, so that every matrix of the pencil is
    invertible; any other input is an InputError.  Enforces the expected
    structure: (p+1)/2 distinct labels, every fiber of size exactly two, and
    fiber partners differing by the involution class [-a : 1].  The mate check
    is the group law of P^1(F_p) (quadforms docstring) with y = [-a : 1] and
    t = 2a in closed form:

        [x1 : x2] * [-a : 1] = [-a x1 - n x2 : x1 - a x2 + t x2]
                             = [-a x1 - n x2 : x1 + a x2],

    and a mate [y1 : y2] is that point exactly when y1 (x1 + a x2) =
    y2 (-a x1 - n x2) mod p, with no inverse taken.
    """
    p, n = emb.p, emb.order.n
    check_hypotheses(p, emb.order)
    a, b, c, d = (x % p for x in emb.iota_omega)
    if a != d:
        raise InputError(f"a = {a} differs from d = {d} mod {p}")
    if (2 * a - emb.order.t) % p:
        raise InputError(f"2a = {2 * a % p} differs from t = {emb.order.t % p} mod {p}")
    if kronecker(b * c, p) != -1:
        raise InputError(f"coset labels are defined for invertible matrices: "
                         f"bc = {b * c % p} is a square mod {p}")
    fibers = _pencil_fibers(p, a, b, c)
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
    check_hypotheses(p)
    l %= p
    if l == 0:
        raise InputError("determinant must be a unit")
    if kronecker(l, p) == 1:
        mu = sqrt_mod_p(l, p)
        return (mu, 0, 0, mu)
    eps = smallest_nonsquare(p)
    b = sqrt_mod_p(l * pow(eps, -1, p) % p, p)
    return (0, b, -eps * b % p, 0)

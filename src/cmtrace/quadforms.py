"""Binary quadratic forms, class groups, and ring class kernels.

Class groups Pic(O_f) are modelled by primitive reduced forms of discriminant
f^2 * dK (Gaussian composition itself is a test oracle); the orders O_f are
fp's, so the finite shadow loads no form.  reduced_forms lists them in time
about linear in |D| and refuses |D| above DISC_CAP.  The Galois group of the
ring class field step H_pf / H_f is realised as the kernel of
Pic(O_pf) -> Pic(O_f), built directly from its generators: each kernel class
is the class of lam O_f cap O_pf for a unit class lam = x1 + x2*w_f in
(O_f / p O_f)^x / F_p^x, and keeps that unit class as its point
[x1 : x2] of P^1(F_p): (1, 0), then (x1, 1) for x1 = 0..p-1, the points
embeddings.two_to_one_check walks in that order with no form.  The kernel
classes are the classes of the p + 1 index-p sublattices of O_f, each a
proper O_pf-ideal (Cox, Primes of the form x^2 + ny^2, section 7), and each
has a closed form: for [x1 : 1] and lam = x1 + w_f,

    lam O_f cap O_pf = N(lam) Z + p lam Z.

Both generators lie in the intersection, and both lattices have index
p N(lam) in O_f, so they are equal.  Its form is therefore
(N(lam), -p Tr(lam), p^2), and the class [1 : 0] is O_pf, the principal
class.  No ideal is built as a lattice: heegner.galois_orbit acts on
Heegner forms by composing with forms of their discriminant, the kernel
forms for the orbit of a trace and reduced_forms(D) for the whole of
Pic(O_D), and the lattice routes are test oracles.

The group law on P^1(F_p).  When w_f, with trace t and norm n, stays
irreducible mod p (t^2 - 4n a non-square), multiplying the unit classes
x1 + x2*w_f and reducing with w_f^2 = t w_f - n gives

    [x1 : x2] * [y1 : y2] = [x1*y1 - n*x2*y2 : x1*y2 + x2*y1 + t*x2*y2]

with identity [1 : 0]; the norm form is anisotropic mod p, so the product
never degenerates.  The group is cyclic of order p + 1, so it has a single
element of order two, [-a : 1] for the residue a with 2a = t: its square is
[a^2 - n : t - 2a] = [1 : 0].  embeddings.two_to_one_check pairs the fiber
mates by that involution.

lagrange_reduce is the one Lagrange reduction of a basis, on an
integer Gram triple: heegner.gamma0_reduce runs it on the Gram triple of a
form and periods.PeriodLattice.reduction on the periods cut to integers.
reduce_form keeps its own loop on (a, b, c), since going through a basis
would add a transform and an orientation fix to every call; kernel_classes
reduces each of its p forms by it.  Only a trace reads the forms:
experiments.trace_point builds the kernel once; finite.experiment_finite
builds none.  BinaryForm and KernelClass are named tuples, the cheapest
immutable records to build and hash.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .errors import InputError
from .fp import QuadOrder, check_hypotheses

DISC_CAP = 10 ** 9          # reduced_forms takes 3-4 s at |D| = 10^9, 0.3 s at 10^8


# ---------------------------------------------------------------------------
# Forms


class BinaryForm(namedtuple("BinaryForm", "a b c")):
    """Primitive positive definite integral form A x^2 + B xy + C y^2.

    A named tuple: immutable, ordered, hashed and printed as the tuple
    (a, b, c) of its coefficients, and equal to any tuple of the same
    coefficients."""

    __slots__ = ()

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return gcd(gcd(self.a, self.b), self.c)

    def is_primitive(self) -> bool:
        return self.content() == 1

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def transform(self, x: int, u: int, y: int, v: int) -> "BinaryForm":
        """Right action of the matrix with columns (x, y), (u, v); det must be 1."""
        if x * v - y * u != 1:
            raise InputError("transform must be unimodular")
        a2 = self.value(x, y)
        c2 = self.value(u, v)
        b2 = 2 * (self.a * x * u + self.c * y * v) + self.b * (x * v + y * u)
        return BinaryForm(a2, b2, c2)


def reduce_form(form: BinaryForm) -> BinaryForm:
    """The reduced representative of the proper equivalence class."""
    a, b, c = form.a, form.b, form.c
    disc = b * b - 4 * a * c
    if a <= 0 or disc >= 0:
        raise InputError("only positive definite forms are handled")
    while True:
        if b > a or b <= -a:
            k = (a - b) // (2 * a)
            c = a * k * k + b * k + c
            b = b + 2 * a * k
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            continue
        break
    out = BinaryForm(a, b, c)
    assert out.is_reduced() and b * b - 4 * a * c == disc
    return out


def reduced_forms(disc: int) -> list[BinaryForm]:
    """All primitive reduced forms of the given negative discriminant, sorted."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise InputError(f"invalid negative discriminant {disc}")
    if -disc > DISC_CAP:
        raise InputError(f"|D| = {-disc} is above the cap {DISC_CAP} of reduced_forms")
    out = []
    bmax = isqrt(-disc // 3)
    for b in range(disc % 2, bmax + 1, 2):
        rhs4 = b * b - disc
        if rhs4 % 4:
            continue
        rhs = rhs4 // 4
        for a in range(max(b, 1), isqrt(rhs) + 1):
            if rhs % a:
                continue
            c = rhs // a
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(BinaryForm(a, b, c))
            if 0 < b < a < c:
                out.append(BinaryForm(a, -b, c))
    return sorted(out)


def class_number(disc: int) -> int:
    return len(reduced_forms(disc))


def lagrange_reduce(gram: tuple[int, int, int], v1, v2):
    """Lagrange-reduce the basis (v1, v2) of an integer lattice for the
    positive definite Gram triple gram = (g11, g12, g22), that is
    B(x, y) = g11 x1 y1 + g12 (x1 y2 + x2 y1) + g22 x2 y2 (Cohen, GTM 138,
    section 1.3).  Returns the basis with B(v1, v1) <= B(v2, v2) and
    |B(v1, v2)| <= B(v1, v1) / 2, related to the input by a matrix of
    determinant +-1.  mu = B(v1, v2) / B(v1, v1) is rounded to the nearest
    integer exactly, ties to even.  The three products are computed once and
    updated with each step v2 - mu v1."""
    g11, g12, g22 = gram

    def inner(x, y):
        return g11 * x[0] * y[0] + g12 * (x[0] * y[1] + x[1] * y[0]) + g22 * x[1] * y[1]

    n1, n2, m = inner(v1, v1), inner(v2, v2), inner(v1, v2)
    while True:
        if n2 < n1:
            v1, v2, n1, n2 = v2, v1, n2, n1
        mu, r = divmod(2 * m + n1, 2 * n1)
        if r == 0 and mu % 2:
            mu -= 1
        if mu == 0:
            return v1, v2
        v2 = (v2[0] - mu * v1[0], v2[1] - mu * v1[1])
        n2 += mu * (mu * n1 - 2 * m)
        m -= mu * n1


# ---------------------------------------------------------------------------
# The Galois kernel Pic(O_pf) -> Pic(O_f) with unit-class generators.


class KernelClass(namedtuple("KernelClass", "proj form")):
    """A kernel class: its unit-class generator [x1 : x2] as the pair
    (x1, x2), and its reduced form."""

    __slots__ = ()


def kernel_classes(order: QuadOrder, p: int) -> tuple[KernelClass, ...]:
    """The p + 1 classes of Pic(O_pf) that become principal in Pic(O_f).

    One class per unit class of P^1(F_p), read off in closed form (module
    docstring): the principal form at [1 : 0], and at [x1 : 1], with
    lam = x1 + w_f, the reduced form of (N(lam), -p Tr(lam), p^2), the form of
    the oriented basis (N(lam), p lam) of lam O_f cap O_pf, reduced by
    reduce_form; the forms must be pairwise distinct.
    p and the order are checked first (fp.check_hypotheses).
    """
    check_hypotheses(p, order)
    t, n, p2 = order.t, order.n, p * p
    disc = p2 * order.disc
    classes = [KernelClass((1, 0), BinaryForm(1, disc % 2, (disc % 2 - disc) // 4))]
    for x1 in range(p):
        form = BinaryForm(x1 * x1 + t * x1 + n, -p * (2 * x1 + t), p2)
        classes.append(KernelClass((x1, 1), reduce_form(form)))
    if len({kc.form for kc in classes}) != p + 1:
        raise AssertionError("unit classes gave coinciding ideal classes")
    return tuple(classes)

import hashlib
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange

from cmtrace import quadforms
from cmtrace.errors import InputError
from cmtrace.fp import QuadOrder, is_fundamental_discriminant, kronecker, order_data
from cmtrace.quadforms import (BinaryForm, KernelClass, class_number, kernel_classes,
                               lagrange_reduce, reduce_form, reduced_forms)
from oracles import (ClassGroup, _hnf2, basis_form, class_to_proj, compose, element_order,
                     form_inverse, form_pow, form_to_ideal, ideal_to_form, principal_form,
                     proj_elements, proj_mul, proj_params, project_form)

# ---------------------------------------------------------------------------
# Independent oracles.  Ideal arithmetic here is written from scratch against
# the basis (1, (D + sqrt(D))/2) and is deliberately separate from the
# half-coordinate lattice toolkit in oracles.py.


def oracle_compose(f1: BinaryForm, f2: BinaryForm) -> BinaryForm:
    """Composition via multiplication of the representing ideal modules.

    Ideal of (A, B, C): Z-module spanned by A and (-B + sqrt(D))/2.  Times the
    second ideal, the product module is spanned by four elements; a Hermite
    reduction over Z gives a two-element basis, which is converted back to a
    form via norms and the trace pairing.
    """
    disc = f1.disc()
    # elements are (x, y) meaning (x + y*sqrt(disc)) / 2 with x = y*disc mod 2
    gens = []
    e1 = (2 * f1.a, 0)
    e2 = (-f1.b, 1)
    e3 = (2 * f2.a, 0)
    e4 = (-f2.b, 1)
    for u in (e1, e2):
        for v in (e3, e4):
            x = u[0] * v[0] + u[1] * v[1] * disc
            y = u[0] * v[1] + u[1] * v[0]
            assert x % 2 == 0 and y % 2 == 0
            gens.append([x // 2, y // 2])
    # Hermite reduction on the y-coordinate
    while True:
        nz = [g for g in gens if g[1]]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda g: abs(g[1]))
        base = nz[0]
        for g in nz[1:]:
            q = g[1] // base[1]
            g[0] -= q * base[0]
            g[1] -= q * base[1]
        gens = [g for g in gens if g[0] or g[1]]
    ys = [g for g in gens if g[1]]
    xs = [g[0] for g in gens if not g[1]]
    assert len(ys) == 1 and xs
    beta = ys[0]
    alpha = abs(xs[0])
    for x in xs[1:]:
        alpha = gcd(alpha, x)
    if beta[1] < 0:
        beta = [-beta[0], -beta[1]]
    # module norm = (basis determinant in half-coordinates) / det of the order
    n_mod = abs(alpha * beta[1]) // 2
    na = alpha * alpha // 4
    nb = (beta[0] ** 2 - disc * beta[1] ** 2) // 4
    tr = alpha * beta[0] // 2
    assert na % n_mod == 0 and nb % n_mod == 0 and tr % n_mod == 0
    form = BinaryForm(na // n_mod, -tr // n_mod, nb // n_mod)
    return reduce_form(form)


def oracle_class_number_fundamental(d: int) -> int:
    """Dirichlet: h(d) = |sum k*chi(k)| / |d| for fundamental d < -4."""
    total = sum(k * kronecker(d, k) for k in range(1, abs(d)))
    assert total % d == 0
    return abs(total // d)


def oracle_class_number(disc: int) -> int:
    """Fundamental case by Dirichlet; conductors via the standard product."""
    f = 1
    d = disc
    while True:
        done = True
        for q in range(2, int(abs(d) ** 0.5) + 1):
            if d % (q * q) == 0 and is_fundamental_discriminant(d // (q * q)):
                d //= q * q
                f *= q
                done = False
                break
        if done:
            break
    if not is_fundamental_discriminant(d):
        raise ValueError("not a discriminant")
    h = oracle_class_number_fundamental(d)
    for q in sorted(set(_prime_factors(f))):
        e = 0
        ff = f
        while ff % q == 0:
            ff //= q
            e += 1
        h *= q ** (e - 1) * (q - kronecker(d, q))
    return h


def _prime_factors(n):
    out = []
    q = 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------


def test_kronecker_matches_legendre_and_known_values():
    # at an odd prime the Kronecker symbol is the Legendre symbol: Euler's criterion
    for p in primerange(3, 50):
        for a in range(-20, 20):
            euler = pow(a, (p - 1) // 2, p)
            assert kronecker(a, p) == (-1 if euler == p - 1 else euler)
    assert kronecker(-11, 2) == -1          # -11 = 5 mod 8
    assert kronecker(-7, 2) == 1            # -7 = 1 mod 8
    assert kronecker(-7, 5) == -1
    assert kronecker(-67, -121) == -1
    assert kronecker(5, 0) == 0 and kronecker(1, 0) == 1


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(-7)
    assert is_fundamental_discriminant(-8)
    assert is_fundamental_discriminant(-4)
    assert not is_fundamental_discriminant(-12)
    assert not is_fundamental_discriminant(-9)
    assert not is_fundamental_discriminant(7)


def test_order_data_examples():
    o = order_data(-7, 1)
    assert (o.t, o.n, o.disc) == (1, 2, -7)
    o = order_data(-8, 1)
    assert (o.t, o.n, o.disc) == (0, 2, -8)
    o = order_data(-7, 5)
    assert (o.t, o.n, o.disc) == (5, 50, -175)
    assert o.t ** 2 - 4 * o.n == o.disc
    with pytest.raises(ValueError):
        order_data(-12, 1)
    with pytest.raises(ValueError):
        order_data(-3, 1)
    with pytest.raises(ValueError):
        order_data(-4, 2)
    with pytest.raises(ValueError):
        order_data(-7, 0)


def test_reduced_forms_counts():
    assert reduced_forms(-7) == [BinaryForm(1, 1, 2)]
    assert class_number(-23) == 3
    assert class_number(-175) == 6
    with pytest.raises(ValueError):
        reduced_forms(-6)
    with pytest.raises(ValueError):
        reduced_forms(7)


def test_reduced_forms_stop_at_the_cap(monkeypatch):
    # the cap itself is listed: -10^9 = 5000^2 * (-40), so by the conductor
    # formula h = h(-40) * 5000 = 10000; the next discriminant beyond it is
    # refused before any form is built
    cap = quadforms.DISC_CAP
    assert class_number(-cap) == oracle_class_number(-cap) == 10000

    def no_form(*args, **kwargs):
        raise AssertionError("reduced_forms built a form above the cap")

    monkeypatch.setattr(quadforms, "BinaryForm", no_form)
    with pytest.raises(InputError, match=f"= {cap + 3} is above the cap {cap} of reduced_forms"):
        reduced_forms(-cap - 3)


def test_class_numbers_against_dirichlet():
    for d in range(-200, -4):
        if d % 4 in (0, 1) and is_fundamental_discriminant(d):
            assert class_number(d) == oracle_class_number_fundamental(d), d
    # conductor cross-check, including the worked h(-175) = 6 case; the
    # product-formula oracle assumes trivial units, so dK < -4 only
    for disc in (-175, -539, -8107, -44, -99, -475):
        assert class_number(disc) == oracle_class_number(disc), disc


def test_compose_identities():
    for disc in (-23, -47, -71):
        one = principal_form(disc)
        for g in reduced_forms(disc):
            assert compose(one, g) == g
            assert compose(g, form_inverse(g)) == one
    assert compose(BinaryForm(2, 1, 3), BinaryForm(2, 1, 3)) == BinaryForm(2, -1, 3)


def test_compose_matches_ideal_oracle():
    for disc in range(-250, 0):
        if disc % 4 not in (0, 1) or disc >= -3:
            continue
        forms = reduced_forms(disc)
        for f1 in forms:
            for f2 in forms:
                assert compose(f1, f2) == oracle_compose(f1, f2), (disc, f1, f2)


def test_group_axioms_exhaustive_up_to_2000():
    for disc in range(-2000, -3):
        if disc % 4 not in (0, 1):
            continue
        group = ClassGroup(disc)
        n = len(group)
        assert group.elements[group.identity_index] == principal_form(disc)
        table = group.cayley()
        ident = group.identity_index
        for i in range(n):
            assert table[i][ident] == i
            assert table[i][group.inverse_idx(i)] == ident
            for j in range(i, n):
                assert table[i][j] == table[j][i]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert table[table[i][j]][k] == table[i][table[j][k]]


def test_form_pow():
    g = BinaryForm(2, 1, 3)
    assert form_pow(g, 3) == compose(compose(g, g), g)
    assert form_pow(g, 0) == principal_form(-23)
    assert form_pow(g, -1) == form_inverse(g)


def test_project_form_principal_preimages():
    order = order_data(-7, 1)
    principal_small = principal_form(-7)
    hits = [f for f in reduced_forms(-175)
            if project_form(f, -7, 5, 1) == principal_small]
    # index of the kernel inside Pic(O_5): h(-175) / h(-7) = 6
    assert len(hits) == 6


def test_basis_form_reads_a_form_off_its_ideal_basis_in_either_orientation():
    for form in reduced_forms(-9 * 23):
        s1, (u, v) = form_to_ideal(form, -23, 3)         # A and (-B + 3 sqrt(-23)) / 2
        assert basis_form(s1, (u, v), -23) == basis_form(s1, (-u, -v), -23) == form


def test_ideal_to_form_rejects_lattices_that_are_not_proper_ideals_of_the_order():
    for dK, cond in ((-7, 1), (-7, 3), (-23, 2), (-20, 5)):
        for form in reduced_forms(cond * cond * dK):
            lattice = form_to_ideal(form, dK, cond)
            assert ideal_to_form(lattice, dK, cond) == form
            for other in {1, 2, 3, 5} - {cond}:
                with pytest.raises(ValueError, match="not a proper ideal of this order"):
                    ideal_to_form(lattice, dK, other)
    # O_K = <1, (1 + sqrt(-7))/2> is an ideal of O_3, but not a proper one
    with pytest.raises(ValueError, match="not a proper ideal of this order"):
        ideal_to_form(((2, 0), (1, 1)), -7, 3)


def test_kernel_sizes_examples():
    assert len(kernel_classes(order_data(-7, 1), 5)) == 6
    assert len(kernel_classes(order_data(-11, 1), 7)) == 8
    assert len(kernel_classes(order_data(-67, 1), 11)) == 12


def test_kernel_size_random_pairs():
    rng = random.Random(5)
    fundamentals = [d for d in range(-120, -4) if is_fundamental_discriminant(d)]
    done = 0
    while done < 30:
        dK = rng.choice(fundamentals)
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        if kronecker(dK, p) != -1:
            continue
        kern = kernel_classes(order_data(dK, 1), p)
        assert len(kern) == p + 1
        assert len({kc.form for kc in kern}) == p + 1
        done += 1


def test_kernel_rejects_bad_inputs():
    with pytest.raises(ValueError):
        kernel_classes(order_data(-7, 1), 11)        # -7 is a square mod 11
    with pytest.raises(ValueError):
        kernel_classes(order_data(-7, 5), 5)         # p divides the conductor


def test_class_number_ratio_formula():
    # h(O_p) / h(O_1) = p - chi(p) for inert p, i.e. p + 1
    for dK in (-7, -11, -19, -40, -84):
        if not is_fundamental_discriminant(dK):
            continue
        for p in primerange(3, 14):
            if kronecker(dK, p) != -1:
                continue
            assert class_number(p * p * dK) == (p + 1) * class_number(dK)


def test_class_to_proj():
    order = order_data(-7, 1)
    assert class_to_proj(order, 5, (1, 0)) == (1, 0)
    assert class_to_proj(order, 5, (-3, 1)) == (2, 1)
    with pytest.raises(ValueError):
        class_to_proj(order, 5, (5, 10))


def test_class_to_proj_homomorphism():
    order = order_data(-11, 1)
    p = 7
    params = proj_params(p, order.t, order.n)
    rng = random.Random(9)
    for _ in range(60):
        x = (rng.randrange(-20, 20), rng.randrange(-20, 20))
        y = (rng.randrange(-20, 20), rng.randrange(-20, 20))
        if (x[0] % p, x[1] % p) == (0, 0) or (y[0] % p, y[1] % p) == (0, 0):
            continue
        # multiply x1 + x2*w times y1 + y2*w with w^2 = t*w - n
        t, n = order.t, order.n
        z = (x[0] * y[0] - n * x[1] * y[1], x[0] * y[1] + x[1] * y[0] + t * x[1] * y[1])
        lhs = class_to_proj(order, p, z)
        rhs = proj_mul(params, class_to_proj(order, p, x), class_to_proj(order, p, y))
        assert lhs == rhs


def test_kernel_generator_map_is_isomorphism():
    # Cayley match: the generator map P^1 -> kernel respects multiplication
    for dK, p in [(-7, 5), (-11, 7), (-7, 13)]:
        order = order_data(dK, 1)
        params = proj_params(p, order.t, order.n)
        kern = kernel_classes(order, p)
        by_proj = {kc.proj: kc.form for kc in kern}
        group = ClassGroup(p * p * order.disc)
        for u in proj_elements(p):
            for v in proj_elements(p):
                w = proj_mul(params, u, v)
                assert reduce_form(compose(by_proj[u], by_proj[v])) == by_proj[w]


def test_kernel_orders_match_projective_line():
    order = order_data(-11, 1)
    p = 7
    params = proj_params(p, order.t, order.n)
    kern = kernel_classes(order, p)
    group = ClassGroup(p * p * order.disc)
    for kc in kern:
        assert group.order_of(group.index(kc.form)) == element_order(params, kc.proj)


# ---------------------------------------------------------------------------
# The one Hermite normal form and the one Lagrange reduction.


def _in_lattice(vec, basis) -> bool:
    """Whether vec is an integer combination of the upper triangular basis."""
    (e, f), (_, g) = basis
    x, y = vec
    return x % e == 0 and (y - (x // e) * f) % g == 0


ROWS = st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
                | st.just((0, 0)), min_size=1, max_size=6)


@settings(max_examples=500, deadline=None)
@given(ROWS)
def test_hnf2_spans_the_same_lattice(rows):
    # the index of the lattice in Z^2 is the gcd of the 2x2 minors of its rows
    index = 0
    for x, y in rows:
        for x1, y1 in rows:
            index = gcd(index, x * y1 - y * x1)
    if not index:
        with pytest.raises(ValueError, match="rank < 2"):
            _hnf2(rows)
        return
    (e, f), (z, g) = basis = _hnf2(rows)
    assert e > 0 and g > 0 and 0 <= f < g and z == 0
    # every input row lies in the output lattice, and the two have the same
    # index, so every output row lies in the input lattice
    assert all(_in_lattice(r, basis) for r in rows)
    assert e * g == index


def test_hnf2_examples_and_rank_errors():
    assert _hnf2([(4, 3), (0, 0), (6, 1), (0, 0)]) == ((2, 5), (0, 7))
    assert _hnf2([(-3, 5), (0, -4)]) == ((3, 3), (0, 4))
    for rows in ([], [(0, 0)], [(2, 3)], [(2, 3), (4, 6), (0, 0)], [(0, 5), (0, 7)]):
        with pytest.raises(ValueError, match="rank < 2"):
            _hnf2(rows)


GRAM_ENTRY = st.integers(-2 ** 90, 2 ** 90)


def _inner(gram, x, y):
    g11, g12, g22 = gram
    return g11 * x[0] * y[0] + g12 * (x[0] * y[1] + x[1] * y[0]) + g22 * x[1] * y[1]


@settings(max_examples=500, deadline=None)
@given(GRAM_ENTRY, GRAM_ENTRY, st.integers(1, 2 ** 90),
       st.tuples(*[st.integers(-50, 50)] * 4).filter(lambda m: m[0] * m[3] - m[1] * m[2]))
def test_lagrange_reduce_is_reduced_and_unimodular(u1, u2, k, m):
    # a positive definite Gram triple with entries up to about 2^181:
    # g11 = |u|^2 + k, g12 = u1 u2, g22 = u2^2 + k for u = (u1, u2)
    gram = (u1 * u1 + k, u1 * u2, u2 * u2 + k)
    v1, v2 = (m[0], m[1]), (m[2], m[3])
    r1, r2 = lagrange_reduce(gram, v1, v2)
    n1, n2, b = _inner(gram, r1, r1), _inner(gram, r2, r2), _inner(gram, r1, r2)
    assert n1 <= n2 and 2 * abs(b) <= n1
    det_in = v1[0] * v2[1] - v1[1] * v2[0]
    assert r1[0] * r2[1] - r1[1] * r2[0] in (det_in, -det_in)
    # the result spans the lattice of the input: both bases lie in each other
    for r in (r1, r2):
        assert (r[0] * v2[1] - r[1] * v2[0]) % det_in == 0
        assert (v1[0] * r[1] - v1[1] * r[0]) % det_in == 0


def test_lagrange_reduce_rounds_ties_to_even():
    # B(v1, v2) / B(v1, v1) = 1/2 and 3/2: round(1/2) = 0, round(3/2) = 2
    assert lagrange_reduce((2, 1, 5), (1, 0), (0, 1)) == ((1, 0), (0, 1))
    assert lagrange_reduce((2, 3, 10), (1, 0), (0, 1)) == ((1, 0), (-2, 1))


def test_reduce_form_reads_the_discriminant_off_its_coefficients(monkeypatch):
    # the input's discriminant is computed once, inline, and the closing check
    # compares the output's with it: no BinaryForm.disc call per reduction
    calls = []
    disc = BinaryForm.disc

    def counting(self):
        calls.append(self)
        return disc(self)

    form = BinaryForm(97, 131, 47)
    monkeypatch.setattr(BinaryForm, "disc", counting)
    out = reduce_form(form)
    assert calls == []
    assert out.is_reduced() and disc(out) == disc(form) == -1075


# ---------------------------------------------------------------------------
# kernel_classes reduces each (N(lam), -p Tr(lam), p^2) by reduce_form, and the
# check it keeps must still fire.

KERNEL_GRID = [(dK, f, p) for dK in (-7, -8, -11, -15, -19, -20, -23, -24, -39, -40, -43,
                                    -67, -84, -91, -163)
               for f in (1, 2, 3, 5) for p in primerange(3, 60)
               if kronecker(dK, p) == -1 and f % p]


def test_kernel_classes_are_reduced_records_of_the_kernel_discriminant():
    assert any(p == 3 for _, _, p in KERNEL_GRID)
    for dK, f, p in KERNEL_GRID + [(-7, 1, 10009), (-7, 3, 10009)]:
        order = order_data(dK, f)
        kernel = kernel_classes(order, p)
        assert [kc.proj for kc in kernel] == [(1, 0)] + [(x1, 1) for x1 in range(p)]
        assert kernel[0].form == principal_form(p * p * order.disc), (dK, f, p)
        for kc in kernel:
            assert kc.form.is_reduced() and kc.form.disc() == p * p * order.disc, (dK, f, p)
        # equal as tuples is not enough: the records must be of their own types
        assert all(type(kc) is KernelClass and type(kc.form) is BinaryForm for kc in kernel)


def test_kernel_classes_call_reduce_form_once_per_form(monkeypatch):
    order = order_data(-91, 1)
    expected = kernel_classes(order, 199)
    calls = []

    def counting(form):
        calls.append(form)
        return reduce_form(form)

    monkeypatch.setattr(quadforms, "reduce_form", counting)
    assert kernel_classes(order, 199) == expected
    assert len(calls) == 199


def _pairwise_distinct(kernel, p: int) -> bool:
    return len({kc.form for kc in kernel}) == len(kernel) == p + 1


def test_kernel_classes_are_pairwise_distinct(monkeypatch):
    # with O_f^x = {+-1} the p + 1 unit classes map one-to-one onto the kernel
    # (Cox, section 7), so kernel_classes gives p + 1 distinct forms
    grid = [(dK, f, p) for dK in range(-7, -201, -1) if is_fundamental_discriminant(dK)
            for f in (1, 2, 3) for p in primerange(3, 51) if kronecker(dK, p) == -1 and f % p]
    for dK, f, p in grid:
        assert _pairwise_distinct(kernel_classes(order_data(dK, f), p), p), (dK, f, p)
    assert len(grid) == 1109
    # the negative control: the second form reduced, that of [1 : 1], comes
    # out as the first, [0 : 1]
    reduced = []

    def collapsing(form):
        reduced.append(reduce_form(form))
        return reduced[0] if len(reduced) == 2 else reduced[-1]

    monkeypatch.setattr(quadforms, "reduce_form", collapsing)
    assert not _pairwise_distinct(kernel_classes(order_data(-7, 1), 5), 5)
    assert len(reduced) == 5


def test_reduced_forms_keep_their_order_below_5000():
    # the forms of every discriminant -4999 <= D <= -3 in (a, b, c) order,
    # the digest pinning that order and those forms
    digest = hashlib.sha256()
    count = 0
    for disc in range(-3, -5000, -1):
        if disc % 4 in (0, 1):
            forms = reduced_forms(disc)
            assert forms == sorted(forms, key=lambda g: (g.a, g.b, g.c))
            count += len(forms)
            digest.update(repr([(g.a, g.b, g.c) for g in forms]).encode())
    assert count == 50574
    assert digest.hexdigest() == (
        "2af076212862e5b0fe2c71f390375ee04fd19e14507480df3e79f250f766c629")


def test_forms_and_kernel_classes_are_immutable():
    form = BinaryForm(1, 1, 2)
    kc = kernel_classes(order_data(-7, 1), 5)[1]
    for record, name in ((form, "a"), (form, "d"), (kc, "form"), (kc, "x")):
        with pytest.raises(AttributeError):
            setattr(record, name, 3)
    assert form == (1, 1, 2) and kc.form == BinaryForm(2, -1, 22)


def test_forms_from_every_route_agree_in_repr_hash_and_equality():
    from cmtrace.heegner import heegner_form
    kernel = kernel_classes(order_data(-7, 1), 5)
    assert repr(kernel[2]) == "KernelClass(proj=(1, 1), form=BinaryForm(a=4, b=1, c=11))"
    # each form of discriminant -175 from heegner_form, reduce_form and
    # kernel_classes
    for level, unreduced, kc, text in [
            (1, (1, 3, 46), kernel[0], "BinaryForm(a=1, b=1, c=44)"),
            (2, (22, -1, 2), kernel[5], "BinaryForm(a=2, b=1, c=22)"),
            (4, (11, -1, 4), kernel[2], "BinaryForm(a=4, b=1, c=11)")]:
        forms = [heegner_form(level, -7, 5), reduce_form(BinaryForm(*unreduced)), kc.form]
        assert {repr(g) for g in forms} == {text}
        assert len({hash(g) for g in forms}) == 1 and forms[0] == forms[1] == forms[2]
    assert sorted(kc.form for kc in kernel) == [
        BinaryForm(1, 1, 44), BinaryForm(2, -1, 22), BinaryForm(2, 1, 22),
        BinaryForm(4, -1, 11), BinaryForm(4, 1, 11), BinaryForm(7, 7, 8)]

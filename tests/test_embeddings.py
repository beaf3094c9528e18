import random

import pytest
from sympy import primerange

from cmtrace.embeddings import (EmbeddingData, EmbeddingError, build_embedding,
                                find_common_norm_element, galois_matrix, lemma_converse_check,
                                signo_pairing_check, two_to_one_check, verify_optimal)
from cmtrace.fp import FpMatrix, FpParams, in_cartan_group, index_ns_plus, kronecker
from oracles import (coset_label, decompose_gamma, enumerate_cartan, identity, sl2_elements,
                     split_normalizer_sl2)
from cmtrace.projline import involution_class, proj_class, proj_elements, proj_mul
from cmtrace.quadforms import is_fundamental_discriminant, kernel_classes, order_data, proj_params


def random_inert_triples(count, pmax=31, seed=7):
    rng = random.Random(seed)
    fundamentals = [d for d in range(-120, -4) if is_fundamental_discriminant(d)]
    primes = [p for p in primerange(3, pmax + 1)]
    out = []
    while len(out) < count:
        dK = rng.choice(fundamentals)
        f = rng.choice([1, 1, 1, 2, 3])
        p = rng.choice(primes)
        if kronecker(dK, p) != -1 or (dK * f * f) % p == 0 or f % p == 0:
            continue
        out.append((dK, f, p))
    return out


def test_build_embedding_worked_example():
    emb = build_embedding(FpParams(5), order_data(-7, 1))
    assert emb.iota_omega == FpMatrix(5, 3, 1, 2, 3)
    assert verify_optimal(emb)
    # iota_omega is written down in closed form; an SL_2(F_p) conjugator from
    # the companion matrix of X^2 - tX + n must exist
    for p in primerange(3, 14):
        sl2 = sl2_elements(p)
        for dK in (d for d in range(-60, -4) if is_fundamental_discriminant(d)):
            for f in (1, 2, 3):
                order = order_data(dK, f)
                if kronecker(order.disc, p) != -1:
                    continue
                emb = build_embedding(FpParams(p), order)
                a0 = FpMatrix(p, 0, -order.n, 1, order.t)
                assert any(g.inv().mul(a0).mul(g) == emb.iota_omega for g in sl2), (p, dK, f)


def test_build_embedding_p7():
    emb = build_embedding(FpParams(7), order_data(-11, 1))
    assert in_cartan_group(emb.iota_omega, "ns", emb.params)
    assert emb.iota_omega.det() == 3            # n = 3 mod 7
    assert emb.iota_omega.charpoly_coeffs() == (1, 3)


def test_build_embedding_rejects_split_prime():
    with pytest.raises(EmbeddingError):
        build_embedding(FpParams(11), order_data(-7, 1))     # -7 is a square mod 11


def test_build_embedding_names_p_dividing_the_conductor():
    # -7 is inert at 5, and f = 5 makes the discriminant 0 mod 5, not a
    # nonzero square: the error names p | f, not inertness
    with pytest.raises(EmbeddingError, match="p = 5 divides the conductor f = 5"):
        build_embedding(FpParams(5), order_data(-7, 5))
    with pytest.raises(EmbeddingError, match="p = 5 divides the conductor f = 10"):
        build_embedding(FpParams(5), order_data(-7, 10))
    with pytest.raises(EmbeddingError, match="not inert"):
        build_embedding(FpParams(11), order_data(-7, 5))     # f prime to 11, -7 split


def test_optimal_random_triples():
    for dK, f, p in random_inert_triples(20):
        emb = build_embedding(FpParams(p), order_data(dK, f))
        assert verify_optimal(emb)
        t, n = emb.order.t % p, emb.order.n % p
        assert emb.iota_omega.charpoly_coeffs() == (t, n)
        assert (emb.iota_omega.b * emb.iota_omega.c) % p != 0


def test_galois_matrix():
    emb = build_embedding(FpParams(5), order_data(-7, 1))
    assert galois_matrix(emb, 1, 0) == identity(5)
    w = galois_matrix(emb, -3, 1)
    assert w == FpMatrix(5, 0, 1, 2, 0)          # antidiagonal
    with pytest.raises(ValueError):
        galois_matrix(emb, 0, 0)
    with pytest.raises(ValueError):
        galois_matrix(emb, 5, 10)


def _converse_by_scan(emb) -> bool:
    """Whether x1*I + x2*iota_omega is diagonal or antidiagonal exactly at
    [1 : 0] and [-a : 1], by a scan of P^1(F_p); the entries are written out
    so that singular matrices of hand-built data are scanned too."""
    p = emb.params.p
    a, b, c, d = emb.iota_omega.entries
    hits = set()
    for pt in proj_elements(p):
        m = FpMatrix(p, pt.x1 + pt.x2 * a, pt.x2 * b, pt.x2 * c, pt.x1 + pt.x2 * d)
        if m.b == m.c == 0 or m.a == m.d == 0:
            hits.add(pt)
    return hits == {proj_class(p, 1, 0), proj_class(p, -a, 1)}


def test_lemma_converse():
    for emb in (build_embedding(FpParams(5), order_data(-7, 1)),
                build_embedding(FpParams(7), order_data(-11, 1)),
                *(build_embedding(FpParams(p), order_data(dK, f))
                  for dK, f, p in random_inert_triples(10, seed=21))):
        assert lemma_converse_check(emb) is _converse_by_scan(emb) is True


def test_lemma_converse_on_hand_built_matrices():
    # every (a, b, c, d) at p = 3 and 5, among them b = c = 0 (every class
    # diagonal) and a != d (no antidiagonal class)
    seen = set()
    order = order_data(-7, 1)
    for p in (3, 5):
        params = FpParams(p)
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        emb = EmbeddingData(params=params, order=order,
                                            iota_omega=FpMatrix(p, a, b, c, d))
                        got = lemma_converse_check(emb)
                        assert got is _converse_by_scan(emb), (p, a, b, c, d)
                        seen.add(((b, c) == (0, 0), a == d, got))
    assert seen == {(True, True, False), (True, False, False),
                    (False, True, True), (False, False, False)}


def test_decompose_identity():
    emb = build_embedding(FpParams(5), order_data(-7, 1))
    dec = decompose_gamma(emb, identity(5))
    assert dec.gamma_i == identity(5) and dec.r_s == identity(5)


def test_decompose_worked_example_matrix_is_valid():
    # the displayed corrector (0,2;1,0) for r_bar = (3,1;2,3) at p=5, eps=2
    params = FpParams(5)
    m = FpMatrix(5, 0, 2, 1, 0)
    assert in_cartan_group(m, "ns+", params) and in_cartan_group(m, "s+", params)
    r_bar = FpMatrix(5, 3, 1, 2, 3)
    assert m.det() == pow(r_bar.det(), -1, 5)
    gamma = r_bar.mul(m)
    assert gamma.det() == 1 and in_cartan_group(gamma, "ns+", params)


def test_decompose_exhaustive_small_primes():
    for p, dK in [(5, -7), (7, -11), (11, -67), (13, -7)]:
        params = FpParams(p)
        emb = build_embedding(params, order_data(dK, 1))
        for r_bar in enumerate_cartan(params, "ns"):
            dec = decompose_gamma(emb, r_bar)
            assert dec.gamma_i.mul(dec.r_s) == r_bar
            assert dec.gamma_i.det() == 1
            assert in_cartan_group(dec.gamma_i, "ns+", params)
            assert in_cartan_group(dec.r_s, "s+", params)


def test_decompose_rejects_non_cartan():
    emb = build_embedding(FpParams(5), order_data(-7, 1))
    with pytest.raises(EmbeddingError):
        decompose_gamma(emb, FpMatrix(5, 1, 1, 0, 1))


def test_split_normalizer_sl2_order():
    for p in (5, 7, 11):
        h = split_normalizer_sl2(p)
        assert len(h) == 2 * (p - 1)
        for m in h:
            assert m.det() == 1


def test_coset_labels_partition_sl2():
    labels = {coset_label(g) for g in sl2_elements(5)}
    assert len(labels) == 120 // 8
    # the label names the coset H g^{-1}, so it is blind to g -> g h
    g = FpMatrix(5, 1, 1, 0, 1)
    for h in split_normalizer_sl2(5):
        assert coset_label(g.mul(h)) == coset_label(g)
    with pytest.raises(ValueError):
        coset_label(FpMatrix(5, 1, 2, 2, 4))          # singular


@pytest.mark.parametrize("p,dKs", [
    (5, (-7, -23, -43)),
    (7, (-11, -15, -23)),
    (11, (-67, -20, -23)),
    (13, (-7, -11, -19)),
])
def test_two_to_one_structure(p, dKs):
    params = FpParams(p)
    for dK in dKs:
        assert kronecker(dK, p) == -1, (p, dK)
        order = order_data(dK, 1)
        emb = build_embedding(params, order)
        kernel = kernel_classes(order, p)
        fibers = two_to_one_check(emb, kernel)
        assert len(fibers) == (p + 1) // 2
        assert all(len(v) == 2 for v in fibers.values())
        pp = proj_params(order, p)
        invol = involution_class(pp, emb.iota_omega.a)
        for u, v in fibers.values():
            assert proj_mul(pp, u, invol) == v
        assert len(fibers) == index_ns_plus(params)


def test_two_to_one_rejects_mismatched_kernel():
    emb = build_embedding(FpParams(5), order_data(-7, 1))
    kernel = kernel_classes(order_data(-11, 1), 7)
    with pytest.raises(ValueError):
        two_to_one_check(emb, kernel)


def test_signo_pairing():
    emb5 = build_embedding(FpParams(5), order_data(-7, 1))
    assert signo_pairing_check(emb5)
    # explicit factorisation at p=5: (0,1;2,0) = (0,1;-1,0) * (3,0;0,1)
    j = FpMatrix(5, 0, 1, -1, 0)
    sigma = FpMatrix(5, 3, 0, 0, 1)
    assert j.mul(sigma) == galois_matrix(emb5, -3, 1)
    assert signo_pairing_check(build_embedding(FpParams(7), order_data(-11, 1)))
    for dK, f, p in random_inert_triples(10, seed=33):
        assert signo_pairing_check(build_embedding(FpParams(p), order_data(dK, f)))


def test_common_norm_elements():
    params = FpParams(5)
    assert find_common_norm_element(params, 4) == FpMatrix(5, 2, 0, 0, 2)
    assert find_common_norm_element(params, 2) == FpMatrix(5, 0, 1, 3, 0)
    with pytest.raises(ValueError):
        find_common_norm_element(params, 0)


def test_common_norm_closure():
    params = FpParams(7)
    for l1 in range(1, 7):
        for l2 in range(1, 7):
            prod = find_common_norm_element(params, l1).mul(find_common_norm_element(params, l2))
            assert prod.det() == l1 * l2 % 7
            assert in_cartan_group(prod, "ns+", params)
            assert in_cartan_group(prod, "s+", params)


def test_cartan_to_projective_line_homomorphism():
    # x1 + x2 * iota_omega -> [x1 : x2] is a surjective homomorphism from
    # C_ns onto P^1(F_p) with scalar kernel; exhaustive for small p
    for p, dK in [(5, -7), (7, -11), (11, -67), (13, -7), (31, -7)]:
        params = FpParams(p)
        emb = build_embedding(params, order_data(dK, 1))
        pp = proj_params(emb.order, p)
        pairs = [(x1, x2) for x1 in range(p) for x2 in range(p) if (x1, x2) != (0, 0)]
        image = set()
        for x1, x2 in pairs:
            image.add(proj_class(p, x1, x2))
        assert len(image) == p + 1          # surjective
        # homomorphism on all pairs of elements of C_ns
        if p <= 13:
            sample = pairs
        else:
            rng = random.Random(5)
            sample = [pairs[rng.randrange(len(pairs))] for _ in range(60)]
        for x1, x2 in sample:
            for y1, y2 in sample[:25]:
                m1 = galois_matrix(emb, x1, x2)
                m2 = galois_matrix(emb, y1, y2)
                prod = m1.mul(m2)
                # read the product back as z1 + z2 * iota_omega
                z2 = prod.c * pow(emb.iota_omega.c, -1, p) % p
                z1 = (prod.a - z2 * emb.iota_omega.a) % p
                assert prod == galois_matrix(emb, z1, z2)
                lhs = proj_class(p, z1, z2)
                rhs = proj_mul(pp, proj_class(p, x1, x2), proj_class(p, y1, y2))
                assert lhs == rhs
        # kernel: scalars map to the identity class
        for x1 in range(1, p):
            assert proj_class(p, x1, 0) == proj_class(p, 1, 0)

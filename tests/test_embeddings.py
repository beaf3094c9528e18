import gc
import random
from functools import lru_cache
from itertools import product

import pytest
from sympy import primerange

from cmtrace import embeddings, fp
from cmtrace.cli import main
from cmtrace.embeddings import (EmbeddingData, FiberStructureError, build_embedding,
                                find_common_norm_element, inverse_table, lemma_converse_check,
                                signo_pairing_check, two_to_one_check, verify_optimal)
from cmtrace.errors import InputError
from cmtrace.finite import ExperimentSpec, experiment_finite
from cmtrace.fp import (HypothesisError, QuadOrder, index_ns_plus, is_fundamental_discriminant,
                        kronecker, order_data, smallest_nonsquare)
from cmtrace.quadforms import kernel_classes
from oracles import (IDENTITY, coset_label, decompose_gamma, enumerate_cartan,
                     fibers_paired_by_involution, galois_matrix, in_cartan_group,
                     involution_class, mat, mat_det, mat_inv, mat_mul, pencil_fibers_by_point,
                     proj_class, proj_elements, proj_mul, proj_params, sl2_elements,
                     split_normalizer_sl2)


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
    emb = build_embedding(5, order_data(-7, 1))
    assert (emb.p, emb.eps, emb.iota_omega) == (5, 2, (3, 1, 2, 3))
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
                emb = build_embedding(p, order)
                a0 = mat(p, 0, -order.n, 1, order.t)
                assert any(mat_mul(p, mat_mul(p, mat_inv(p, g), a0), g) == emb.iota_omega
                           for g in sl2), (p, dK, f)


def test_build_embedding_p7():
    emb = build_embedding(7, order_data(-11, 1))
    a, b, c, d = emb.iota_omega
    assert in_cartan_group(7, emb.iota_omega, "ns")
    assert mat_det(7, emb.iota_omega) == 3            # n = 3 mod 7
    assert (a + d) % 7 == 1


def test_build_embedding_rejects_a_p_that_is_no_odd_prime():
    # the Jacobi symbols (-7|33) and (-7|27) are -1, so both moduli would
    # pass for inert: the prime check comes before any square root mod p
    for p in (33, 27, 1, -5):
        with pytest.raises(InputError, match="odd prime"):
            build_embedding(p, order_data(-7, 1))


@pytest.mark.parametrize("p,dK,f", [(199, -91, 1), (101, -7, 1), (157, -43, 3), (173, -8, 2)])
def test_experiment_finite_tests_p_once(monkeypatch, p, dK, f):
    # every layer checks p itself, and isprime and smallest_nonsquare are
    # cached: one run finds the smallest non-square mod p once, though
    # build_embedding, the five find_common_norm_element calls and their
    # square roots (Tonelli-Shanks at p = 1 mod 4: 101, 157 and 173 here)
    # all ask for it, and a second run of the same spec computes nothing of
    # either again
    spec = ExperimentSpec(dK=dK, f=f, p=p, mode="finite_only")
    fp.isprime.cache_clear()
    fp.smallest_nonsquare.cache_clear()
    assert experiment_finite(spec).all_passed
    first = fp.isprime.cache_info().misses, fp.smallest_nonsquare.cache_info().misses
    assert first[1] == 1
    assert experiment_finite(spec).all_passed
    assert (fp.isprime.cache_info().misses, fp.smallest_nonsquare.cache_info().misses) == first
    # and the primality test itself runs on p once, through every layer's check
    from cmtrace import finite
    tested, test = [], fp.isprime.__wrapped__
    counting = lru_cache(maxsize=1024)(lambda n: tested.append(n) or test(n))
    for module in (fp, finite):
        monkeypatch.setattr(module, "isprime", counting)
    assert experiment_finite(spec).all_passed
    assert tested.count(p) == 1


def test_raw_input_keeps_its_checks_and_meets_the_validated_path():
    # each layer tests p itself, so a public caller with a p that is no odd
    # prime gets an InputError; on valid input a p tested before (the path
    # a validated spec takes) gives the same results as one met first
    order = order_data(-7, 1)
    for p in (33, 27, 1, -5):
        for call in (lambda: kernel_classes(order, p), lambda: find_common_norm_element(p, 2),
                     lambda: build_embedding(p, order)):
            with pytest.raises(InputError, match="odd prime"):
                call()
    for dK, f, p in random_inert_triples(40, pmax=211, seed=11):
        order = order_data(dK, f)
        fp.isprime.cache_clear()
        fp.smallest_nonsquare.cache_clear()
        cold = (kernel_classes(order, p), build_embedding(p, order),
                [find_common_norm_element(p, ell) for ell in (2, 3, 5, 7, 11, 13) if ell != p])
        assert fp.smallest_nonsquare.cache_info().misses == 1
        assert cold[1].eps == smallest_nonsquare(p)
        assert cold == (kernel_classes(order, p), build_embedding(p, order),
                        [find_common_norm_element(p, ell) for ell in (2, 3, 5, 7, 11, 13)
                         if ell != p])


def test_build_embedding_rejects_split_prime():
    with pytest.raises(HypothesisError, match="^p = 11 is not inert in Q\\(sqrt\\(-7\\)\\)$"):
        build_embedding(11, order_data(-7, 1))     # -7 is a square mod 11


def test_build_embedding_names_p_dividing_the_conductor():
    # -7 is inert at 5, and f = 5 makes the discriminant 0 mod 5: the error
    # names p | f, which fp.check_hypotheses tests before inertness
    with pytest.raises(HypothesisError, match="p = 5 divides the conductor f = 5"):
        build_embedding(5, order_data(-7, 5))
    with pytest.raises(HypothesisError, match="p = 5 divides the conductor f = 10"):
        build_embedding(5, order_data(-7, 10))
    with pytest.raises(HypothesisError, match="not inert"):
        build_embedding(11, order_data(-7, 5))     # f prime to 11, -7 split


def test_optimal_random_triples():
    for dK, f, p in random_inert_triples(20):
        emb = build_embedding(p, order_data(dK, f))
        assert verify_optimal(emb)
        a, b, c, d = emb.iota_omega
        assert ((a + d) % p, mat_det(p, emb.iota_omega)) == (emb.order.t % p, emb.order.n % p)
        assert b * c % p != 0
        assert in_cartan_group(p, emb.iota_omega, "ns")


def test_verify_optimal_reads_the_closed_form_of_c_ns():
    # each condition of verify_optimal broken alone, at p = 5 where
    # iota_omega = (3, 1; 2, 3), eps = 2, t = 1 and n = 2
    order = order_data(-7, 1)
    assert verify_optimal(EmbeddingData(p=5, eps=2, order=order, iota_omega=(3, 1, 2, 3)))
    for iota in [(3, 1, 2, 4),        # a != d
                 (3, 1, 3, 3),        # c != eps*b: outside C_ns
                 (0, 0, 0, 0),        # singular, and b = c = 0
                 (3, 0, 0, 3),        # in C_ns, but p divides b and c
                 (1, 1, 2, 1),        # in C_ns, but trace 2 != t and det 4 != n
                 (3, 2, 4, 3)]:       # in C_ns with trace t, but det 1 != n
        assert in_cartan_group(5, iota, "ns") is (iota in [(3, 0, 0, 3), (1, 1, 2, 1),
                                                            (3, 2, 4, 3)])
        emb = EmbeddingData(p=5, eps=2, order=order, iota_omega=iota)
        assert not verify_optimal(emb), iota


def test_galois_matrix():
    emb = build_embedding(5, order_data(-7, 1))
    assert galois_matrix(emb, 1, 0) == IDENTITY
    w = galois_matrix(emb, -3, 1)
    assert w == (0, 1, 2, 0)          # antidiagonal
    with pytest.raises(ValueError):
        galois_matrix(emb, 0, 0)
    with pytest.raises(ValueError):
        galois_matrix(emb, 5, 10)


def _converse_by_scan(emb) -> bool:
    """Whether x1*I + x2*iota_omega is diagonal or antidiagonal exactly at
    [1 : 0] and [-a : 1], by a scan of P^1(F_p); the entries are written out
    so that singular matrices of hand-built data are scanned too."""
    p = emb.p
    a, b, c, d = emb.iota_omega
    hits = set()
    for x1, x2 in proj_elements(p):
        m = mat(p, x1 + x2 * a, x2 * b, x2 * c, x1 + x2 * d)
        if m[1] == m[2] == 0 or m[0] == m[3] == 0:
            hits.add((x1, x2))
    return hits == {proj_class(p, 1, 0), proj_class(p, -a, 1)}


def test_lemma_converse():
    for emb in (build_embedding(5, order_data(-7, 1)),
                build_embedding(7, order_data(-11, 1)),
                *(build_embedding(p, order_data(dK, f))
                  for dK, f, p in random_inert_triples(10, seed=21))):
        assert lemma_converse_check(emb) is _converse_by_scan(emb) is True


def test_lemma_converse_on_hand_built_matrices():
    # every (a, b, c, d) at p = 3 and 5, among them b = c = 0 (every class
    # diagonal) and a != d (no antidiagonal class)
    seen = set()
    order = order_data(-7, 1)
    for p in (3, 5):
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        emb = EmbeddingData(p=p, eps=smallest_nonsquare(p), order=order,
                                            iota_omega=(a, b, c, d))
                        got = lemma_converse_check(emb)
                        assert got is _converse_by_scan(emb), (p, a, b, c, d)
                        seen.add(((b, c) == (0, 0), a == d, got))
                        # entries outside [0, p) are read mod p
                        shifted = emb._replace(iota_omega=(a + p, b - p, c + 2 * p, d - 3 * p))
                        assert lemma_converse_check(shifted) is got, (p, a, b, c, d)
    assert seen == {(True, True, False), (True, False, False),
                    (False, True, True), (False, False, False)}
    # an unreduced generator that verify_optimal accepts passes both pairing
    # checks, as its reduction (3, 1, 2, 3) = build_embedding(5, -7) does
    emb = EmbeddingData(p=5, eps=2, order=order, iota_omega=(8, 1, 2, 3))
    assert build_embedding(5, order).iota_omega == (3, 1, 2, 3)
    assert verify_optimal(emb) and lemma_converse_check(emb) and signo_pairing_check(emb)


def test_decompose_identity():
    emb = build_embedding(5, order_data(-7, 1))
    dec = decompose_gamma(emb, IDENTITY)
    assert dec.gamma_i == IDENTITY and dec.r_s == IDENTITY


def test_decompose_worked_example_matrix_is_valid():
    # the displayed corrector (0,2;1,0) for r_bar = (3,1;2,3) at p=5, eps=2
    m = (0, 2, 1, 0)
    assert in_cartan_group(5, m, "ns+") and in_cartan_group(5, m, "s+")
    r_bar = (3, 1, 2, 3)
    assert mat_det(5, m) == pow(mat_det(5, r_bar), -1, 5)
    gamma = mat_mul(5, r_bar, m)
    assert mat_det(5, gamma) == 1 and in_cartan_group(5, gamma, "ns+")


def test_decompose_exhaustive_small_primes():
    for p, dK in [(5, -7), (7, -11), (11, -67), (13, -7)]:
        emb = build_embedding(p, order_data(dK, 1))
        for r_bar in enumerate_cartan(p, "ns"):
            dec = decompose_gamma(emb, r_bar)
            assert mat_mul(p, dec.gamma_i, dec.r_s) == r_bar
            assert mat_det(p, dec.gamma_i) == 1
            assert in_cartan_group(p, dec.gamma_i, "ns+")
            assert in_cartan_group(p, dec.r_s, "s+")


def test_decompose_rejects_non_cartan():
    emb = build_embedding(5, order_data(-7, 1))
    with pytest.raises(InputError, match="not in the non-split Cartan group"):
        decompose_gamma(emb, (1, 1, 0, 1))


def test_split_normalizer_sl2_order():
    for p in (5, 7, 11):
        h = split_normalizer_sl2(p)
        assert len(h) == 2 * (p - 1)
        for m in h:
            assert mat_det(p, m) == 1


def test_coset_labels_partition_sl2():
    labels = {coset_label(5, g) for g in sl2_elements(5)}
    assert len(labels) == 120 // 8
    # the label names the coset H g^{-1}, so it is blind to g -> g h
    g = (1, 1, 0, 1)
    for h in split_normalizer_sl2(5):
        assert coset_label(5, mat_mul(5, g, h)) == coset_label(5, g)
    with pytest.raises(ValueError):
        coset_label(5, (1, 2, 2, 4))          # singular


@pytest.mark.parametrize("p,dKs", [
    (5, (-7, -23, -43)),
    (7, (-11, -15, -23)),
    (11, (-67, -20, -23)),
    (13, (-7, -11, -19)),
])
def test_two_to_one_structure(p, dKs):
    for dK in dKs:
        assert kronecker(dK, p) == -1, (p, dK)
        order = order_data(dK, 1)
        emb = build_embedding(p, order)
        fibers = two_to_one_check(emb)
        assert len(fibers) == (p + 1) // 2
        assert all(len(v) == 2 for v in fibers.values())
        pp = proj_params(p, order.t, order.n)
        invol = involution_class(pp, emb.iota_omega[0])
        for u, v in fibers.values():
            assert proj_mul(pp, u, invol) == v
        assert len(fibers) == index_ns_plus(p)


def test_the_fibers_meet_the_kernel_points_in_kernel_order():
    # the shadow's fiber members, in the order the label loop first met
    # them, are the points of kernel_classes in its order: replaying those
    # points in order into their fibers gives back the same dict, labels and
    # members in the same order.  experiments.fiber_pairs reads orbit indices
    # from that order
    checked = 0
    for p in primerange(3, 200):
        inert = [dK for dK in range(-7, -200, -1)
                 if is_fundamental_discriminant(dK) and kronecker(dK, p) == -1][:2]
        for dK in inert:
            for f in (1, 2):
                fibers = experiment_finite(
                    ExperimentSpec(dK=dK, f=f, p=p, mode="finite_only")).fibers
                fiber_of = {u: label for label, members in fibers.items() for u in members}
                assert sum(map(len, fibers.values())) == len(fiber_of) == p + 1
                replayed = {}
                for kc in kernel_classes(order_data(dK, f), p):
                    replayed.setdefault(fiber_of[kc.proj], []).append(kc.proj)
                assert list(replayed.items()) == list(fibers.items()), (p, dK, f)
                checked += 1
    assert checked == 45 * 2 * 2


def test_the_pair_walk_gives_the_fibers_of_the_per_point_walk():
    # _pencil_fibers labels one point per fiber and files its mate bc/u with
    # it; labelling every point and grouping gives the same dict, with the
    # labels and the points of each fiber in the same order
    def pencil(p, dK, f):
        _, b, c, _ = iota = build_embedding(p, order_data(dK, f)).iota_omega
        return p, iota[0], b, c

    fundamentals = [dK for dK in range(-7, -121, -1) if is_fundamental_discriminant(dK)]
    cases = [pencil(p, dK, f) for p in (3, 5, 7, 11, 13) for dK in fundamentals
             for f in (1, 2, 3) if kronecker(dK, p) == -1 and f % p]
    cases += [pencil(p, dK, 1) for p in primerange(101, 200) for dK in (-7, -91)
              if kronecker(dK, p) == -1]
    cases += [pencil(10009, -7, f) for f in (1, 3)]
    rng = random.Random(51)
    for p in (3, 1009, 10009):
        # a = 0 and a = p - 1 put the point u = 0 at x1 = 0 and at x1 = 1
        for a in (0, p - 1, *(rng.randrange(p) for _ in range(4))):
            b = rng.randrange(1, p)
            c = smallest_nonsquare(p) * rng.randrange(1, p) ** 2 * pow(b, -1, p) % p
            cases.append((p, a, b, c))
    for p, a, b, c in cases:
        assert kronecker(b * c, p) == -1
        got = embeddings._pencil_fibers(p, a, b, c)
        assert list(got.items()) == list(pencil_fibers_by_point(p, a, b, c).items()), (p, a, b, c)
    assert len(cases) == 206 + 24 + 2 + 3 * 6


def pair_walk_embeddings() -> list[EmbeddingData]:
    """The 250 pencils of test_the_pair_walk_gives_the_fibers_of_the_per_point_walk,
    each as an embedding: the 232 of an order as build_embedding gives them,
    and each of the 18 drawn (p, a, b, c) with the order of its own
    characteristic polynomial X^2 - 2aX + (a^2 - bc), whose n is all that
    fibers_paired_by_involution reads of it."""
    fundamentals = [dK for dK in range(-7, -121, -1) if is_fundamental_discriminant(dK)]
    cases = [build_embedding(p, order_data(dK, f)) for p in (3, 5, 7, 11, 13)
             for dK in fundamentals for f in (1, 2, 3) if kronecker(dK, p) == -1 and f % p]
    cases += [build_embedding(p, order_data(dK, 1)) for p in primerange(101, 200)
              for dK in (-7, -91) if kronecker(dK, p) == -1]
    cases += [build_embedding(10009, order_data(-7, f)) for f in (1, 3)]
    rng = random.Random(51)
    for p in (3, 1009, 10009):
        for a in (0, p - 1, *(rng.randrange(p) for _ in range(4))):
            b = rng.randrange(1, p)
            c = smallest_nonsquare(p) * rng.randrange(1, p) ** 2 * pow(b, -1, p) % p
            order = QuadOrder(dK=None, f=1, disc=4 * b * c, t=2 * a, n=a * a - b * c)
            cases.append(EmbeddingData(p=p, eps=smallest_nonsquare(p), order=order,
                                       iota_omega=(a, b, c, a)))
    return cases


def _fiber_structure_error(check, *args) -> str | None:
    try:
        check(*args)
    except FiberStructureError as exc:
        return str(exc)
    return None


def test_the_per_fiber_test_accepts_the_pair_walk():
    # every mate u' = bc/u the walk files is u times the involution [-a : 1]
    # when det iota_omega = n, on the pair walk's own test inputs
    cases = pair_walk_embeddings()
    for emb in cases:
        p, (a, b, c, _) = emb.p, emb.iota_omega
        assert kronecker(b * c, p) == -1 and (a * a - b * c - emb.order.n) % p == 0
        fibers = embeddings._pencil_fibers(p, a, b, c)
        assert _fiber_structure_error(fibers_paired_by_involution, emb, fibers) is None, emb
    assert len(cases) == 250


def test_the_determinant_rejects_what_the_per_fiber_test_rejects():
    # two_to_one_check tests det iota_omega = n once where it tested every
    # fiber's mates: over every pencil (a, b; c, a) with a = t/2 and bc a
    # non-square, it raises exactly when fibers_paired_by_involution rejects
    # the walk, with the same message.  At p = 3 the one non-square is
    # a^2 - n, so every pencil passes
    outcomes = {True: 0, False: 0}
    for p in (3, 5, 7, 11, 13):
        inert = [dK for dK in range(-7, -100, -1)
                 if is_fundamental_discriminant(dK) and kronecker(dK, p) == -1]
        # an even dK has t = 0, so a = 0 and u = x1
        for dK in [dK for dK in inert if dK % 2][:2] + [dK for dK in inert if dK % 2 == 0][:1]:
            for f in (1, 2):
                order = order_data(dK, f)
                a = order.t * pow(2, -1, p) % p
                for b, c in product(range(1, p), repeat=2):
                    if kronecker(b * c, p) != -1:
                        continue
                    emb = EmbeddingData(p=p, eps=smallest_nonsquare(p), order=order,
                                        iota_omega=(a, b, c, a))
                    want = _fiber_structure_error(fibers_paired_by_involution, emb,
                                                  embeddings._pencil_fibers(p, a, b, c))
                    assert _fiber_structure_error(two_to_one_check, emb) == want, (p, dK, f, b, c)
                    outcomes[want is None] += 1
    # p - 1 pencils of each order have det n, (p - 1)(p - 3)/2 do not
    assert outcomes == {True: 6 * (2 + 4 + 6 + 10 + 12), False: 6 * (0 + 4 + 12 + 40 + 60)}


def test_inverse_table_inverts_every_unit():
    assert inverse_table(3) == [0, 1, 2]
    for p in [*primerange(2, 2000), 10009]:
        inv = inverse_table(p)
        assert len(inv) == p and inv[0] == 0
        assert all(i * inv[i] % p == 1 for i in range(1, p)), p


def test_a_label_collision_fails_the_count_of_the_fibers(monkeypatch, capsys):
    # the fibers of -7 at p = 13 with the first fiber's points filed under
    # the second's label, as by a label that gives the first fiber's label
    # l1 as the second's, l2: one label fewer, which two_to_one_check leaves
    # to experiment_finite's one count of the labels against the index
    emb = build_embedding(13, order_data(-7, 1))
    l1, l2 = list(two_to_one_check(emb))[:2]
    pencil_fibers = embeddings._pencil_fibers

    def relabelled(*args):
        got = pencil_fibers(*args)
        got[l2] += got.pop(l1)
        return got

    monkeypatch.setattr(embeddings, "_pencil_fibers", relabelled)
    assert len(two_to_one_check(emb)) == 6 == index_ns_plus(13) - 1
    message = "finite-shadow check failed at p = 13: degree_matches_index"
    with pytest.raises(FiberStructureError, match=f"^{message}$"):
        experiment_finite(ExperimentSpec(dK=-7, f=1, p=13, mode="finite_only"))
    assert main(["finite-check", "--p", "13", "--dk", "-7"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    monkeypatch.undo()
    # iota = (3, 1; 1, 3) at p = 5 has the trace t = 1 of -7's order, but bc
    # = 1 is a square, so iota lies in the split Cartan, outside C_ns, and
    # the matrix of [1 : 1] (and of [3 : 1]) has determinant (x1 + 3)^2 - 1
    # = 0: it has no coset label
    split = EmbeddingData(p=5, eps=2, order=order_data(-7, 1), iota_omega=(3, 1, 1, 3))
    with pytest.raises(InputError, match="invertible matrices"):
        two_to_one_check(split)


def test_two_to_one_rejects_fibers_not_paired_by_the_involution():
    # iota = (3, 2; 4, 3) lies in C_ns at p = 5 with the trace t = 1 of -7's
    # order but det 1, not its norm n = 2: the labels still pair the classes,
    # by the involution of X^2 - X + 1, so [x1 : x2] * [-a : 1] at n = 2 misses
    order = order_data(-7, 1)
    emb = EmbeddingData(p=5, eps=2, order=order, iota_omega=(3, 2, 4, 3))
    with pytest.raises(FiberStructureError, match="involution"):
        two_to_one_check(emb)
    # the same at p = 13 and at p = 7 = 3 mod 4 (p = 5 is 1 mod 4): iota =
    # (7, 1; 2, 7) has -7's trace and det 8, not n = 2, and iota = (4, 1; 3, 4)
    # has -11's trace and det 6, not n = 3; the identity's fiber passes, every
    # other pairs u with bc/u, not with (a^2 - n)/u
    for p, dK, iota in ((13, -7, (7, 1, 2, 7)), (7, -11, (4, 1, 3, 4))):
        wrong_det = EmbeddingData(p=p, eps=smallest_nonsquare(p), order=order_data(dK, 1),
                                  iota_omega=iota)
        with pytest.raises(FiberStructureError, match="involution"):
            two_to_one_check(wrong_det)
    # a diagonal entry a != t/2 gives no involution [-a : 1] at all
    bad = EmbeddingData(p=5, eps=2, order=order, iota_omega=(2, 1, 2, 2))
    with pytest.raises(InputError, match="differs from t"):
        two_to_one_check(bad)


def test_two_to_one_pauses_the_collector_for_the_walk_alone(monkeypatch):
    # off during the walk, and after it as it was before, also when the walk raises
    emb = build_embedding(13, order_data(-7, 1))
    pencil_fibers, during = embeddings._pencil_fibers, []

    def watched(*args, fail=False):
        during.append(gc.isenabled())
        if fail:
            raise MemoryError
        return pencil_fibers(*args)

    was = gc.isenabled()
    try:
        monkeypatch.setattr(embeddings, "_pencil_fibers", watched)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert list(two_to_one_check(emb).items()) == list(pencil_fibers(13, 7, 2, 4).items())
            assert gc.isenabled() is enabled
        monkeypatch.setattr(embeddings, "_pencil_fibers", lambda *args: watched(*args, fail=True))
        gc.enable()
        with pytest.raises(MemoryError):
            two_to_one_check(emb)
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False, False]


def test_two_to_one_refuses_inputs_outside_the_closed_form():
    # a modulus that is no odd prime, with a = d = t/2 and every (b, c), is
    # an input error (exit 1), never a FiberStructureError, a failed check
    # of the theory (exit 3)
    order = order_data(-7, 1)
    for p in (1, 9, 15, 25):
        half_t = order.t * pow(2, -1, p) % p
        for b, c in product(range(p), repeat=2):
            emb = EmbeddingData(p=p, eps=2, order=order, iota_omega=(half_t, b, c, half_t))
            with pytest.raises(InputError, match=f"^p must be an odd prime, got {p}$"):
                two_to_one_check(emb)
    # the pencil x1*I + iota_omega needs a = d: here a = t/2 = 3 and d = 2
    emb = EmbeddingData(p=5, eps=2, order=order, iota_omega=(3, 2, 4, 2))
    with pytest.raises(InputError, match="^a = 3 differs from d = 2 mod 5$"):
        two_to_one_check(emb)


def test_signo_pairing():
    emb5 = build_embedding(5, order_data(-7, 1))
    assert signo_pairing_check(emb5)
    # explicit factorisation at p=5: (0,1;2,0) = (0,1;-1,0) * (3,0;0,1)
    j = mat(5, 0, 1, -1, 0)
    sigma = (3, 0, 0, 1)
    assert mat_mul(5, j, sigma) == galois_matrix(emb5, -3, 1)
    assert signo_pairing_check(build_embedding(7, order_data(-11, 1)))
    for dK, f, p in random_inert_triples(10, seed=33):
        assert signo_pairing_check(build_embedding(p, order_data(dK, f)))


def test_common_norm_elements():
    assert find_common_norm_element(5, 4) == (2, 0, 0, 2)
    assert find_common_norm_element(5, 2) == (0, 1, 3, 0)
    with pytest.raises(ValueError):
        find_common_norm_element(5, 0)
    for p in (33, 27, 9, 1, 2):
        with pytest.raises(InputError, match="odd prime"):
            find_common_norm_element(p, 2)


def test_common_norm_closure():
    for l1 in range(1, 7):
        for l2 in range(1, 7):
            m1, m2 = find_common_norm_element(7, l1), find_common_norm_element(7, l2)
            prod = mat_mul(7, m1, m2)
            assert mat_det(7, prod) == l1 * l2 % 7
            assert in_cartan_group(7, prod, "ns+")
            assert in_cartan_group(7, prod, "s+")


def test_cartan_to_projective_line_homomorphism():
    # x1 + x2 * iota_omega -> [x1 : x2] is a surjective homomorphism from
    # C_ns onto P^1(F_p) with scalar kernel; exhaustive for small p
    for p, dK in [(5, -7), (7, -11), (11, -67), (13, -7), (31, -7)]:
        emb = build_embedding(p, order_data(dK, 1))
        pp = proj_params(p, emb.order.t, emb.order.n)
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
                prod = mat_mul(p, m1, m2)
                # read the product back as z1 + z2 * iota_omega
                z2 = prod[2] * pow(emb.iota_omega[2], -1, p) % p
                z1 = (prod[0] - z2 * emb.iota_omega[0]) % p
                assert prod == galois_matrix(emb, z1, z2)
                lhs = proj_class(p, z1, z2)
                rhs = proj_mul(pp, proj_class(p, x1, x2), proj_class(p, y1, y2))
                assert lhs == rhs
        # kernel: scalars map to the identity class
        for x1 in range(1, p):
            assert proj_class(p, x1, 0) == proj_class(p, 1, 0)

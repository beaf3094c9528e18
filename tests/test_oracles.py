"""The closed-form finite layer against the exhaustive oracles in oracles.py."""

import random
from dataclasses import replace
from itertools import product

import pytest
from sympy import primerange

from cmtrace.embeddings import EmbeddingData, build_embedding, signo_pairing_check, two_to_one_check
from cmtrace.finite import ExperimentSpec, experiment_finite
from cmtrace.fp import kronecker, smallest_nonsquare
from cmtrace.quadforms import is_fundamental_discriminant, kernel_classes, order_data
from oracles import (coset_label, coset_label_by_matrices, decompose_gamma, enumerate_cartan,
                     generator_ideal, generator_ideal_by_intersection, kernel_classes_by_hnf,
                     kernel_forms_by_filter, mat_det, signo_pairing_by_matrices, sl2_elements,
                     sorted_min_label, two_to_one_by_matrices)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_coset_label_matches_sorted_min_on_sl2(p):
    for g in sl2_elements(p):
        assert coset_label(p, g) == sorted_min_label(p, g), g


@pytest.mark.parametrize("p,dK", [(3, -7), (5, -7), (7, -11), (11, -67), (13, -7)])
def test_coset_label_of_cartan_element_matches_decomposition(p, dK):
    # two_to_one_check labels r_bar directly; the old route labelled the
    # SL_2 factor gamma_i of r_bar = gamma_i * r_s
    emb = build_embedding(p, order_data(dK, 1))
    for r_bar in enumerate_cartan(p, "ns"):
        gamma_i = decompose_gamma(emb, r_bar).gamma_i
        assert coset_label(p, r_bar) == coset_label(p, gamma_i) == sorted_min_label(p, gamma_i)


def _inert_cases():
    small = [(dK, p, f)
             for dK in range(-120, -6) if is_fundamental_discriminant(dK)
             for p in primerange(3, 32) if kronecker(dK, p) == -1
             for f in (1, 2)]
    return small + [(-11, 101, 1), (-7, 199, 2)]


def test_generator_kernel_matches_reduced_forms_filter():
    cases = _inert_cases()
    assert len(cases) > 300
    for dK, p, f in cases:
        order = order_data(dK, f)
        kernel = kernel_classes(order, p)
        assert len(kernel) == p + 1
        assert {kc.form for kc in kernel} == kernel_forms_by_filter(order, p), (dK, p, f)


def test_experiment_finite_beyond_enumeration_bound():
    report = experiment_finite(ExperimentSpec(dK=-11, f=1, p=211, mode="finite_only"))
    assert report.all_passed
    assert report.fiber_count == report.degree == 106


# every fundamental dK in [-300, -5] and inert p < 80; one test per conductor
SWEEP = [(dK, p) for dK in range(-300, -4) if is_fundamental_discriminant(dK)
         for p in primerange(3, 80) if kronecker(dK, p) == -1]


@pytest.mark.parametrize("f", [1, 2, 3, 5, 6, 7])
def test_closed_form_kernel_equals_the_hermite_normal_form_route(f):
    cases = [(dK, p) for dK, p in SWEEP if f % p]
    assert len(cases) > 800
    for dK, p in cases:
        order = order_data(dK, f)
        kernel = kernel_classes(order, p)
        # the same forms, class by class, in the same order
        assert kernel == kernel_classes_by_hnf(order, p), (dK, p, f)
        for kc in kernel:
            x1, x2 = kc.proj
            assert (generator_ideal(order, p, x1, x2)
                    == generator_ideal_by_intersection(order, p, x1, x2)), (dK, p, f, x1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_coset_label_from_entries_matches_the_matrix_route_on_gl2(p):
    invertible = 0
    for g in product(range(p), repeat=4):
        if mat_det(p, g):
            invertible += 1
            assert coset_label(p, g) == coset_label_by_matrices(p, g), g
    assert invertible == (p * p - 1) * (p * p - p)


def test_two_to_one_check_returns_the_dict_of_the_matrix_route():
    checked = 0
    for dK in range(-120, -4):
        if not is_fundamental_discriminant(dK):
            continue
        for p in primerange(3, 32):
            if kronecker(dK, p) != -1:
                continue
            for f in (1, 2, 3):
                if f % p == 0:
                    continue
                order = order_data(dK, f)
                emb = build_embedding(p, order)
                kernel = kernel_classes(order, p)
                got, want = two_to_one_check(emb, kernel), two_to_one_by_matrices(emb, kernel)
                # same keys in the same order, same classes in the same order
                assert list(got.items()) == list(want.items()), (dK, p, f)
                checked += 1
    assert checked == 458


def test_signo_pairing_closed_form_matches_the_matrix_route():
    rng = random.Random(18)
    fundamentals = [d for d in range(-300, -4) if is_fundamental_discriminant(d)]
    primes = list(primerange(3, 200))
    checked = 0
    while checked < 1000:
        dK, p, f = rng.choice(fundamentals), rng.choice(primes), rng.randint(1, 12)
        if kronecker(dK, p) != -1 or f % p == 0:
            continue
        emb = build_embedding(p, order_data(dK, f))
        assert signo_pairing_check(emb) is signo_pairing_by_matrices(emb) is True, (dK, p, f)
        checked += 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_signo_pairing_closed_form_on_hand_built_matrices(p):
    # every (a, b, c, d): w = (0, b; c, d - a) is singular exactly when bc = 0,
    # and then the matrix route raises while the closed form reads False
    order = order_data(-7, 1)
    seen = set()
    for a, b, c, d in product(range(p), repeat=4):
        emb = EmbeddingData(p=p, eps=smallest_nonsquare(p), order=order, iota_omega=(a, b, c, d))
        got = signo_pairing_check(emb)
        if b * c % p == 0:
            with pytest.raises(AssertionError):
                signo_pairing_by_matrices(emb)
            assert got is False
        else:
            assert got is signo_pairing_by_matrices(emb), (a, b, c, d)
        seen.add((b * c % p == 0, a == d, got))
        # entries outside [0, p) are read mod p
        shifted = replace(emb, iota_omega=(a - p, b + p, c - 2 * p, d + 3 * p))
        assert signo_pairing_check(shifted) is got, (a, b, c, d)
    assert seen == {(True, True, False), (True, False, False),
                    (False, True, True), (False, False, False)}

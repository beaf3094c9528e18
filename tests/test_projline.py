"""The group law of P^1(F_p) in oracles.py, the reference for the closed-form
fiber mate of cmtrace.embeddings.two_to_one_check's proof, which
oracles.fibers_paired_by_involution checks on every fiber."""

import random

import pytest
from sympy import primerange

from oracles import (element_order, involution_class, proj_class, proj_elements, proj_inverse,
                     proj_mul, proj_params, proj_pow)


def poly_mul_classes(params, u, v):
    """Oracle: multiply x1 + x2*X in F_p[X]/(X^2 - tX + n) and projectivise."""
    p, t, n = params
    (u1, u2), (v1, v2) = u, v
    z1 = (u1 * v1 - n * u2 * v2) % p
    # X^2 = tX - n substituted by hand, coefficientwise
    z2 = (u1 * v2 + u2 * v1 + t * u2 * v2) % p
    return proj_class(p, z1, z2)


def test_params_require_inert():
    assert proj_params(5, 6, -3) == (5, 1, 2)
    with pytest.raises(ValueError):
        proj_params(5, 0, -1)        # t^2-4n = 4, a square


def test_canonicalisation():
    assert proj_class(5, 3, 0) == (1, 0)
    assert proj_class(5, 4, 2) == (2, 1)
    with pytest.raises(ValueError):
        proj_class(5, 0, 5)


def test_identity_and_worked_example():
    params = proj_params(5, 1, 2)
    one = (1, 0)
    u = proj_class(5, 3, 1)
    assert proj_mul(params, one, u) == u
    assert proj_mul(params, u, one) == u
    sq = proj_mul(params, proj_class(5, 2, 1), proj_class(5, 2, 1))
    assert sq == one                    # xy - n = 2, x + y + t = 5 = 0


def test_cyclic_of_order_six():
    params = proj_params(5, 1, 2)
    orders = sorted(element_order(params, u) for u in proj_elements(5))
    assert orders == [1, 2, 3, 3, 6, 6]


def test_involution_example_and_uniqueness():
    params = proj_params(5, 1, 2)
    w = involution_class(params, 3)     # 2*3 = 6 = 1 = t mod 5
    assert w == (2, 1)
    assert proj_mul(params, w, w) == (1, 0)
    twos = [u for u in proj_elements(5) if element_order(params, u) == 2]
    assert twos == [w]
    with pytest.raises(ValueError):
        involution_class(params, 1)


def test_inverse_and_pow():
    params = proj_params(7, 1, 3)
    for u in proj_elements(7):
        assert proj_mul(params, u, proj_inverse(params, u)) == (1, 0)
        assert proj_pow(params, u, element_order(params, u)) == (1, 0)
        assert proj_pow(params, u, -1) == proj_inverse(params, u)


def test_matches_field_oracle_exhaustively():
    for p, t, n in [(5, 1, 2), (7, 1, 3), (11, 1, 4), (13, 1, 2)]:
        params = proj_params(p, t, n)
        for u in proj_elements(p):
            for v in proj_elements(p):
                assert proj_mul(params, u, v) == poly_mul_classes(params, u, v)


def census(params):
    """(group order, cyclic?, involutions) by exhaustive element orders."""
    els = proj_elements(params[0])
    orders = [element_order(params, u) for u in els]
    invol = [u for u, o in zip(els, orders) if o == 2]
    return len(els), max(orders) == len(els), invol


@pytest.mark.parametrize("p", list(primerange(3, 32)))
def test_census_all_admissible_small(p):
    for t in range(p):
        for n in range(p):
            disc = (t * t - 4 * n) % p
            if pow(disc, (p - 1) // 2, p) != p - 1:
                continue
            params = proj_params(p, t, n)
            size, cyclic, invol = census(params)
            assert size == p + 1 and cyclic
            a = t * pow(2, -1, p) % p
            assert invol == [involution_class(params, a)]


def test_census_random_larger():
    rng = random.Random(2024)
    for p in [37, 61, 97]:
        count = 0
        while count < 5:
            t, n = rng.randrange(p), rng.randrange(p)
            disc = (t * t - 4 * n) % p
            if pow(disc, (p - 1) // 2, p) != p - 1:
                continue
            count += 1
            params = proj_params(p, t, n)
            size, cyclic, invol = census(params)
            assert size == p + 1 and cyclic and len(invol) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_closed_form_fiber_mate_is_the_product_with_the_involution(p):
    # two_to_one_check's mate of [x1 : x2] at t = 2a is [-a x1 - n x2 : x1 + a x2]
    for a in range(p):
        for n in range(p):
            if pow((a * a - n) % p, (p - 1) // 2, p) != p - 1:
                continue                      # t^2 - 4n = 4 (a^2 - n) must be a non-square
            params = proj_params(p, 2 * a, n)
            invol = involution_class(params, a)
            for x1, x2 in proj_elements(p):
                assert proj_class(p, -a * x1 - n * x2, x1 + a * x2) == proj_mul(
                    params, (x1, x2), invol)

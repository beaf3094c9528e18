import random

import pytest
from sympy import primerange

from cmtrace.projline import (ProjClass, ProjParams, involution_class, proj_class,
                              proj_elements, proj_mul)
from oracles import element_order, proj_identity, proj_inverse, proj_pow


def poly_mul_classes(params, u, v):
    """Oracle: multiply x1 + x2*X in F_p[X]/(X^2 - tX + n) and projectivise."""
    p, t, n = params.p, params.t, params.n
    z1 = (u.x1 * v.x1 - n * u.x2 * v.x2) % p
    # X^2 = tX - n substituted by hand, coefficientwise
    z2 = (u.x1 * v.x2 + u.x2 * v.x1 + t * u.x2 * v.x2) % p
    return proj_class(p, z1, z2)


def group_table(params):
    els = proj_elements(params.p)
    return {(u, v): proj_mul(params, u, v) for u in els for v in els}


def test_params_require_inert():
    ProjParams(5, 1, 2)
    with pytest.raises(ValueError):
        ProjParams(5, 0, -1)        # t^2-4n = 4, a square


def test_canonicalisation():
    assert proj_class(5, 3, 0) == ProjClass(1, 0)
    assert proj_class(5, 4, 2) == ProjClass(2, 1)
    with pytest.raises(ValueError):
        proj_class(5, 0, 5)


def test_identity_and_worked_example():
    params = ProjParams(5, 1, 2)
    one = proj_identity()
    u = proj_class(5, 3, 1)
    assert proj_mul(params, one, u) == u
    assert proj_mul(params, u, one) == u
    sq = proj_mul(params, proj_class(5, 2, 1), proj_class(5, 2, 1))
    assert sq == one                    # xy - n = 2, x + y + t = 5 = 0


def test_cyclic_of_order_six():
    params = ProjParams(5, 1, 2)
    orders = sorted(element_order(params, u) for u in proj_elements(5))
    assert orders == [1, 2, 3, 3, 6, 6]


def test_involution_example_and_uniqueness():
    params = ProjParams(5, 1, 2)
    w = involution_class(params, 3)     # 2*3 = 6 = 1 = t mod 5
    assert w == ProjClass(2, 1)
    assert proj_mul(params, w, w) == proj_identity()
    twos = [u for u in proj_elements(5) if element_order(params, u) == 2]
    assert twos == [w]
    with pytest.raises(ValueError):
        involution_class(params, 1)


def test_inverse_and_pow():
    params = ProjParams(7, 1, 3)
    for u in proj_elements(7):
        assert proj_mul(params, u, proj_inverse(params, u)) == proj_identity()
        assert proj_pow(params, u, element_order(params, u)) == proj_identity()
        assert proj_pow(params, u, -1) == proj_inverse(params, u)


def test_matches_field_oracle_exhaustively():
    for p, t, n in [(5, 1, 2), (7, 1, 3), (11, 1, 4), (13, 1, 2)]:
        params = ProjParams(p, t, n)
        for u in proj_elements(p):
            for v in proj_elements(p):
                assert proj_mul(params, u, v) == poly_mul_classes(params, u, v)


def census(params):
    """(group order, cyclic?, involutions) by exhaustive element orders."""
    els = proj_elements(params.p)
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
            params = ProjParams(p, t, n)
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
            params = ProjParams(p, t, n)
            size, cyclic, invol = census(params)
            assert size == p + 1 and cyclic and len(invol) == 1

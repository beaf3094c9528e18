import random

import pytest
from sympy import primerange

from cmtrace.fp import (CARTAN_KINDS, FpMatrix, FpParams, cartan_membership, identity,
                        in_cartan_group, index_ns_plus, legendre, smallest_nonsquare,
                        sqrt_mod_p)
from oracles import (EnumerationBoundError, cartan_intersection_ns_s, enumerate_cartan,
                     index_ns_plus_by_enumeration, lift_to_integral_sl2, sl2_elements)


def test_params_validation():
    assert FpParams(5).eps == 2
    assert FpParams(7).eps == 3
    with pytest.raises(ValueError):
        FpParams(9)
    with pytest.raises(ValueError):
        FpParams(2)
    with pytest.raises(ValueError):
        FpParams(5, eps=4)          # 4 = 2^2 is a square
    assert FpParams(5, eps=3).eps == 3


def test_matrix_basics():
    m = FpMatrix(5, 7, -1, 2, 3)
    assert m.entries == (2, 4, 2, 3)
    assert m.det() == (2 * 3 - 4 * 2) % 5
    assert m.mul(m.inv()) == identity(5)
    assert m.charpoly_coeffs() == (m.trace(), m.det())


def test_membership_examples():
    p5 = FpParams(5)
    assert cartan_membership(identity(5), "ns", p5)
    assert cartan_membership(FpMatrix(5, 1, 1, 2, 1), "ns", p5)     # b*eps = 2 = c
    m = FpMatrix(5, 1, 0, 0, -1)
    assert not cartan_membership(m, "ns", p5)
    assert cartan_membership(m, "ns+", p5)
    assert cartan_membership(FpMatrix(5, 3, 0, 0, 4), "s", p5)
    assert not cartan_membership(FpMatrix(5, 0, 1, 2, 0), "s", p5)
    assert cartan_membership(FpMatrix(5, 0, 1, 2, 0), "s+", p5)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_group_sizes(p):
    params = FpParams(p)
    sizes = {
        "ns": p * p - 1,
        "s": (p - 1) ** 2,
        "ns+": 2 * (p * p - 1),
        "s+": 2 * (p - 1) ** 2,
    }
    for kind in CARTAN_KINDS:
        got = enumerate_cartan(params, kind)
        assert len(got) == sizes[kind]
        assert len(set(got)) == len(got)


def test_ns_plus_normalizes_ns():
    params = FpParams(5)
    ns = set(enumerate_cartan(params, "ns"))
    for g in enumerate_cartan(params, "ns+"):
        gi = g.inv()
        assert {g.mul(m).mul(gi) for m in ns} == ns


def test_normalizer_quotients_have_size_two():
    for p in (5, 7):
        params = FpParams(p)
        assert len(enumerate_cartan(params, "ns+")) == 2 * len(enumerate_cartan(params, "ns"))
        assert len(enumerate_cartan(params, "s+")) == 2 * len(enumerate_cartan(params, "s"))


def test_det_surjective_on_ns():
    # needed for the SL_2 conjugation step in the embedding construction
    for p in primerange(3, 98):
        params = FpParams(p)
        dets = {(a * a - params.eps * b * b) % p
                for a in range(p) for b in range(p) if (a, b) != (0, 0)}
        assert dets == set(range(1, p))


def test_intersection_and_index():
    params = FpParams(5)
    inter = cartan_intersection_ns_s(params)
    assert len(inter) == 16
    for m in inter:
        assert in_cartan_group(m, "ns+", params) and in_cartan_group(m, "s+", params)
    assert index_ns_plus(params) == 3
    assert index_ns_plus(FpParams(7)) == 4
    assert index_ns_plus(FpParams(13)) == 7
    for p in (5, 7, 13):
        assert index_ns_plus_by_enumeration(FpParams(p)) == index_ns_plus(FpParams(p))


def test_enumeration_bound():
    with pytest.raises(EnumerationBoundError):
        enumerate_cartan(FpParams(211), "ns")


def test_lift_identity_and_fixed_matrices():
    for p in (5, 11):
        lift = lift_to_integral_sl2(identity(p))
        assert lift == ((1, 0), (0, 1))
        j = lift_to_integral_sl2(FpMatrix(p, 0, -1, 1, 0))
        (a, b), (c, d) = j
        assert a * d - b * c == 1
        assert (a % p, b % p, c % p, d % p) == (0, p - 1, 1, 0)


def test_lift_exhaustive_small_p():
    for m in sl2_elements(5):
        (a, b), (c, d) = lift_to_integral_sl2(m)
        assert a * d - b * c == 1
        assert FpMatrix(5, a, b, c, d) == m


def test_lift_random_with_level():
    rng = random.Random(11)
    p = 11
    for _ in range(40):
        while True:
            a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            if a:
                d = (1 + b * c) * pow(a, -1, p) % p
                break
        m = FpMatrix(p, a, b, c, d)
        for level in (1, 6):
            (la, lb), (lc, ld) = lift_to_integral_sl2(m, level=level)
            assert la * ld - lb * lc == 1
            assert FpMatrix(p, la, lb, lc, ld) == m
            assert lc % level == 0
            bound = 4 * (p * level) ** 3
            assert max(abs(la), abs(lb), abs(lc), abs(ld)) <= bound


def test_lift_rejects_bad_det():
    with pytest.raises(ValueError):
        lift_to_integral_sl2(FpMatrix(5, 2, 0, 0, 2))
    with pytest.raises(ValueError):
        lift_to_integral_sl2(identity(5), level=10)   # shares the prime


def test_legendre_and_nonsquare():
    assert legendre(2, 5) == -1
    assert legendre(4, 5) == 1
    assert legendre(0, 5) == 0
    assert smallest_nonsquare(7) == 3


def test_sqrt_mod_p_is_smallest_root():
    # the root fixes iota(omega), and with it every coset label
    for p in primerange(3, 400):
        for a in range(1, p):
            if legendre(a, p) == 1:
                r = sqrt_mod_p(a, p)
                assert r * r % p == a and r <= p - r
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_p(a, p)
    assert sqrt_mod_p(0, 7) == 0

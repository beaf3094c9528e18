import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange
from sympy.ntheory import sqrt_mod

from cmtrace.fp import (CARTAN_KINDS, MR_BOUND, TRIAL_BOUND, ArithmeticBoundError, FpMatrix,
                        FpParams, cartan_membership, factorint, in_cartan_group,
                        index_ns_plus, isprime, kronecker, smallest_nonsquare, sqrt_mod_p)
from oracles import (EnumerationBoundError, cartan_intersection_ns_s, enumerate_cartan,
                     identity, index_ns_plus_by_enumeration, lift_to_integral_sl2, sl2_elements)


def test_params_validation():
    assert FpParams(5).eps == 2
    assert FpParams(7).eps == 3
    with pytest.raises(ValueError):
        FpParams(9)
    with pytest.raises(ValueError):
        FpParams(2)


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
    assert kronecker(2, 5) == -1
    assert kronecker(4, 5) == 1
    assert kronecker(0, 5) == 0
    assert smallest_nonsquare(7) == 3


def test_sqrt_mod_p_is_smallest_root():
    # the root fixes iota(omega), and with it every coset label; p = 1 mod 2^k
    # for growing k takes Tonelli-Shanks through more rounds
    for p in (*primerange(3, 400), 577, 769, 4993):
        for a in range(1, p):
            if kronecker(a, p) == 1:
                r = sqrt_mod_p(a, p)
                assert r * r % p == a and r <= p - r
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_p(a, p)
    assert sqrt_mod_p(0, 7) == 0


# The small-integer arithmetic against sympy, the reference implementation.

PRIMES_TO_5000 = list(primerange(3, 5000))
# psi_4, psi_9 (= psi_11) and psi_12: the least strong pseudoprimes to the
# first 4, 9 and 12 prime bases, which only base 41 unmasks in the last case
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)
# random integers below MR_BOUND are nearly all composite with a small factor,
# so primes and products of two large primes are drawn too
PRIME_LIKE = st.one_of(
    st.integers(-10, MR_BOUND - 1),
    st.integers(2, 10 ** 24).map(sympy.nextprime),
    st.tuples(st.integers(2, 10 ** 12), st.integers(2, 10 ** 12)).map(
        lambda t: sympy.nextprime(t[0]) * sympy.nextprime(t[1])),
)


def test_isprime_matches_sympy_below_20000():
    assert [n for n in range(-5, 20000) if isprime(n)] == list(primerange(20000))


@settings(max_examples=300, deadline=None)
@given(PRIME_LIKE)
def test_isprime_matches_sympy(n):
    assert isprime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_read_composite(n):
    assert not isprime(n) and not sympy.isprime(n)


def test_isprime_raises_the_bound_at_a_probable_prime_beyond_it():
    # MR_BOUND itself passes all thirteen bases, so it cannot be decided
    with pytest.raises(ArithmeticBoundError, match=str(MR_BOUND)):
        isprime(MR_BOUND)
    assert not isprime(MR_BOUND + 1)             # even: composite beyond the bound too


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 10 ** 10),
                 st.tuples(st.lists(st.sampled_from([2, 3, 5, 7, 11, 997, 65537]), max_size=8),
                           st.sampled_from([1, 1000003, 10 ** 12 + 39, 10 ** 20 + 39])).map(
                     lambda t: sympy.prod(t[0]) * t[1])))
def test_factorint_matches_sympy(n):
    # at most one prime factor above TRIAL_BOUND, the most factorint takes
    got = factorint(n)
    assert got == sympy.factorint(n)
    assert list(got) == sorted(got)


def test_factorint_rejects_a_composite_cofactor_above_the_bound_squared():
    assert TRIAL_BOUND == 10 ** 6
    b = 1000003 * 1000033                        # two primes above TRIAL_BOUND
    with pytest.raises(ArithmeticBoundError, match=f"bound {TRIAL_BOUND}"):
        factorint(432 * b)
    assert factorint(432 * 1000003) == {2: 4, 3: 3, 1000003: 1}
    # the largest prime below the bound is still found by trial division
    assert factorint(999983 ** 2 * 1000003) == {999983: 2, 1000003: 1}
    with pytest.raises(ValueError):
        factorint(0)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(PRIMES_TO_5000), st.integers(0, 10 ** 6))
def test_sqrt_mod_p_matches_sympy(p, x):
    a = x * x % p if x % 3 else x % p            # squares, and anything at all
    if kronecker(a, p) == -1:
        with pytest.raises(ValueError):
            sqrt_mod_p(a, p)
        return
    r = sqrt_mod_p(a, p)
    assert r == sqrt_mod(a, p) and r <= p // 2 and r * r % p == a % p


@settings(max_examples=500, deadline=None)
@given(st.integers(-10 ** 12, 10 ** 12), st.integers(0, 10 ** 9))
def test_kronecker_matches_sympy_jacobi_for_odd_n(a, k):
    n = 2 * k + 1
    assert kronecker(a, n) == sympy.jacobi_symbol(a, n)

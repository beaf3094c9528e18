import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange
from sympy.ntheory import sqrt_mod

from cmtrace.embeddings import build_embedding
from cmtrace.errors import InputError
from cmtrace.fp import (MR_BOUND, TRIAL_BOUND, ArithmeticBoundError, factorint, index_ns_plus,
                        isprime, kronecker, order_data, smallest_nonsquare, sqrt_mod_p)
from oracles import (CARTAN_KINDS, IDENTITY, EnumerationBoundError, cartan_intersection_ns_s,
                     enumerate_cartan, in_cartan_group, index_ns_plus_by_enumeration,
                     lift_to_integral_sl2, mat, mat_det, mat_inv, mat_mul, sl2_elements)


def test_params_validation():
    # the odd-prime check and eps, the smallest non-square, of the embedding
    assert build_embedding(5, order_data(-7, 1)).eps == 2
    assert build_embedding(7, order_data(-11, 1)).eps == 3
    with pytest.raises(InputError, match="odd prime"):
        build_embedding(9, order_data(-7, 1))
    with pytest.raises(InputError, match="odd prime"):
        build_embedding(2, order_data(-7, 1))


def test_matrix_basics():
    m = mat(5, 7, -1, 2, 3)
    assert m == (2, 4, 2, 3)
    assert mat_det(5, m) == (2 * 3 - 4 * 2) % 5
    assert mat_mul(5, m, mat_inv(5, m)) == mat_mul(5, mat_inv(5, m), m) == IDENTITY
    with pytest.raises(ValueError):
        mat_inv(5, (1, 2, 2, 4))


def test_membership_examples():
    assert in_cartan_group(5, IDENTITY, "ns")
    assert in_cartan_group(5, (1, 1, 2, 1), "ns")      # b*eps = 2 = c
    m = mat(5, 1, 0, 0, -1)
    assert not in_cartan_group(5, m, "ns")
    assert in_cartan_group(5, m, "ns+")
    assert in_cartan_group(5, (3, 0, 0, 4), "s")
    assert not in_cartan_group(5, (0, 1, 2, 0), "s")
    assert in_cartan_group(5, (0, 1, 2, 0), "s+")
    assert not in_cartan_group(5, (0, 0, 0, 0), "s")   # the pattern, but singular


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_group_sizes(p):
    sizes = {
        "ns": p * p - 1,
        "s": (p - 1) ** 2,
        "ns+": 2 * (p * p - 1),
        "s+": 2 * (p - 1) ** 2,
    }
    for kind in CARTAN_KINDS:
        got = enumerate_cartan(p, kind)
        assert len(got) == sizes[kind]
        assert len(set(got)) == len(got)


def test_ns_plus_normalizes_ns():
    ns = set(enumerate_cartan(5, "ns"))
    for g in enumerate_cartan(5, "ns+"):
        gi = mat_inv(5, g)
        assert {mat_mul(5, mat_mul(5, g, m), gi) for m in ns} == ns


def test_normalizer_quotients_have_size_two():
    for p in (5, 7):
        assert len(enumerate_cartan(p, "ns+")) == 2 * len(enumerate_cartan(p, "ns"))
        assert len(enumerate_cartan(p, "s+")) == 2 * len(enumerate_cartan(p, "s"))


def test_det_surjective_on_ns():
    # needed for the SL_2 conjugation step in the embedding construction
    for p in primerange(3, 98):
        eps = smallest_nonsquare(p)
        dets = {(a * a - eps * b * b) % p
                for a in range(p) for b in range(p) if (a, b) != (0, 0)}
        assert dets == set(range(1, p))


def test_intersection_and_index():
    inter = cartan_intersection_ns_s(5)
    assert len(inter) == 16
    for m in inter:
        assert in_cartan_group(5, m, "ns+") and in_cartan_group(5, m, "s+")
    assert index_ns_plus(5) == 3
    assert index_ns_plus(7) == 4
    assert index_ns_plus(13) == 7
    for p in (5, 7, 13):
        assert index_ns_plus_by_enumeration(p) == index_ns_plus(p)


def test_enumeration_bound():
    with pytest.raises(EnumerationBoundError):
        enumerate_cartan(211, "ns")


def test_lift_identity_and_fixed_matrices():
    for p in (5, 11):
        lift = lift_to_integral_sl2(p, IDENTITY)
        assert lift == ((1, 0), (0, 1))
        j = lift_to_integral_sl2(p, mat(p, 0, -1, 1, 0))
        (a, b), (c, d) = j
        assert a * d - b * c == 1
        assert (a % p, b % p, c % p, d % p) == (0, p - 1, 1, 0)


def test_lift_exhaustive_small_p():
    for m in sl2_elements(5):
        (a, b), (c, d) = lift_to_integral_sl2(5, m)
        assert a * d - b * c == 1
        assert mat(5, a, b, c, d) == m


def test_lift_random_with_level():
    rng = random.Random(11)
    p = 11
    for _ in range(40):
        while True:
            a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            if a:
                d = (1 + b * c) * pow(a, -1, p) % p
                break
        m = (a, b, c, d)
        for level in (1, 6):
            (la, lb), (lc, ld) = lift_to_integral_sl2(p, m, level=level)
            assert la * ld - lb * lc == 1
            assert mat(p, la, lb, lc, ld) == m
            assert lc % level == 0
            bound = 4 * (p * level) ** 3
            assert max(abs(la), abs(lb), abs(lc), abs(ld)) <= bound


def test_lift_rejects_bad_det():
    with pytest.raises(ValueError):
        lift_to_integral_sl2(5, (2, 0, 0, 2))
    with pytest.raises(ValueError):
        lift_to_integral_sl2(5, IDENTITY, level=10)   # shares the prime


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
    # no primality test is run, so primes that isprime cannot decide are
    # served, on both routes: p = 3 mod 4, and p = 1 mod 8 for Tonelli-Shanks
    p3 = sympy.nextprime(MR_BOUND)
    p1 = sympy.nextprime(p3)
    while p1 % 8 != 1:
        p1 = sympy.nextprime(p1)
    for p in (p3, p1):
        for x in (2, 10 ** 20 + 7, 3 ** 50):
            assert sqrt_mod_p(x * x, p) == min(x % p, -x % p)


def test_sqrt_mod_p_rejects_a_modulus_that_is_no_odd_prime():
    for a, n in [(1, 2), (1, 4), (1, 1), (1, 0), (1, -7)]:
        with pytest.raises(InputError, match="odd prime"):
            sqrt_mod_p(a, n)
    # (2|33) = 1 although 2 is no square mod 33: the Tonelli-Shanks t = 2 has
    # no 2-power order, and the search for one is cut at 2^m = 32
    assert kronecker(2, 33) == 1
    with pytest.raises(InputError, match="no square root of 2 mod 33"):
        sqrt_mod_p(2, 33)
    # (2|15) = 1, and the p = 3 mod 4 route gives 2^4 = 1, which does not
    # square back to 2
    assert kronecker(2, 15) == 1
    with pytest.raises(InputError, match="no square root of 2 mod 15"):
        sqrt_mod_p(2, 15)
    # at every odd composite the call ends, with a root or an InputError
    for n in range(9, 300, 2):
        if isprime(n):
            continue
        for a in range(n):
            try:
                r = sqrt_mod_p(a, n)
            except InputError:
                continue
            assert r * r % n == a, (a, n)


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

"""Properties of the Galois kernel, its finite shadow and the Galois orbit over
random inert (dK, f, p) with p <= 31.

The orbit is taken on X_0(p^2): the base point has conductor p*f, and each
orbit member comes from one kernel class, so comparing member by member with
Gaussian composition (an oracle) ties the classes that galois_orbit
composes with to the forms that kernel_classes writes down.  The two-row
kernel ideal of the lattice oracle is compared with the lattice
intersection oracle for random generators lam = x1 + x2*w_f, a unit mod p,
and the closed-form kernel with the forms read off each ideal's Hermite
normal form at inert p up to 10^4.  The Gamma_0(N) reduction that
galois_orbit applies to each member is checked against the oracle that
builds every candidate form, on random N-divisible forms, and shown constant
on Gamma_0(N) classes.  At levels N = p^2 M, every prime of M split in K,
galois_orbit (Dirichlet composition with the inverse kernel forms) is
compared member by member with the lattice-pair oracle, from the Heegner
form and from an orbit member whose leading coefficient exceeds N.
"""

from math import gcd

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import primefactors, primerange

from cmtrace.finite import ExperimentSpec, experiment_finite
from cmtrace.fp import is_fundamental_discriminant, kronecker, order_data
from cmtrace.heegner import galois_orbit, gamma0_reduce, heegner_form
from cmtrace.quadforms import BinaryForm, kernel_classes, lagrange_reduce, reduce_form
from oracles import (_complete_unimodular, compose, form_inverse, galois_orbit_by_lattices,
                     gamma0_reduce_all_candidates, generator_ideal,
                     generator_ideal_by_intersection, involution_class, kernel_classes_by_hnf,
                     principal_form, project_form, proj_mul, proj_params)

CASES = [(dK, f, p)
         for dK in range(-200, -6) if is_fundamental_discriminant(dK)
         for p in primerange(3, 32) if kronecker(dK, p) == -1
         for f in range(1, 6) if f % p]
PROPERTY = settings(max_examples=30, deadline=None)
# (dK, f, p, M): every prime of M splits in K and is prime to f; M = 4 is
# the shape of 36a1, M = 6 and 10 have two primes
LEVEL_CASES = [(dK, f, p, m) for dK, f, p in CASES for m in (1, 2, 3, 4, 5, 6, 7, 10)
               if all(kronecker(dK, q) == 1 and f % q for q in primefactors(m))]


@PROPERTY
@given(st.sampled_from(CASES))
def test_kernel_has_p_plus_one_distinct_classes_that_die_in_pic_of_o_f(case):
    dK, f, p = case
    order = order_data(dK, f)
    kernel = kernel_classes(order, p)
    forms = [kc.form for kc in kernel]
    assert len(set(forms)) == len(forms) == p + 1
    principal = principal_form(order.disc)
    for form in forms:
        assert form.disc() == p * p * order.disc and form == reduce_form(form)
        assert project_form(form, dK, p * f, f) == principal


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CASES), st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_closed_form_kernel_ideal_equals_the_lattice_intersection(case, x1, x2):
    dK, f, p = case
    assume(x1 % p or x2 % p)
    order = order_data(dK, f)
    assert generator_ideal(order, p, x1, x2) == generator_ideal_by_intersection(order, p, x1, x2)


FUNDAMENTAL = [dK for dK in range(-300, -4) if is_fundamental_discriminant(dK)]
WIDE_PRIMES = list(primerange(3, 10 ** 4))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(FUNDAMENTAL), st.sampled_from(WIDE_PRIMES), st.integers(1, 7),
       st.integers(0, 10 ** 4))
def test_closed_form_kernel_equals_the_hermite_normal_form_route_at_wide_p(dK, p, f, x1):
    assume(kronecker(dK, p) == -1 and f % p)
    order = order_data(dK, f)
    assert kernel_classes(order, p) == kernel_classes_by_hnf(order, p)
    x1 %= p
    assert generator_ideal(order, p, x1, 1) == generator_ideal_by_intersection(order, p, x1, 1)


@PROPERTY
@given(st.sampled_from(CASES))
def test_finite_checks_hold_and_fibers_pair_by_the_involution(case):
    dK, f, p = case
    report = experiment_finite(ExperimentSpec(dK=dK, f=f, p=p, mode="finite_only"))
    assert report.all_passed, report.checks
    order = order_data(dK, f)
    params = proj_params(p, order.t, order.n)
    invol = involution_class(params, order.t * pow(2, -1, p) % p)
    assert len(report.fibers) == report.degree == (p + 1) // 2
    for u, v in report.fibers.values():
        assert proj_mul(params, u, invol) == v
    assert sorted(w for pair in report.fibers.values() for w in pair) == sorted(
        kc.proj for kc in kernel_classes(order, p))


def _orbit(dK, f, p):
    kernel = kernel_classes(order_data(dK, f), p)
    base = heegner_form(p * p, dK, p * f)
    return kernel, base, galois_orbit(base, p * p, [kc.form for kc in kernel])


@PROPERTY
@given(st.sampled_from(CASES))
def test_orbit_member_is_base_times_its_conjugate_kernel_ideal(case):
    kernel, base, orbit = _orbit(*case)
    base_class = reduce_form(base)
    assert len(orbit) == len(kernel)
    for kc, pt in zip(kernel, orbit):
        # the orbit multiplies by the conjugate ideal, whose class is the inverse
        assert reduce_form(pt) == compose(base_class, form_inverse(kc.form))
        assert pt.a % (case[2] ** 2) == 0


@PROPERTY
@given(st.sampled_from(CASES))
def test_identity_class_reproduces_the_base_point(case):
    kernel, base, orbit = _orbit(*case)
    assert kernel[0].proj == (1, 0)
    assert orbit[0] == gamma0_reduce(base, case[2] ** 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 40), st.integers(-300, 300), st.integers(1, 500),
       st.integers(-60, 60), st.integers(-60, 60))
def test_gamma0_reduce_builds_only_the_minimal_candidates(n_level, k, b, extra, x, y0):
    # a positive definite N-divisible form, moved by a random Gamma_0(N) matrix
    a = n_level * k
    form = BinaryForm(a, b, b * b // (4 * a) + extra)
    y = n_level * y0
    assume(gcd(x, y) == 1)
    u, v = _complete_unimodular(x, y)
    moved = form.transform(x, u, y, v)
    red = gamma0_reduce(moved, n_level)
    assert red == gamma0_reduce_all_candidates(moved, n_level)
    # constant on Gamma_0(N) classes, which makes galois_orbit independent of its basis
    assert red == gamma0_reduce(form, n_level)
    # no primitive vector of a box wider than the oracle's [-4, 4]^2 goes below A
    v1, v2 = lagrange_reduce((2 * moved.a, moved.b, 2 * moved.c), (1, 0), (0, n_level))
    for s in range(-12, 13):
        for t in range(-12, 13):
            x, y = s * v1[0] + t * v2[0], s * v1[1] + t * v2[1]
            if gcd(x, y) == 1:
                assert moved.value(x, y) >= red.a


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LEVEL_CASES))
@example((-199, 5, 3, 4))
@example((-191, 5, 7, 6))
@example((-199, 3, 11, 10))
def test_orbit_by_composition_equals_the_lattice_route(case):
    dK, f, p, m = case
    n_level = p * p * m
    order = order_data(dK, f)
    kernel = kernel_classes(order, p)
    forms = [kc.form for kc in kernel]
    base = heegner_form(n_level, dK, p * f)
    orbit = galois_orbit(base, n_level, forms)
    assert orbit == galois_orbit_by_lattices(base, n_level, order, p, kernel)
    # rebased on a member with A0 > N: the representative of each inverse
    # kernel form must be prime to A0, not only to N
    rebased = max(orbit, key=lambda pt: pt.a)
    assert rebased.a > n_level
    assert (galois_orbit(rebased, n_level, forms)
            == galois_orbit_by_lattices(rebased, n_level, order, p, kernel))

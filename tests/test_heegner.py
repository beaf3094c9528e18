from math import gcd

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cmtrace.errors import InputError
from cmtrace.fp import is_fundamental_discriminant, kronecker, order_data
from cmtrace.heegner import (NoHeegnerPoint, _has_square_root, _prime_to, galois_orbit,
                             gamma0_reduce, heegner_form)
from cmtrace.quadforms import BinaryForm, kernel_classes, lagrange_reduce, reduce_form
from oracles import (compose, galois_orbit_by_lattices, gamma0_reduce_all_candidates,
                     generator_ideal, generator_ideal_three_rows, heegner_form_all_roots,
                     heegner_tau)


def brute_stratum_minimum(n_level, dK, c, p):
    """Oracle: scan all B with B^2 = c^2 dK mod 4N and p^2 | B, pick min |B|."""
    disc = c * c * dK
    best = None
    for b in range(-2 * n_level, 2 * n_level + 1):
        if (b * b - disc) % (4 * n_level):
            continue
        if p and b % (p * p):
            continue
        cand = BinaryForm(n_level, b, (b * b - disc) // (4 * n_level))
        if not cand.is_primitive():
            continue
        if best is None or (abs(cand.b), -cand.b) < (abs(best.b), -best.b):
            best = cand
    return best


def test_heegner_form_examples():
    f = heegner_form(49, -11, 7)
    assert f == BinaryForm(49, 49, 15)
    assert f.disc() == -539 and f.b % 49 == 0
    assert f == brute_stratum_minimum(49, -11, 7, 7)
    f2 = heegner_form(121, -67, 11)
    assert f2 == BinaryForm(121, 121, 47)
    assert f2 == brute_stratum_minimum(121, -67, 11, 11)


def test_conductor_one_obstruction():
    with pytest.raises(NoHeegnerPoint):
        heegner_form(49, -11, 1)
    # sanity: -11 is a non-residue mod 7
    assert kronecker(-11, 7) == -1
    heegner_form(49, -11, 7)                 # succeeds


def test_heegner_form_classical_level():
    # coprime level: N = 11, dK = -7 (both primes split), conductor 1
    f = heegner_form(11, -7, 1)
    assert f.a == 11 and f.disc() == -7


def test_galois_orbit_rejects_a_base_form_not_divisible_by_n():
    # (7, 7, 21) has the discriminant -539 of the kernel forms, but 49 does not divide 7
    kernel = kernel_classes(order_data(-11, 1), 7)
    with pytest.raises(InputError, match="base form"):
        galois_orbit(BinaryForm(7, 7, 21), 49, [kc.form for kc in kernel])


def test_gamma0_reduce():
    base = BinaryForm(49, 49, 15)
    big = base.transform(1, 0, 49, 1)         # a Gamma_0(49) translate, huge A
    assert big.a != base.a
    red = gamma0_reduce(big, 49)
    assert red.a % 49 == 0
    assert reduce_form(red) == reduce_form(base)
    assert red.a <= big.a
    assert -red.a < red.b <= red.a


@pytest.mark.parametrize("form,n_level", [
    (BinaryForm(472879820400, 494068074625, 129051426934), 2166),
    (BinaryForm(288983019780, 149314207443, 19287234040), 3610),
    (BinaryForm(7132514220, 8711708769, 2660137342), 2890),
])
def test_gamma0_reduce_when_no_short_basis_vector_is_primitive(form, n_level):
    # orbit members of the level cases, rebased: v1, v2 and v1 +- v2 of the
    # reduced basis all have a common factor (one of 2, 3 or 5, and the
    # square prime of N), and A = Q(1, 0) is 2000 to 97000 times the minimum, so
    # the bound grows from Q(v1) instead of starting at A
    v1, v2 = lagrange_reduce((2 * form.a, form.b, 2 * form.c), (1, 0), (0, n_level))
    assert all(gcd(x, y) > 1 for x, y in (v1, v2, (v1[0] + v2[0], v1[1] + v2[1]),
                                          (v1[0] - v2[0], v1[1] - v2[1])))
    red = gamma0_reduce(form, n_level)
    assert red == gamma0_reduce_all_candidates(form, n_level)
    assert 1000 * red.a < form.a


def orbit_setup(dK, p, ai_level):
    order = order_data(dK, 1)
    kernel = kernel_classes(order, p)
    return order, kernel, heegner_form(ai_level, dK, p)


def test_orbit_size_and_base_membership():
    order, kernel, base = orbit_setup(-11, 7, 49)
    orbit = galois_orbit(base, 49, [kc.form for kc in kernel])
    assert len(orbit) == 8
    # identity class reproduces the base point
    assert reduce_form(orbit[0]) == reduce_form(base)
    assert orbit[0] == gamma0_reduce(base, 49)
    # distinct ideal classes
    assert len({reduce_form(pt) for pt in orbit}) == 8


def test_orbit_classes_are_base_times_kernel():
    order, kernel, base = orbit_setup(-11, 7, 49)
    orbit = galois_orbit(base, 49, [kc.form for kc in kernel])
    base_class = reduce_form(base)
    got = {reduce_form(pt) for pt in orbit}
    expected = {reduce_form(compose(base_class, kc.form)) for kc in kernel}
    assert got == expected


def test_orbit_stable_under_rebasing():
    order, kernel, base = orbit_setup(-11, 7, 49)
    orbit = galois_orbit(base, 49, [kc.form for kc in kernel])
    assert set(orbit) == set(galois_orbit(orbit[3], 49, [kc.form for kc in kernel]))


def test_acting_twice_equals_squared_class():
    from oracles import proj_mul, proj_params
    order, kernel, base = orbit_setup(-11, 7, 49)
    params = proj_params(7, order.t, order.n)
    orbit = galois_orbit(base, 49, [kc.form for kc in kernel])
    index_of = {kc.proj: i for i, kc in enumerate(kernel)}
    # acting twice by the class at idx = acting once by its square
    for idx in (1, 2, 4):
        sq = index_of[proj_mul(params, kernel[idx].proj, kernel[idx].proj)]
        twice = galois_orbit(orbit[idx], 49, [kc.form for kc in kernel])[idx]
        assert reduce_form(twice) == reduce_form(orbit[sq])


def test_orbit_121():
    order, kernel, base = orbit_setup(-67, 11, 121)
    orbit = galois_orbit(base, 121, [kc.form for kc in kernel])
    assert len(orbit) == 12
    assert len({reduce_form(pt) for pt in orbit}) == 12
    for pt in orbit:
        assert pt.a % 121 == 0
        with mp.workdps(40):
            assert mp.im(heegner_tau(pt, 30)) > mp.mpf("0.003")


def test_orbit_rejects_mismatched_kernel():
    order = order_data(-11, 1)
    kernel = kernel_classes(order, 7)
    with pytest.raises(ValueError):
        galois_orbit(heegner_form(121, -67, 11), 121, [kc.form for kc in kernel])


PRIMORIALS = (2, 6, 30, 210, 2310, 30030, 510510, 9699690)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
       st.integers(1, 10 ** 7) | st.sampled_from(PRIMORIALS), st.integers(2, 30))
@example(2, 1, 1, 6, 2)          # 2 + k + k^2 is always even: (c, -b, a) comes first
@example(2, 1, 2, 6, 2)          # F(1, 0) = 2, F(1, 1) = 5
@example(3, 1, 3, 21, 2)         # F(1, k) = 3, 7, 17
def test_representative_prime_to_m_is_in_the_class(a, b, extra, m, g):
    form = BinaryForm(a, b, b * b // (4 * a) + extra)         # positive definite
    assume(form.is_primitive())
    rep = _prime_to(form, m)
    assert reduce_form(rep) == reduce_form(form)
    assert gcd(rep.a, m) == 1
    with pytest.raises(InputError, match="primitive"):
        _prime_to(BinaryForm(g * form.a, g * form.b, g * form.c), m)


def test_heegner_form_composite_level():
    # N = 36, c = 3: stratum 9 | B at the distinguished prime 3
    f = heegner_form(36, -7, 3)
    assert f == BinaryForm(36, 9, 1)
    assert f.b % 9 == 0 and f.disc() == -63


# Orbit forms of the paper's two headline traces, 49a1/-11 and 121b1/-67 at
# f = 1, as recorded before the kernel kept its ideals.
ANCHOR_ORBITS = {
    (-11, 7, 49): [(49, 49, 15), (147, 49, 5), (245, -49, 3), (441, -343, 67),
                   (539, 539, 135), (441, 343, 67), (245, 49, 3), (147, -49, 5)],
    (-67, 11, 121): [(121, 121, 47), (2057, -363, 17), (2299, -2057, 461), (2783, 1573, 223),
                     (3509, 3267, 761), (4477, 2541, 361), (5687, 121, 1), (4477, -2541, 361),
                     (3509, -3267, 761), (2783, -1573, 223), (2299, 2057, 461),
                     (2057, 363, 17)],
}


@pytest.mark.parametrize("dK,p,n_level", sorted(ANCHOR_ORBITS))
def test_orbit_from_kept_ideals_matches_recorded_anchor_forms(dK, p, n_level):
    order, kernel, base = orbit_setup(dK, p, n_level)
    for kc in kernel:
        # the two-row ideal that the lattice oracle conjugates is the
        # three-row one the kernel used to keep
        x1, x2 = kc.proj
        assert (generator_ideal(order, p, x1, x2)
                == generator_ideal_three_rows(order, p, x1, x2))
    for orbit in (galois_orbit(base, n_level, [kc.form for kc in kernel]),
                  galois_orbit_by_lattices(base, n_level, order, p, kernel)):
        assert [tuple(pt) for pt in orbit] == ANCHOR_ORBITS[dK, p, n_level]


@pytest.mark.parametrize("dK", [-12, -44, -1, -28, 5])
def test_heegner_form_rejects_non_fundamental_dk(dK):
    with pytest.raises(ValueError, match=f"dK = {dK} is not a fundamental discriminant"):
        heegner_form(49, dK, 7)


FUNDAMENTAL = [d for d in range(-1000, -2) if is_fundamental_discriminant(d)]
# the levels of the trace catalogue's curves 36a1, 49a1, 50a1, 50b1 and 121b1
CATALOGUE_LEVELS = (36, 49, 50, 121)


def _both_routes(n_level, dK, c):
    """heegner_form and the all-roots oracle: the same form, or the same
    NoHeegnerPoint message."""
    try:
        want = heegner_form_all_roots(n_level, dK, c)
    except NoHeegnerPoint as exc:
        with pytest.raises(NoHeegnerPoint) as got:
            heegner_form(n_level, dK, c)
        assert str(got.value) == str(exc)
        return None
    assert heegner_form(n_level, dK, c) == want
    return want


@pytest.mark.parametrize("n_level", CATALOGUE_LEVELS)
def test_heegner_form_scan_matches_all_roots_at_catalogue_levels(n_level):
    found = 0
    for dK in (d for d in FUNDAMENTAL if d >= -120):
        for c in range(1, 13):
            found += _both_routes(n_level, dK, c) is not None
    assert found


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000), st.sampled_from(FUNDAMENTAL), st.integers(1, 60))
def test_heegner_form_scan_matches_all_roots(n_level, dK, c):
    _both_routes(n_level, dK, c)


def test_square_root_test_matches_the_squares_mod_4n():
    """_has_square_root against the set of squares mod 4N, for every 4N < 2400
    and every residue that is 0 or 1 mod 4, taken negative as a discriminant."""
    for four_n in range(4, 2400, 4):
        squares = {b * b % four_n for b in range(four_n)}
        for r in range(four_n):
            if r % 4 < 2:
                assert _has_square_root(r - 7 * four_n, four_n) == (r in squares), (r, four_n)


def test_unsolvable_congruence_rejected_at_a_large_level():
    # -11 is a non-square mod 5: decided from 4N = 2^9 5^7, not by a scan of
    # the 4 * 10^7 residues
    with pytest.raises(NoHeegnerPoint, match=r"^B\^2 = -11 mod 40000000 has no solution$"):
        heegner_form(10 ** 7, -11, 1)

import random
from functools import lru_cache
from math import gcd

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtrace import experiments, modparam, periods
from cmtrace.curves import Curve
from cmtrace.errors import InputError
from cmtrace.periods import (GUARD, LAMBDA_BUDGET, TORSION_BOUND, Cut, PeriodLattice,
                             _nearest_multiples, _wp_pair, elliptic_exp, is_torsion, locate,
                             period_lattice, read_vector, torsion_residual, two_torsion_roots)
from oracles import (equation_residual, lattice_coords, lattice_distance,
                     lattice_distance_by_search, lattice_reduce, lattice_reduce_descent,
                     nearest_multiples_expanded, nearest_vector, reduced_basis,
                     torsion_order_two_pass, torsion_residual_two_pass,
                     two_torsion_roots_by_polyroots, wp_pair_by_laurent)

LATTICE_CURVES = {              # the five catalogue curves (disc < 0) and 37a1 (disc > 0)
    "49a1": (1, -1, 0, -2, -1),
    "121b1": (0, -1, 1, -7, 10),
    "50a1": (1, 0, 1, -1, -2),
    "50b1": (1, 1, 1, -3, 1),
    "36a1": (0, 0, 0, 0, 1),
    "37a1": (0, 0, 1, -1, 0),
}


def quad_period(cur: Curve, dps=50):
    """Real period by direct quadrature of dX / sqrt(4X^3 + b2X^2 + 2b4X + b6)."""
    with mp.workdps(dps):
        roots = mp.polyroots([4, cur.b2, 2 * cur.b4, cur.b6], extraprec=40)
        e1 = max((r.real for r in roots if abs(r.imag) < mp.mpf(10) ** -30),
                 default=None)
        if e1 is None:
            raise AssertionError("no real root")
        others = [r for r in roots if abs(r - e1) > mp.mpf(10) ** -30]
        f = lambda t: 1 / mp.sqrt(abs((t * t + e1 - others[0]) * (t * t + e1 - others[1])))
        return 2 * mp.quad(f, [0, mp.inf])


def test_lemniscatic_period():
    cur = Curve(0, 0, 0, -1, 0)
    lat = period_lattice(cur, 60)
    with mp.workdps(60):
        expected = mp.mpf("2.62205755429211981046483958989111941368275495143162316281682170")
        assert abs(lat.w1 - expected) < mp.mpf(10) ** -55
        assert abs(lat.w2 / lat.w1 - mp.mpc(0, 1)) < mp.mpf(10) ** -55
        assert abs(lat.w1 - quad_period(cur)) < mp.mpf(10) ** -45


def test_negative_discriminant_period_against_quadrature():
    cur = Curve(1, -1, 0, -2, -1)       # disc = -343
    lat = period_lattice(cur, 60)
    with mp.workdps(60):
        assert abs(lat.w1 - quad_period(cur)) < mp.mpf(10) ** -45
        assert mp.im(lat.w2 / lat.w1) > 0
        # real part of w2 is half a real period in the rhombic case
        assert abs(2 * mp.re(lat.w2) - lat.w1) < mp.mpf(10) ** -55


def test_doubling_digits_stability():
    cur = Curve(0, -1, 1, -7, 10)
    lat1 = period_lattice(cur, 40)
    lat2 = period_lattice(cur, 80)
    with mp.workdps(90):
        assert abs(lat1.w1 - lat2.w1) < mp.mpf(10) ** -40
        assert abs(lat1.w2 - lat2.w2) < mp.mpf(10) ** -40


def test_precision_cap():
    # the lattice checks its precision as every run does (finite.check_digits)
    with pytest.raises(InputError, match="^digits must be between 1 and 200, got 300$"):
        period_lattice(Curve(0, 0, 0, -1, 0), 300)
    with pytest.raises(InputError, match="^digits must be between 1 and 200, got 0$"):
        period_lattice(Curve(0, 0, 0, -1, 0), 0)


@pytest.mark.parametrize("ai", [(0, 0, 0, -1, 0), (1, -1, 0, -2, -1), (0, -1, 1, -7, 10)])
def test_two_torsion_at_half_periods(ai):
    cur = Curve(*ai)
    lat = period_lattice(cur, 50)
    with mp.workdps(60):
        for half in (lat.w1 / 2, lat.w2 / 2, (lat.w1 + lat.w2) / 2):
            pt = elliptic_exp(locate(lat, half))
            assert pt is not None
            x, y = pt
            assert equation_residual(cur, x, y) < mp.mpf(10) ** -40
            # 2-torsion characterisation: 2y + a1 x + a3 = 0
            assert abs(2 * y + cur.a1 * x + cur.a3) < mp.mpf(10) ** -40


def test_exp_satisfies_equation_random():
    cur = Curve(1, -1, 0, -2, -1)
    lat = period_lattice(cur, 60)
    with mp.workdps(75):
        rng = mp.mpf("0.618033988749894848204586834365638117720309179805762862135")
        z = mp.mpf("0.1")
        for k in range(100):
            z = (z + rng) % 1
            w = z * lat.w1 + ((z * 7919) % 1) * lat.w2
            pt = elliptic_exp(locate(lat, w))
            assert pt is not None
            assert equation_residual(cur, *pt) < mp.mpf(10) ** -50


def test_exp_periodicity_and_infinity():
    cur = Curve(0, 0, 0, -1, 0)
    lat = period_lattice(cur, 50)
    with mp.workdps(65):
        z = mp.mpf("0.3") * lat.w1 + mp.mpf("0.31") * lat.w2
        p1 = elliptic_exp(locate(lat, z))
        p2 = elliptic_exp(locate(lat, z + lat.w1))
        p3 = elliptic_exp(locate(lat, z - 3 * lat.w2))
        assert abs(p1[0] - p2[0]) < mp.mpf(10) ** -40
        assert abs(p1[1] - p3[1]) < mp.mpf(10) ** -40
        assert elliptic_exp(locate(lat, mp.mpc(0))) is None
        assert elliptic_exp(locate(lat, 2 * lat.w1 + lat.w2)) is None


@pytest.mark.parametrize("digits", [60, 200])
@pytest.mark.parametrize("label", ["121b1", "37a1", "36a1"])
def test_exp_is_infinity_within_10_to_the_minus_digits_of_w1(label, digits):
    # the point at infinity within 10^-digits |w1| of the lattice vector
    # 2 w1 - w2, an affine point on the curve two orders of magnitude out,
    # with x = 1 / d^2 up to the 25 digits d keeps beside 2 w1 - w2
    lat = _lattice(label, digits)
    with mp.workdps(digits + GUARD):
        v, u = 2 * lat.w1 - lat.w2, mp.expjpi(mp.mpf(1) / 5) * abs(lat.w1)
        assert elliptic_exp(locate(lat, v + u * mp.mpf(10) ** -(digits + 2))) is None
        d = u * mp.mpf(10) ** -(digits - 2)
        x, y = elliptic_exp(locate(lat, v + d))
        assert equation_residual(lat.curve, x, y) < mp.mpf(10) ** -(digits + 20) * abs(x) ** 3
        assert abs(x * d * d - 1) < mp.mpf(10) ** -20


def test_wp_differential_equation():
    for ai in ((0, -1, 1, -7, 10), (0, 0, 1, -1, 0)):     # 121b1, 37a1 (disc > 0)
        cur = Curve(*ai)
        for digits in (50, 200):
            lat = period_lattice(cur, digits)
            with mp.workdps(digits + 15):
                g2 = mp.mpf(cur.c4) / 12
                g3 = mp.mpf(cur.c6) / 216
                z = mp.mpc("0.21", "0.13")
                wp, wpd = _wp_pair(lat, z)
                assert abs(wpd ** 2 - (4 * wp ** 3 - g2 * wp - g3)) < mp.mpf(10) ** -(digits - 5)


def test_lattice_reduce_and_distance():
    cur = Curve(0, 0, 0, -1, 0)
    lat = period_lattice(cur, 50)
    with mp.workdps(60):
        z = mp.mpf("0.2") * lat.w1 + mp.mpf("0.1") * lat.w2
        big = z + 7 * lat.w1 - 4 * lat.w2
        assert abs(lattice_reduce(lat, big) - z) < mp.mpf(10) ** -45
        assert lattice_distance(lat, 5 * lat.w1) < mp.mpf(10) ** -45
        assert lattice_distance(lat, z) > mp.mpf("0.1")


def test_torsion_detection():
    cur = Curve(1, -1, 0, -2, -1)
    lat = period_lattice(cur, 60)
    with mp.workdps(75):
        assert is_torsion(locate(lat, lat.w1 / 2))
        assert locate(lat, lat.w1 / 2).scan[0] == 2             # the torsion order
        assert locate(lat, (lat.w1 + 2 * lat.w2) / 6).scan[0] == 6
        z = locate(lat, mp.mpf("0.3") * lat.w1 + mp.mpf("0.31") * lat.w2)
        assert not is_torsion(z)
        assert torsion_residual(z) > mp.mpf(10) ** -10


@lru_cache(maxsize=None)
def _lattice(label: str, digits: int) -> PeriodLattice:
    return period_lattice(Curve(*LATTICE_CURVES[label]), digits)


def _points(lat: PeriodLattice, seed: int, count: int) -> list:
    """Random points, up to about 20 periods from the origin, exact at the
    lattice's working precision."""
    rng = random.Random(seed)
    with mp.workdps(lat.digits + GUARD):
        def coord():
            return rng.randint(-20, 19) + mp.ldexp(rng.getrandbits(mp.mp.prec), -mp.mp.prec)
        return [coord() * lat.w1 + coord() * lat.w2 for _ in range(count)]


def _distances(z, lat: PeriodLattice, bound: int) -> list:
    point = locate(lat, z)
    with mp.workdps(lat.digits + GUARD):
        return [mp.sqrt(mp.ldexp(n, point.cut.shift))
                for n, _, _ in _nearest_multiples(point, bound)]


def test_lattice_signs_and_reduction():
    assert Curve(*LATTICE_CURVES["37a1"]).disc > 0
    for label, ai in LATTICE_CURVES.items():
        if label != "37a1":
            assert Curve(*ai).disc < 0
        lat = _lattice(label, 60)
        (p, q), (r, s) = lat.reduction
        assert abs(p * s - q * r) == 1
        with mp.workdps(80):
            b1, b2 = p * lat.w1 + q * lat.w2, r * lat.w1 + s * lat.w2
            assert abs(b1) <= abs(b2)
            assert 2 * abs(mp.re(b2 * mp.conj(b1))) <= abs(b1) ** 2 * (1 + mp.mpf(10) ** -70)
            shortest = min(abs(a * lat.w1 + b * lat.w2) for a in range(-6, 7)
                           for b in range(-6, 7) if a or b)
            assert abs(abs(b1) - shortest) < mp.mpf(10) ** -70


@pytest.mark.parametrize("digits", [60, 200])
@pytest.mark.parametrize("label", sorted(LATTICE_CURVES))
def test_multiple_distances_match_search(label, digits):
    lat = _lattice(label, digits)
    tol = mp.mpf(10) ** -(digits + 20)
    (p, q), (r, s) = lat.reduction
    with mp.workdps(digits + GUARD + 20):
        reduced = PeriodLattice(lat.curve, p * lat.w1 + q * lat.w2, r * lat.w1 + s * lat.w2,
                                digits)
    for z in _points(lat, digits, 2):
        got = _distances(z, lat, 24)
        with mp.workdps(digits + GUARD):
            public = [lattice_distance(lat, m * z) for m in range(1, 25)]
        with mp.workdps(digits + GUARD + 20):
            for m in range(1, 25):
                want = lattice_distance_by_search(lat, m * z)
                assert abs(got[m - 1] - want) < tol, (m, got[m - 1], want)
                assert abs(public[m - 1] - want) < tol
                # the old descent is exact once it steps along a reduced basis
                assert abs(abs(lattice_reduce_descent(reduced, m * z)) - want) < tol
        assert torsion_residual(locate(lat, z)) == min(got)


def test_descent_in_the_period_basis_missed_the_nearest_vector():
    # 121b1's (w1, w2) is not Lagrange-reduced: the descent stops at a local
    # minimum 0.91 away, while the lattice comes within 0.57 of this point
    lat = _lattice("121b1", 60)
    with mp.workdps(60 + GUARD):
        z = mp.mpc("-2.556770953827603", "-0.1723832681073393")
        want = lattice_distance_by_search(lat, z)
        assert abs(lattice_distance(lat, z) - want) < mp.mpf(10) ** -80
        assert abs(lattice_reduce_descent(lat, z)) > want + mp.mpf("0.3")


@pytest.mark.parametrize("label", ["49a1", "121b1", "50a1", "50b1", "36a1"])
def test_nearest_vector_is_the_descents_on_any_basis(label):
    # the same lattice on its own basis and on (w1, w2 + 5 w1); the descent
    # along the reduced basis is the reference nearest vector
    lat = _lattice(label, 60)
    (p, q), (r, s) = lat.reduction
    with mp.workdps(60 + GUARD + 20):
        sheared = PeriodLattice(lat.curve, lat.w1, lat.w2 + 5 * lat.w1, lat.digits)
        reduced = PeriodLattice(lat.curve, p * lat.w1 + q * lat.w2, r * lat.w1 + s * lat.w2,
                                lat.digits)
    tol = mp.mpf(10) ** -80
    for basis in (lat, sheared):
        for z in _points(lat, 11, 4):
            with mp.workdps(60 + GUARD):
                i, j = nearest_vector(basis, z)
                assert z - i * basis.w1 - j * basis.w2 == lattice_reduce(basis, z)
            with mp.workdps(60 + GUARD + 20):
                want = z - lattice_reduce_descent(reduced, z)
                assert abs(i * basis.w1 + j * basis.w2 - want) < tol
                assert (i, j) == tuple(int(mp.nint(c)) for c in lattice_coords(basis, want))


def test_rounded_coordinates_miss_the_nearest_vector_on_a_sheared_basis():
    lat = _lattice("49a1", 60)
    with mp.workdps(60 + GUARD):
        sheared = PeriodLattice(lat.curve, lat.w1, lat.w2 + 5 * lat.w1, lat.digits)
        z = mp.mpf("0.4") * sheared.w1 + mp.mpf("0.45") * sheared.w2
        det = mp.im(mp.conj(sheared.w1) * sheared.w2)
        rounded = (int(mp.nint(mp.im(mp.conj(z) * sheared.w2) / det)),
                   int(mp.nint(mp.im(mp.conj(sheared.w1) * z) / det)))
        i, j = nearest_vector(sheared, z)
        assert rounded == (0, 0) and (i, j) == (3, 0)
        assert abs(abs(lattice_reduce(sheared, z)) - lattice_distance_by_search(lat, z)) \
            < mp.mpf(10) ** -70


@pytest.mark.parametrize("label", ["121b1", "37a1"])
def test_unreduced_basis_gives_the_same_distances(label):
    lat = _lattice(label, 60)
    with mp.workdps(60 + GUARD):
        skew = PeriodLattice(lat.curve, lat.w1, lat.w2 + 3 * lat.w1, lat.digits)
    assert skew.reduction != lat.reduction
    tol = mp.mpf(10) ** -80
    for z in _points(lat, 7, 3):
        for a, b in zip(_distances(z, skew, 24), _distances(z, lat, 24)):
            assert abs(a - b) < tol
        with mp.workdps(60 + GUARD):
            assert abs(lattice_reduce(skew, z) - lattice_reduce(lat, z)) < tol


def test_large_bound_keeps_the_guard_bits():
    # m up to 1000 multiplies the rounding of the coordinates of z, each off
    # by less than two units of 2^-F, F = P + bit_length(TORSION_BOUND) +
    # FIXED_GUARD = P + 15, P the working precision: those of m z are off by
    # less than 2000 units < 2^(11 - F) = 2^(-P-4), and the distances stay
    # within 2^-P |w1| though m is about 40 times TORSION_BOUND
    lat = _lattice("121b1", 60)
    z = _points(lat, 1000, 1)[0]
    got = _distances(z, lat, 1000)
    with mp.workdps(60 + GUARD):
        tol = mp.ldexp(abs(lat.w1), -mp.mp.prec)
    with mp.workdps(60 + GUARD + 30):
        for m in range(1, 1001, 7):
            assert abs(got[m - 1] - lattice_distance_by_search(lat, m * z)) < tol, m


def test_locate_ignores_the_callers_precision():
    # every point is solved at the lattice's own precision, so a caller at
    # 15 digits or at 200 reads the same coordinates and nearest vector, on
    # the warm lattice and on a cold copy that has cut nothing yet
    lat = _lattice("121b1", 60)
    for z in _points(lat, 5, 3):
        seen = []
        for dps in (15, 60 + GUARD, 200):
            with mp.workdps(dps):
                for basis in (lat, PeriodLattice(*lat)):
                    seen.append((locate(basis, z), nearest_vector(basis, z)))
        assert all(s == seen[0] for s in seen)
    with mp.workdps(60 + GUARD):
        assert seen[0][0].cut.frac == mp.mp.prec + 15


class _Missed(Exception):
    pass


def _read_cases(digits: int) -> list:
    """(lat, z, (i0, j0)): 600 lattice vectors i0 w1 + j0 w2 of the five
    catalogue curves plus offsets of 10^-12 to 10^-6, log-uniform about
    LAMBDA_BUDGET = 10^-9."""
    rng, cases = random.Random(digits), []
    for label in ("49a1", "121b1", "50a1", "50b1", "36a1"):
        lat = _lattice(label, digits)
        for _ in range(60):
            i0, j0 = rng.randint(-20, 20), rng.randint(-20, 20)
            with mp.workdps(digits + GUARD):
                offset = mp.mpf(10) ** rng.uniform(-12, -6) * mp.expjpi(rng.uniform(0, 2))
                cases.append((lat, i0 * lat.w1 + j0 * lat.w2 + offset, (i0, j0)))
    return cases


@pytest.mark.parametrize("digits", [60, 200])
def test_read_vector_accepts_exactly_what_the_oracle_accepts(digits):
    # read_vector's integer comparisons accept the oracle's nearest vector
    # exactly when its distance in mpmath is below the budget, and the budget
    # below |b1| / 2; else they raise the caller's error
    accepted, cases = 0, _read_cases(digits)
    for lat, z, (i0, j0) in cases:
        i, j = nearest_vector(lat, z)
        with mp.workdps(digits + GUARD + 20):
            miss = abs(z - i * lat.w1 - j * lat.w2)
            half = abs(reduced_basis(lat)[0]) / 2
        assert (i, j) == (i0, j0) and LAMBDA_BUDGET < half
        if miss < LAMBDA_BUDGET:
            assert read_vector(lat, z, _Missed, "z") == (i, j)
            accepted += 1
        else:
            with pytest.raises(_Missed, match="^z misses the lattice by"):
                read_vector(lat, z, _Missed, "z")
    assert 100 < accepted < 200
    # the budget is defined once, and each cut holds its read limit
    assert not hasattr(modparam, "LAMBDA_BUDGET") and not hasattr(experiments, "LAMBDA_BUDGET")
    assert all(type(cut) is Cut and cut.read > 0 for lat, _, _ in cases
               for cut in lat.cuts.values())


def _read_or_raise(lat, z):
    try:
        return read_vector(lat, z, _Missed, "z")
    except _Missed as exc:
        return str(exc)


@pytest.mark.parametrize("digits", [60, 200])
def test_a_cold_and_a_warm_lattice_read_alike(monkeypatch, digits):
    # the integers a lattice keeps per cut are invisible: on the 600 read
    # vectors, a cold copy of the lattice (nothing cut yet) and the warm
    # lattice locate each value alike, read the same vector or raise the same
    # message at LAMBDA_BUDGET, and map every tenth value to the same point
    # of E(C); with a budget above |b1| / 2, fixed in a cold copy's cut, the
    # first read (which makes the cut) and a second raise the same message
    for n, (lat, z, _) in enumerate(_read_cases(digits)):
        cold = PeriodLattice(*lat)
        assert cold == lat and "cuts" not in vars(cold)
        assert locate(cold, z) == locate(lat, z)
        assert _read_or_raise(PeriodLattice(*lat), z) == _read_or_raise(lat, z)
        with monkeypatch.context() as patch:
            patch.setattr(periods, "LAMBDA_BUDGET", mp.mpf(10))
            cold = PeriodLattice(*lat)
            message = _read_or_raise(cold, z)
            assert message.startswith("z misses the lattice by")
            assert _read_or_raise(cold, z) == message
        if n % 10 == 0:
            assert elliptic_exp(locate(PeriodLattice(*lat), z)) == elliptic_exp(locate(lat, z))


@pytest.mark.parametrize("digits", [60, 200])
def test_one_scan_equals_the_two_pass_oracle(digits):
    # on random points, on torsion points k/n (n <= 30) and on torsion points
    # moved by about the torsion limit 10^(-digits/2) |w1|, the one scan's
    # order and residual are exactly those of two separate passes, the order
    # against a limit made anew in mpmath, and every (n, i, j) of the
    # multiples is that of the expansion about each corner on its own
    rng, count, orders = random.Random(digits + 1), 0, set()
    for label in ("49a1", "121b1", "50b1", "36a1", "37a1"):
        lat = _lattice(label, digits)
        points = _points(lat, digits + 2, 42)
        with mp.workdps(digits + GUARD):
            for _ in range(30):
                n, k1, k2 = rng.randint(1, 30), rng.randint(-60, 60), rng.randint(-60, 60)
                t = (k1 * lat.w1 + k2 * lat.w2) / n
                off = mp.mpf(10) ** (rng.uniform(-1.5, 0.5) - digits / 2) * abs(lat.w1)
                points += [t, t + off * mp.expjpi(rng.uniform(0, 2))]
        for z in points:
            point = locate(lat, z)
            assert list(_nearest_multiples(point, TORSION_BOUND)) == \
                list(nearest_multiples_expanded(point, TORSION_BOUND))
            assert point.scan[0] == torsion_order_two_pass(point)
            assert torsion_residual(point) == torsion_residual_two_pass(point)
            assert is_torsion(point) == (point.scan[0] is not None)
            orders.add(point.scan[0])
            count += 1
    assert count >= 500 and None in orders and len(orders) > 15


@pytest.mark.parametrize("label", sorted(LATTICE_CURVES))
def test_a_read_budget_of_half_the_shortest_vector_or_more_raises(monkeypatch, label):
    # two lattice vectors may then both be within the budget of a value, so
    # read_vector raises even on a lattice vector itself, with the miss and
    # |b1| / 2 in the message; just below |b1| / 2 it reads the vector.  The
    # read limit is fixed when a cut is made, so each budget reads a cold copy
    lat = _lattice(label, 60)
    with mp.workdps(60 + GUARD):
        half = abs(reduced_basis(lat)[0]) / 2
        z = 3 * lat.w1 - 2 * lat.w2
        tiny = mp.mpf(10) ** -30
        above, below = (half * (1 + tiny), 2 * half, mp.mpf(10)), half * (1 - tiny)
    for budget in above:
        monkeypatch.setattr(periods, "LAMBDA_BUDGET", budget)
        with pytest.raises(_Missed, match=r"^z misses the lattice by .*, against .* and "
                                          r"\|b1\| / 2 = "):
            read_vector(PeriodLattice(*lat), z, _Missed, "z")
    monkeypatch.setattr(periods, "LAMBDA_BUDGET", below)
    assert read_vector(PeriodLattice(*lat), z, _Missed, "z") == (3, -2)


@pytest.mark.parametrize("digits", [60, 200])
def test_a_point_just_outside_the_torsion_limit_has_an_affine_image(digits):
    # the torsion limit 10^(-digits/2) |w1| is above elliptic_exp's infinity
    # limit 10^-digits |w1|, so a point that is_torsion rejects is never the
    # point at infinity: points up to 1% beyond the torsion limit from a
    # torsion point of order n <= 24, the lattice included (n = 1)
    rng, count = random.Random(digits + 3), 0
    for label in LATTICE_CURVES:
        lat = _lattice(label, digits)
        with mp.workdps(digits + GUARD):
            limit = mp.mpf(10) ** (-mp.mpf(digits) / 2) * abs(lat.w1)
            points = []
            for n in (1, 1, 2, 3, rng.randint(4, 24), rng.randint(4, 24)):
                k1, k2 = rng.randint(-24, 24), rng.randint(-24, 24)
                off = limit * (1 + mp.mpf(10) ** rng.uniform(-6, -2))
                points.append((k1 * lat.w1 + k2 * lat.w2) / n + off * mp.expjpi(rng.uniform(0, 2)))
        for z in points:
            point = locate(lat, z)
            assert not is_torsion(point) and elliptic_exp(point) is not None
            count += 1
    assert count == 6 * len(LATTICE_CURVES)


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(sorted(LATTICE_CURVES)), n=st.integers(1, 24),
       k1=st.integers(-60, 60), k2=st.integers(-60, 60))
def test_torsion_order_of_rational_points(label, n, k1, k2):
    lat = _lattice(label, 60)
    with mp.workdps(60 + GUARD):
        z = mp.mpf(k1) / n * lat.w1 + mp.mpf(k2) / n * lat.w2
    assert locate(lat, z).scan[0] == n // gcd(n, k1, k2)


def test_period_lattice_is_computed_once_per_curve_and_digits():
    cur = Curve(*LATTICE_CURVES["50b1"])
    lat = period_lattice(cur, 40)
    assert period_lattice(Curve(*LATTICE_CURVES["50b1"]), 40) is lat
    fresh = period_lattice.__wrapped__(cur, 40)         # the cache bypassed
    assert fresh is not lat and fresh == lat
    assert fresh.reduction == lat.reduction
    other = period_lattice(cur, 41)
    assert other is not lat and other.digits == 41
    assert period_lattice(cur, 41) is other
    with pytest.raises(InputError, match="between 1 and 200"):
        period_lattice(cur, 201)


CURVE_26569A1 = (0, 0, 1, -2174420, 1234136692)      # |b1| about 0.06


@pytest.mark.parametrize("digits", [60, 200])
@pytest.mark.parametrize("ai", list(LATTICE_CURVES.values()) + [CURVE_26569A1])
def test_wp_pair_matches_laurent_series(ai, digits):
    # wp and wp' within 10^-(digits+5) max(1, |value|) of the Laurent series
    # plus duplication: near 0, at the three half-periods (wp alone, wp'
    # vanishes there) and at random reduced points
    lat = period_lattice(Curve(*ai), digits)
    rng = random.Random(digits)
    with mp.workdps(digits + GUARD):
        b1, b2 = reduced_basis(lat)
        points = [(b1 / mp.mpf(10) ** 5, 2), (b1 / 2, 1), (b2 / 2, 1), ((b1 + b2) / 2, 1)]
        points += [(mp.mpf(rng.random()) * b1 + mp.mpf(rng.random()) * b2, 2) for _ in range(4)]
        for z, count in points:
            z = lattice_reduce(lat, z)
            got, want = _wp_pair(lat, z), wp_pair_by_laurent(lat, z)
            for g, w in list(zip(got, want))[:count]:
                assert abs(g - w) <= mp.mpf(10) ** -(digits + 5) * max(1, abs(w)), (z, g, w)


@pytest.mark.parametrize("label, digits", [("37a1", 60), ("37a1", 200), ("36a1", 60)])
def test_wp_pair_on_a_reduced_basis_of_negative_orientation(label, digits):
    # Lagrange reduction returns Im(b2 / b1) < 0 here; the theta quotient
    # needs Im tau > 0 and negates tau
    lat = _lattice(label, digits)
    cur = lat.curve
    with mp.workdps(digits + GUARD):
        b1, b2 = reduced_basis(lat)
        assert mp.im(b2 / b1) < 0
        z = lattice_reduce(lat, (b1 + 3 * b2) / 7)
        wp, wpd = _wp_pair(lat, z)
        for g, w in zip((wp, wpd), wp_pair_by_laurent(lat, z)):
            assert abs(g - w) <= mp.mpf(10) ** -(digits + 5) * max(1, abs(w))
        g2, g3 = mp.mpf(cur.c4) / 12, mp.mpf(cur.c6) / 216
        assert abs(wpd ** 2 - (4 * wp ** 3 - g2 * wp - g3)) < mp.mpf(10) ** -(digits + 5)


def _random_curves(sign: int, count: int, rng: random.Random) -> list:
    """count curves with sign(disc) = sign: first y^2 = x^3 - 3k^2 x + 2k^3 + sign
    (disc = 432 sign (4 k^3 - sign), roots within about k^(-1/2) of the double
    root k for sign < 0), then random small models."""
    out = [Curve(0, 0, 0, -3 * k * k, 2 * k ** 3 - sign) for k in (10, 10 ** 3, 10 ** 5, 10 ** 7)]
    while len(out) < count:
        try:
            cur = Curve(rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                        rng.randint(-10 ** 4, 10 ** 4), rng.randint(-10 ** 6, 10 ** 6))
        except InputError:                  # singular
            continue
        if cur.disc * sign > 0:
            out.append(cur)
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_two_torsion_roots_match_polyroots(sign):
    # relative to the largest root, to 10^-(digits+10): the five catalogue
    # curves at 200 digits, then 200 curves of each discriminant sign
    rng = random.Random(2024 + sign)
    curves = [(Curve(*ai), 200) for ai in LATTICE_CURVES.values() if Curve(*ai).disc * sign > 0]
    curves += [(cur, (30, 60, 200)[i % 3]) for i, cur in enumerate(_random_curves(sign, 200, rng))]
    assert len(curves) >= 200
    for cur, digits in curves:
        with mp.workdps(digits + GUARD):
            got = two_torsion_roots(cur)
        want = two_torsion_roots_by_polyroots(cur, digits)
        assert len(got) == len(want) == (3 if sign > 0 else 2)
        with mp.workdps(digits + 40):
            scale = max(abs(w) for w in want)
            err = max(abs(g - w) for g, w in zip(got, want))
            assert err <= mp.mpf(10) ** -(digits + 10) * scale, (cur, digits)
        if sign < 0:
            assert mp.im(got[0]) == 0 and mp.im(got[1]) > 0
        else:
            assert got[0] > got[1] > got[2]

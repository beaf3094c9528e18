import mpmath as mp
import pytest

from cmtrace.curves import Curve
from cmtrace.periods import (PrecisionError, elliptic_exp, is_torsion, lattice_distance,
                             lattice_reduce, period_lattice, torsion_order, torsion_residual)
from oracles import equation_residual


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
    with pytest.raises(PrecisionError):
        period_lattice(Curve(0, 0, 0, -1, 0), 300)


@pytest.mark.parametrize("ai", [(0, 0, 0, -1, 0), (1, -1, 0, -2, -1), (0, -1, 1, -7, 10)])
def test_two_torsion_at_half_periods(ai):
    cur = Curve(*ai)
    lat = period_lattice(cur, 50)
    with mp.workdps(60):
        for half in (lat.w1 / 2, lat.w2 / 2, (lat.w1 + lat.w2) / 2):
            pt = elliptic_exp(lat, half)
            assert pt.xy is not None
            x, y = pt.xy
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
            pt = elliptic_exp(lat, w)
            assert pt.xy is not None
            assert equation_residual(cur, *pt.xy) < mp.mpf(10) ** -50


def test_exp_periodicity_and_infinity():
    cur = Curve(0, 0, 0, -1, 0)
    lat = period_lattice(cur, 50)
    with mp.workdps(65):
        z = mp.mpf("0.3") * lat.w1 + mp.mpf("0.31") * lat.w2
        p1 = elliptic_exp(lat, z)
        p2 = elliptic_exp(lat, z + lat.w1)
        p3 = elliptic_exp(lat, z - 3 * lat.w2)
        assert abs(p1.xy[0] - p2.xy[0]) < mp.mpf(10) ** -40
        assert abs(p1.xy[1] - p3.xy[1]) < mp.mpf(10) ** -40
        assert elliptic_exp(lat, mp.mpc(0)).xy is None
        assert elliptic_exp(lat, 2 * lat.w1 + lat.w2).xy is None


def test_wp_differential_equation():
    cur = Curve(0, -1, 1, -7, 10)
    lat = period_lattice(cur, 50)
    with mp.workdps(65):
        g2 = mp.mpf(cur.c4) / 12
        g3 = mp.mpf(cur.c6) / 216
        from cmtrace.periods import _wp_pair
        z = mp.mpc("0.21", "0.13")
        wp, wpd = _wp_pair(lat, z, 60)
        assert abs(wpd ** 2 - (4 * wp ** 3 - g2 * wp - g3)) < mp.mpf(10) ** -45


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
        assert is_torsion(lat.w1 / 2, lat, 60)
        assert torsion_order(lat.w1 / 2, lat, 60) == 2
        assert torsion_order((lat.w1 + 2 * lat.w2) / 6, lat, 60) == 6
        z = mp.mpf("0.3") * lat.w1 + mp.mpf("0.31") * lat.w2
        assert not is_torsion(z, lat, 60)
        assert torsion_residual(z, lat) > mp.mpf(10) ** -10

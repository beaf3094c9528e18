from fractions import Fraction

import mpmath as mp

from cmtrace.recognize import (AlgebraicNumber, curve_equation_holds_exactly,
                               recognize_in_quadratic, recognize_rational)
from oracles import minpoly, recognize_algebraic


def test_recognize_rational():
    with mp.workdps(70):
        x = mp.mpf(1) / 3
        assert recognize_rational(x, 60, 10) == Fraction(1, 3)
        assert recognize_rational(mp.mpf("-22") / 7, 60, 10) == Fraction(-22, 7)
        assert recognize_rational(mp.mpf(0), 60, 10) == Fraction(0)
        assert recognize_rational(mp.pi, 60, 6) is None


def test_recognize_sqrt_minus_eleven():
    with mp.workdps(70):
        x = mp.sqrt(mp.mpc(-11))
        got = recognize_algebraic(x, -11, 2, 10, 60)
        assert isinstance(got, AlgebraicNumber)
        assert (got.nu, got.mu, got.den, got.field_disc) == (0, 1, 1, -11)
        assert minpoly(got) == (1, 0, 11)


def test_pi_negative_control():
    with mp.workdps(70):
        assert recognize_algebraic(mp.pi, None, 4, 10, 60) is None


def test_quadratic_roundtrips():
    with mp.workdps(80):
        for nu, mu, den, d in [(3, -2, 7, -67), (-5, 1, 3, -11), (0, 4, 9, -7)]:
            val = (nu + mu * mp.sqrt(mp.mpc(d))) / den
            got = recognize_in_quadratic(val, d, 70, 12)
            assert got is not None
            # same value, possibly unreduced representation
            assert abs(got.to_mpc() - val) < mp.mpf(10) ** -60


def test_degree_four_minpoly():
    with mp.workdps(80):
        x = mp.sqrt(2) + mp.sqrt(3)
        got = recognize_algebraic(x, None, 4, 6, 70)
        assert got == (1, 0, -10, 0, 1)


def test_curve_equation_exact_check():
    ainvs = (0, -1, 1, -7, 10)
    x = AlgebraicNumber(-2, 0, 1, -67)
    y = AlgebraicNumber(3, 0, 1, -67)
    assert curve_equation_holds_exactly(ainvs, x, y)
    bad = AlgebraicNumber(4, 0, 1, -67)
    assert not curve_equation_holds_exactly(ainvs, bad, y)
    # a genuinely quadratic point: on y^2 = x^3 - x over Q(sqrt(-7)), x = -1/2·?
    # use the curve y^2 + y = x^3 - 7 and the point with x = 2: y^2 + y = 1,
    # y = (-1 + sqrt(5))/2 is real quadratic; instead verify mixed-field reject
    assert not curve_equation_holds_exactly(
        ainvs, AlgebraicNumber(-2, 0, 1, -67), AlgebraicNumber(3, 0, 1, -11))

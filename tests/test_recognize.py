from fractions import Fraction

import mpmath as mp

from cmtrace.recognize import (AlgebraicNumber, curve_equation_holds_exactly, max_height,
                               recognize_in_quadratic, recognize_rational)
from oracles import minpoly, recognize_algebraic


def test_recognize_rational():
    with mp.workdps(70):
        x = mp.mpf(1) / 3
        assert recognize_rational(x, 60) == Fraction(1, 3)
        assert recognize_rational(mp.mpf("-22") / 7, 60) == Fraction(-22, 7)
        assert recognize_rational(mp.mpf(0), 60) == Fraction(0)
        # below the tolerance 10^-(digits-5) a value reads 0, above it nothing
        assert recognize_rational(-mp.mpf(10) ** -58, 60) == Fraction(0)
        assert recognize_rational(mp.mpf(10) ** -40, 60) is None
        assert recognize_rational(mp.pi, 60) is None


def test_recognize_rational_at_a_large_relation():
    # the x of the rational point of 0,0,1,-38,90 (N = 361): the relation
    # a x + b = 0 has a = 72182016, so |a| |x| is about 2e11 and its residual
    # at x rounded to `digits` is far above 10^-digits
    exact = Fraction(217648630369, 72182016)
    with mp.workdps(110):
        x = mp.mpf(exact.numerator) / exact.denominator
        assert max_height(100) == 33
        assert recognize_rational(x, 100) == exact
        assert recognize_rational(-x, 100) == -exact


def test_recognize_rational_refuses_a_perturbed_value():
    # at the height recognize fixes; the larger x only where it is in bound
    for digits in (15, 60, 100):
        with mp.workdps(digits + 10):
            for exact in (Fraction(1, 3), Fraction(217648630369, 72182016)):
                x = mp.mpf(exact.numerator) / exact.denominator
                if exact.numerator < 10 ** max_height(digits):
                    assert recognize_rational(x, digits) == exact
                eps = mp.mpf(10) ** (-(digits // 2)) * max(1, abs(x))
                assert recognize_rational(x + eps, digits) is None
                assert recognize_rational(x - eps, digits) is None


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
            got = recognize_in_quadratic(val, d, 70)
            assert got is not None
            # same value, possibly unreduced representation
            back = (got.nu + got.mu * mp.sqrt(mp.mpc(got.field_disc))) / got.den
            assert abs(back - val) < mp.mpf(10) ** -60


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

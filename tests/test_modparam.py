import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_shift, to_int

from cmtrace import modparam
from cmtrace.curves import (Curve, _valuation, an_coefficients, curve_from_c4c6, curve_model,
                            minimal_model, tate_local)
from cmtrace.elementary import BITS, LN2, PI, q_scaled
from cmtrace.errors import InputError
from cmtrace.heegner import heegner_form
from cmtrace.experiments import VALUE_ALLOWANCE, trace_point
from cmtrace.finite import ExperimentSpec
from cmtrace.modparam import (K_EXPONENT, LAMBDA_DIGITS, NMAX_CAP, SERIES_GUARD, FormPoint,
                              SeriesBudgetError, _eval_series, _numerical_sign,
                              al_constant, al_constant_points, al_matrix, atkin_lehner_sign,
                              eval_newform, eval_phi, float_error, im_tau, local_sign,
                              phi_terms, q_fixed, sign_points)
from cmtrace.periods import LAMBDA_BUDGET, period_lattice
from oracles import (dyadic_point, eval_series_direct, eval_series_in_doubles_by_chain,
                     heegner_tau, lattice_distance, phi_terms_mp, q_by_libmp, root_number)


def sigma0(n):
    c = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            c += 1 if d * d == n else 2
        d += 1
    return c


def test_divisor_bound_lemma():
    # sigma_0(n) <= sqrt(3 n): maximise (e+1) p^{-e/2} at p = 2 (3/2) and
    # p = 3 (2/sqrt 3); the product is sqrt 3, attained at n = 12
    for n in range(1, 10 ** 4 + 1):
        assert sigma0(n) ** 2 <= 3 * n
    assert sigma0(12) ** 2 == 3 * 12


def test_phi_terms_tail():
    m49 = curve_model((1, -1, 0, -2, -1))
    n1 = phi_terms(mp.mpf("0.2369"), 60)
    assert 90 <= n1 <= 130
    assert phi_terms(mp.mpf("0.2369"), 120) > n1
    assert phi_terms(mp.mpf("1e400"), 60) == 4
    # over the cap, also where the quotient overflows a double (1e-310): a
    # count, which eval_phi refuses with the budget error; an Im tau that
    # underflows a double (1e-400) is an InputError, as eval_phi's point is
    # (test_eval_phi_rejects_lower_half_plane)
    for im_tau in ("1e-6", "1e-40", "1e-310"):
        assert phi_terms(mp.mpf(im_tau), 60) > NMAX_CAP
        with pytest.raises(SeriesBudgetError):
            eval_phi(Curve(0, -1, 1, -10, -20), dyadic_point(mp.mpc(0.1, mp.mpf(im_tau))), 30)
    with pytest.raises(InputError):
        phi_terms(mp.mpf("1e-400"), 60)
    # the truncated tail really is below the target: numeric check
    with mp.workdps(80):
        a = [0] + [1] * (4 * n1)           # |a_n| <= sigma_0(n) sqrt(n), crude 1s suffice
        q = mp.exp(-2 * mp.pi * mp.mpf("0.2369"))
        tail = sum(sigma0(n) * mp.sqrt(n) / n * q ** n for n in range(n1 + 1, 4 * n1))
        assert tail < mp.mpf(10) ** -70


@settings(max_examples=300, deadline=None)
@given(st.floats(-5.5, 1.5), st.integers(1, 200))
def test_phi_terms_in_doubles_equals_the_30_digit_count(log10_im, digits):
    im_tau = mp.mpf(10 ** log10_im)
    assert phi_terms(im_tau, digits) == phi_terms_mp(im_tau, digits)


def test_phi_terms_counts_by_integer_ratios_and_refuses_a_non_positive_im_tau():
    # Im tau 0 (an underflow), negative or NaN is an InputError, never a bare
    # ZeroDivisionError or TypeError
    for y in (0.0, -1.0, float("nan")):
        with pytest.raises(InputError):
            phi_terms(y, 60)
    # below t = 1e-300 the quotient overflows a double: the count is the
    # exact ceiling of the same two doubles, times 1 + 2^-40
    for y in (1e-301, 1e-305, 1e-310, 5e-324):
        t = 2 * math.pi * y
        num = 70 * math.log(10) + math.log(math.sqrt(3)) - math.log(-math.expm1(-t))
        want = math.ceil(Fraction(num) * Fraction(2 ** 40 + 1, 2 ** 40) / Fraction(t))
        assert NMAX_CAP < phi_terms(y, 60) == want, y
    # the count needs no fractions: the analytic layer does not load them
    src = str(Path(modparam.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cmtrace.modparam; print('fractions' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_phi_periodicity():
    model = curve_model((1, -1, 0, -2, -1))
    tau = mp.mpc("0.137", "0.31")
    z1 = eval_phi(model, dyadic_point(tau), 50)
    z2 = eval_phi(model, dyadic_point(tau + 1), 50)
    assert abs(z1 - z2) < mp.mpf(10) ** -45


def _gamma0_word(n_level, rng, length=3):
    m = ((1, 0), (0, 1))
    for _ in range(length):
        if rng.random() < 0.5:
            g = ((1, rng.choice([-1, 1])), (0, 1))
        else:
            g = ((1, 0), (rng.choice([-1, 1]) * n_level, 1))
        m = ((m[0][0] * g[0][0] + m[0][1] * g[1][0], m[0][0] * g[0][1] + m[0][1] * g[1][1]),
             (m[1][0] * g[0][0] + m[1][1] * g[1][0], m[1][0] * g[0][1] + m[1][1] * g[1][1]))
    return m


@pytest.mark.parametrize("ai", [(1, -1, 0, -2, -1), (0, -1, 1, -7, 10)])
def test_phi_gamma0_invariance(ai):
    model = curve_model(ai)
    lat = period_lattice(model.minimal, 50)
    rng = random.Random(17)
    tau = mp.mpc("0.11", "0.4")
    z0 = eval_phi(model, dyadic_point(tau), 50)
    checked = 0
    with mp.workdps(65):
        while checked < 20:
            (a, b), (c, d) = _gamma0_word(model.n, rng)
            gt = (a * tau + b) / (c * tau + d)
            if mp.im(gt) < 0.02:
                continue
            z1 = eval_phi(model, dyadic_point(gt), 50)
            assert lattice_distance(lat, z1 - z0) < mp.mpf(10) ** -25
            checked += 1


def test_fricke_functional_equation_pointwise():
    # f(-1/(N tau)) = w * N tau^2 f(tau), a hard identity for the series
    model = curve_model((1, -1, 0, -2, -1))
    w = atkin_lehner_sign(model.minimal, model.n, 49)
    with mp.workdps(65):
        for tau in [mp.mpc("0.07", "0.21"), mp.mpc("-0.13", "0.17")]:
            lhs = eval_newform(model, dyadic_point(-1 / (49 * tau)), 50)
            rhs = w * 49 * tau ** 2 * eval_newform(model, dyadic_point(tau), 50)
            assert abs(lhs - rhs) < mp.mpf(10) ** -40


def test_atkin_lehner_signs_and_root_numbers():
    m49 = curve_model((1, -1, 0, -2, -1))
    m121 = curve_model((0, -1, 1, -7, 10))
    w49 = atkin_lehner_sign(m49.minimal, m49.n, 49)
    w121 = atkin_lehner_sign(m121.minimal, m121.n, 121)
    assert w49 == -1                        # rank 0: root number +1
    assert w121 == 1                        # rank 1: root number -1
    assert w49 * w49 == 1 and w121 * w121 == 1
    assert root_number(m49) == 1
    assert root_number(m121) == -1


def test_sign_reproducible_across_precisions():
    # the sign is read at LAMBDA_DIGITS only (numerically for 36a1's W_9,
    # additive at 3); the ratio f(W_Q tau) Q / ((N c tau + Q d)^2 f(tau)) at a
    # point of the W_Q-stable circle has that sign at 30 and at 80 digits
    for ainvs, q_div in [((1, -1, 0, -2, -1), 49), ((0, 0, 0, 0, 1), 9)]:
        model = curve_model(ainvs)
        cur, n = model.minimal, model.n
        w = atkin_lehner_sign(cur, n, q_div)
        a, b, c, d = al_matrix(n, q_div)
        for digits in (30, 80):
            with mp.workdps(digits + SERIES_GUARD):
                tau = (mp.sqrt(q_div) * mp.exp(1j * mp.pi / 2) - d) / c
                image = (a * tau + b) / (c * tau + d)
                ratio = (q_div * eval_newform(cur, dyadic_point(image), digits)
                         / ((c * tau + d) ** 2 * eval_newform(cur, dyadic_point(tau), digits)))
                assert abs(ratio - w) < mp.mpf(10) ** -(digits // 2), (ainvs, digits)


def test_al_matrix_shapes():
    assert al_matrix(49, 49) == (0, -1, 49, 0)
    a, b, c, d = al_matrix(45, 9)
    assert (a * d - b * c) == 9
    assert a % 9 == 0 and d % 9 == 0 and c % 45 == 0
    with pytest.raises(ValueError):
        al_matrix(49, 7)        # gcd(Q, N/Q) = 7
    with pytest.raises(ValueError):
        al_matrix(49, 5)
    for q in (0, -7):                       # checked before N % Q, which fails at 0
        with pytest.raises(ValueError, match=f"got Q = {q}"):
            al_matrix(49, q)


def test_eval_phi_rejects_lower_half_plane():
    # a series point is a FormPoint (a, b, disc) with a > 0 > disc and a double
    # Im tau above 0: a complex or an mpc tau, in either half plane, is an
    # InputError that names FormPoint, and so is a FormPoint in the lower half
    # plane, with disc >= 0 (no square root) or a = 0 (no point), or whose Im
    # tau underflows a double; never a bare ValueError or ZeroDivisionError
    model = curve_model((1, -1, 0, -2, -1))
    points = (FormPoint(-49, 1, -19), FormPoint(1, 0, 4), FormPoint(1, 0, 0), FormPoint(0, 1, -3),
              dyadic_point(mp.mpc(0.1, mp.mpf("1e-400"))))
    for series in (eval_phi, eval_newform):
        for digits, allowance in ((30, 0.0), (LAMBDA_DIGITS, VALUE_ALLOWANCE)):
            for tau in (mp.mpc(0, -1), mp.mpc("0.1", "0.2"), complex(0.1, -0.2),
                        complex(0.1, 0.2)):
                with pytest.raises(InputError, match="FormPoint"):
                    series(model, tau, digits, allowance)
            for tau in points:
                with pytest.raises(InputError, match="upper half plane"):
                    series(model, tau, digits, allowance)


def _exact_add(ai, P, Q):
    from fractions import Fraction
    a1, a2, a3, a4, a6 = ai
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2 + a1 * x2 + a3) == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = lam * (x1 - x3) - y1 - a1 * x3 - a3
    return (x3, y3)


def _nontorsion_witness(ai, P):
    # Mazur: rational torsion has order at most 12, so surviving 16 multiples
    # certifies infinite order
    from fractions import Fraction
    P = (Fraction(P[0]), Fraction(P[1]))
    a1, a2, a3, a4, a6 = ai
    assert P[1] ** 2 + a1 * P[0] * P[1] + a3 * P[1] == P[0] ** 3 + a2 * P[0] ** 2 + a4 * P[0] + a6
    Q = None
    for _ in range(16):
        Q = _exact_add(ai, Q, P)
        if Q is None:
            return False
    return True


def test_sign_convention_five_validation_curves():
    # Fricke eigenvalue = -(root number); odd analytic rank <=> w_N = +1.
    # Positive rank is witnessed by an exact non-torsion point; the rank-zero
    # cases are the classical CM curves y^2 = x^3 +- 1 and the conductor-49
    # CM curve.
    cases = [
        ((1, -1, 0, -2, -1), -1, None),          # N = 49, rank 0
        ((0, 0, 0, 0, 1), -1, None),             # N = 36, rank 0
        ((0, 0, 0, 0, -1), -1, None),            # N = 144, rank 0
        ((0, -1, 1, -7, 10), 1, (4, 5)),         # N = 121, rank 1
        ((1, -1, 1, -2, 0), 1, (0, 0)),          # N = 99, rank >= 1
    ]
    for ai, expected_w, witness in cases:
        model = curve_model(ai)
        assert atkin_lehner_sign(model.minimal, model.n, model.n) == expected_w, ai
        if witness is not None:
            assert _nontorsion_witness(ai, witness)


def test_sign_multiplicativity_on_composite_level():
    m36 = curve_model((0, 0, 0, 0, 1))
    w9 = atkin_lehner_sign(m36.minimal, m36.n, 9)
    w4 = atkin_lehner_sign(m36.minimal, m36.n, 4)
    w36 = atkin_lehner_sign(m36.minimal, m36.n, 36)
    assert (w9, w4, w36) == (1, -1, -1)
    assert w36 == w9 * w4


# (a-invariants, dK) with p inert in K and a Heegner form of conductor p
SERIES_CASES = {
    "49a1": ((1, -1, 0, -2, -1), -11),
    "121b1": ((0, -1, 1, -7, 10), -67),
    "50a1": ((1, 0, 1, -1, -2), -23),
}


def _series_taus(model, dK, digits):
    """An orbit point, a point on the W_{p^2} circle, and a point deep enough
    that the series needs more than 10^4 terms."""
    p = model.p
    orbit_tau = heegner_tau(heegner_form(model.n, dK, p), digits)
    _, _, wc, wd = al_matrix(model.n, p * p)
    with mp.workdps(digits + 15):
        circle_tau = (p * mp.exp(1j * mp.pi / 3) - wd) / wc
        # phi_terms is about (digits + 10) log(10) / (2 pi Im tau)
        deep_tau = mp.mpc("0.3", (digits + 10) * mp.log(10) / (2 * mp.pi * 11000))
    assert phi_terms(deep_tau.imag, digits) > 10 ** 4
    return orbit_tau, circle_tau, deep_tau


@pytest.mark.parametrize("label", sorted(SERIES_CASES))
def test_fixed_point_series_matches_direct_sum(label):
    ai, dK = SERIES_CASES[label]
    model = curve_model(ai)
    for digits in (1, 15, 60, 200):
        for tau in _series_taus(model, dK, digits):
            for weight, fast in ((1, eval_phi), (0, eval_newform)):
                want = eval_series_direct(model.minimal, tau, digits, weight)
                got = fast(model, dyadic_point(tau), digits)
                with mp.workdps(digits + 30):
                    assert abs(got - want) < mp.mpf(10) ** -(digits + 5), (digits, tau, weight)


# sparse (CM, a_n from the Hecke walk), dense (point-counted) and the unit rows
TABLE_CURVES = {"121b1": (0, -1, 1, -7, 10), "50b1": (1, 1, 1, -3, 1), "36a1": (0, 0, 0, 0, 1)}


def _im_for(nmax: int, digits: int) -> float:
    """The least double Im tau, to bisection, with phi_terms(Im tau, digits) <= nmax."""
    lo, hi = 1e-3, 100.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if phi_terms(mid, digits) > nmax else (lo, mid)
    return hi


def _kernel_shapes(a: list[int], nmax: int) -> set[str]:
    """What the fixed-point route meets in its blocks n = j m .. j m + m - 1,
    m = isqrt(nmax), over the n with a_n != 0 ranked from 0 at n = 1 and
    paired from there, when the table reaches past nmax."""
    m, nonzero = isqrt(nmax), [n for n in range(1, nmax + 1) if a[n]]
    shapes = {"pair cut by n_max"} if len(nonzero) % 2 else set()
    if nmax % m < m - 1:
        shapes.add("partial top block")
    for base in range(0, nmax + 1, m):
        ranks = [r for r, n in enumerate(nonzero) if base <= n < base + m]
        if not ranks:
            shapes.add("empty block")
        elif ranks[0] % 2:
            shapes.add("pair cut by a block edge")
        if len(ranks) % 2:
            shapes.add("odd count in a block")
    return shapes


def test_table_kernel_matches_direct_sum():
    # each curve's table built past every n_max below first, so that a pair
    # can straddle n_max; n_max from 4 (blocks of 2) to about 1000
    shapes = set()
    for label, ai in sorted(TABLE_CURVES.items()):
        model = curve_model(ai)
        a = an_coefficients(model.minimal, 3000)
        for digits in (30, 60, 200):
            for nmax in (4, 6, 9, 14, 23, 40, 99, 250, 1000):
                im = _im_for(nmax, digits)
                assert phi_terms(im, digits) == nmax
                shapes |= _kernel_shapes(a, nmax)
                tau = mp.mpc("0.3", im)
                for weight, fast in ((1, eval_phi), (0, eval_newform)):
                    want = eval_series_direct(model.minimal, tau, digits, weight)
                    got = fast(model, dyadic_point(tau), digits)
                    with mp.workdps(digits + 30):
                        assert abs(got - want) < mp.mpf(10) ** -(digits + 5), (label, digits, nmax)
    assert shapes == {"pair cut by n_max", "partial top block", "empty block",
                      "pair cut by a block edge", "odd count in a block"}


U = 2.0 ** -53
# the allowances of the three readers of a LAMBDA_DIGITS value, and the weight
# each reads: the 2520 K_Q read (al_constant), a read of lam or Omega
# (experiments), and the numerical sign's tol^2 / 2 (_numerical_sign)
ALLOWANCES = {"K_Q": (LAMBDA_BUDGET / (2 * K_EXPONENT + 1), 1),
              "lam": (VALUE_ALLOWANCE, 1), "sign": (10.0 ** -LAMBDA_DIGITS / 2, 0)}


def _grid_points() -> list:
    """FormPoints (A, B, D) of the q tests: orbit-like points at N = 49, 121,
    50 and 36 for several B, a real q at A | B, |Re tau| = 1, t = 2 pi Im tau
    from about 744 to 747 (q underflows to 0.0 at about 745), and the K_Q
    points (N, -2x, -4Q) of every Q || N the catalogue and level-45/90 curves
    use."""
    pts = []
    for n, disc in ((49, -19), (121, -67), (50, -31), (36, -23)):
        for m in (1, 2, 7):
            a = m * n
            pts += [FormPoint(a, b, disc) for b in range(-2 * a, 2 * a + 1)
                    if (b * b - disc) % (4 * a) == 0][:12]
    pts += [FormPoint(a, a * k, -3 - a * a * k * k) for a in (1, 5, 36) for k in (0, 1, 2, -3)]
    pts += [FormPoint(1, 2 * s, -4 * c) for s in (-1, 1) for c in (11, 1003, 10 ** 6)]  # Re = -+1
    pts += [FormPoint(1, 1, 1 - 4 * c) for c in range(14040, 14130, 3)]          # t near 745
    for n in (49, 121, 50, 36, 45, 90):
        for q_div in (q for q in range(2, n + 1) if n % q == 0 and gcd(q, n // q) == 1):
            for w in (1, -1):
                pts += [FormPoint(n, -2 * x, -4 * q_div)
                        for _, x in al_constant_points(n, q_div, w)]
    return pts


def test_integer_pi_and_ln2_are_the_floors():
    # the BITS-bit constants every q is made from, against mpmath at BITS + 64 bits
    with mp.workprec(BITS + 64):
        assert PI == int(mp.floor(mp.ldexp(mp.pi, BITS)))
        assert LN2 == int(mp.floor(mp.ldexp(mp.ln2, BITS)))


def _assert_q_within_its_bound(tau: FormPoint, want) -> complex:
    """float_error's q at tau and the |q| its bound is made from (q_scaled's
    third value at 68 bits, at the point's own integers) against want: each
    part of q and |q| correctly rounded from a value within 2^-68 |q|, or
    within 2^-1075 where subnormal; and q / |q| within 3 units of want /
    |want| (cos and sin)."""
    q = float_error(tau, tau.imag, 4, 1)[0]
    _, _, m, e = q_scaled(tau, 68)
    r = m / (1 << e)
    with mp.workdps(100):
        tiny = mp.mpf(2) ** -1075
        for got, part in ((q.real, want.real), (q.imag, want.imag)):
            assert abs(got - part) <= U * abs(part) + 2.0 ** -68 * abs(want) + tiny, tau
        assert abs(r - abs(want)) <= (U + 2.0 ** -68) * abs(want) + tiny, tau
        if abs(want) > 2.0 ** -1000:
            assert abs(mp.mpc(q) / r - want / abs(want)) <= 3 * U, tau
    return q


def test_q_from_integers_is_within_its_bound_on_a_grid():
    # float_error's q and |q| at each exact FormPoint, from its own integers,
    # against mpmath at 100 digits at that exact point; q is real at A | B, 0
    # from Im tau = 119 on (t > 747) and underflows to 0 from t = 746
    grid, real, zero, subnormal = _grid_points(), 0, 0, 0
    for pt in grid:
        with mp.workdps(100):
            want = mp.exp(mp.pi * mp.mpc(-pt.b, mp.sqrt(-pt.disc)) * 1j / pt.a)
        q = _assert_q_within_its_bound(pt, want)
        if pt.b % pt.a == 0:
            assert q.imag == 0.0, pt
            real += 1
        zero += q == 0
        subnormal += 0 < max(abs(q.real), abs(q.imag)) < 2.0 ** -1022
    assert len(grid) > 100 and real > 10 and zero > 3 and subnormal > 3


def _im_with_terms(n: int) -> float:
    """The least double Im tau, to bisection, with phi_terms(Im tau,
    LAMBDA_DIGITS) <= n."""
    lo, hi = 1e-3, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if phi_terms(mid, LAMBDA_DIGITS) > n else (lo, mid)
    return hi


def _counting_floats(monkeypatch) -> list:
    """Patch the float route's accumulate to record each series it runs."""
    runs, accumulate = [], modparam.accumulate

    def counting(*args):
        runs.append(args)
        return accumulate(*args)

    monkeypatch.setattr(modparam, "accumulate", counting)
    return runs


def _admitted(allowance: float, weight: int, admit: bool = True) -> float:
    """The least Im tau, to bisection, at which the float route's bound and
    the tail at LAMBDA_DIGITS are under the allowance (admit), or the largest
    at which they are not; the bound reads Im tau alone, through |q|."""
    lo, hi = 1e-4, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        error = float_error(dyadic_point(complex(0.0, mid)), mid, phi_terms(mid, LAMBDA_DIGITS),
                            weight)[1]
        fits = error + 1e-15 < allowance
        lo, hi = (lo, mid) if fits else (mid, hi)
    return hi if admit else lo


def _far_points() -> list:
    """K_Q points (N, -2x, -4Q) and sign points (2N, 4d - k, k^2 - 16Q) of
    al_matrix at N = 98, 150 and 294, translated to Re tau from about 7 to
    300 either way, up to about 1200 terms at LAMBDA_DIGITS: the bound holds
    there with kappa = KAPPA because q is taken at tau itself, and a q taken
    at a rounded double Re tau would miss it by far."""
    pts = []
    for n, q_div, shift in ((98, 2, 7), (150, 6, -40), (294, 3, 300)):
        pts += [FormPoint(n, -2 * x - 2 * n * shift, -4 * q_div)
                for _, x in al_constant_points(n, q_div, -1)]
        _, tau, _ = sign_points(n, q_div)[1]
        pts.append(FormPoint(tau.a, tau.b - 2 * tau.a * shift, tau.disc))
    return pts


@pytest.mark.parametrize("ai", [(1, -1, 0, -2, -1), (0, -1, 1, -7, 10), (1, 1, 1, -3, 1),
                                (0, 0, 0, 0, 1), (0, -1, 1, -10, -20)])
def test_float_route_is_within_its_proven_bound(monkeypatch, ai):
    # LAMBDA_DIGITS series in doubles from 4 terms up to the most each
    # allowance admits, at the weight its reader reads and at the other,
    # against the term-by-term mpc sum at the exact point, at dyadic points
    # of -1 <= Re tau <= 1 whose term counts spread evenly (n is about 35 /
    # (2 pi Im tau)); the largest count, at Re tau = 0, on the CM curves,
    # whose a_n the Hecke walk gives cheaply, and up to 3000 terms on the
    # point-counted 50b1 and 11a1; at FormPoints of the grid the route admits
    # (K_Q points and orbit-like points); and at the far points, |Re tau| >> 1,
    # at both weights under the sign's allowance
    cur, rng, pick = Curve(*ai), random.Random(str(ai)), random.Random(f"{ai} FormPoint")
    runs, counts, cases = _counting_floats(monkeypatch), set(), []
    counted = ai in ((1, 1, 1, -3, 1), (0, -1, 1, -10, -20))
    grid = [pt for pt in _grid_points() if pt.imag < 119]
    for reader, weight in [*((r, w) for r, (_, w) in ALLOWANCES.items()), ("K_Q", 0), ("lam", 0)]:
        allowance = ALLOWANCES[reader][0]
        x = rng.choice([-1.0, -0.5, 0.3, 1.0])
        lo, hi = _admitted(allowance, weight), _im_with_terms(4)
        lo = max(lo, _im_with_terms(3000)) if counted else lo
        im = 1 / (1 / hi + (1 / lo - 1 / hi) * rng.random())
        cases += [(dyadic_point(complex(x, y)), weight, allowance) for y in (hi, im)]
        if not counted:
            cases.append((dyadic_point(complex(0.0, lo)), weight, allowance))
        admitted = [pt for pt in grid if float_error(pt, pt.imag, phi_terms(pt.imag, LAMBDA_DIGITS),
                                                     weight)[1] + 1e-15 < allowance]
        cases += [(pt, weight, allowance) for pt in pick.sample(admitted, 3)]
    cases += [(pt, weight, ALLOWANCES["sign"][0]) for pt in _far_points() for weight in (1, 0)]
    for tau, weight, allowance in cases:
        n = phi_terms(tau.imag, LAMBDA_DIGITS)
        counts.add(n)
        got = _eval_series(cur, tau, LAMBDA_DIGITS, weight, allowance)
        bound = float_error(tau, tau.imag, n, weight)[1]
        with mp.workdps(100):
            exact = mp.mpc(-tau.b, mp.sqrt(-tau.disc)) / (2 * tau.a)
        want = eval_series_direct(cur, exact, LAMBDA_DIGITS, weight)
        assert isinstance(got, complex) and bound + 1e-15 < allowance
        with mp.workdps(30):
            assert abs(got - want) <= bound + 1e-15, (tau, n, weight)
    assert len(runs) == len(cases) and min(counts) == 4 and max(counts) > 1000


def test_the_allowances_admit_the_term_counts_the_docstring_states():
    # the most terms each reader's allowance admits in doubles at its weight
    # (modparam docstring), whatever Re tau is: the bound reads Im tau alone
    admitted = {reader: phi_terms(_admitted(allowance, weight), LAMBDA_DIGITS)
                for reader, (allowance, weight) in ALLOWANCES.items()}
    assert admitted == {"K_Q": 580, "lam": 14296, "sign": 61452}


@pytest.mark.parametrize("label", sorted(TABLE_CURVES))
def test_float_route_sums_the_doubles_of_the_division_down_the_chain(monkeypatch, label):
    # the a_n / n of the curve's table are the quotients the chain divided,
    # summed in the same order, from n_max down: equal as doubles, at both
    # weights, from 4 terms up to the most the lam allowance admits
    cur, rng = Curve(*TABLE_CURVES[label]), random.Random(label)
    runs = _counting_floats(monkeypatch)
    for weight in (1, 0):
        lo, hi = _admitted(VALUE_ALLOWANCE, weight), _im_with_terms(4)
        for x in (-1.0, -0.5, 0.0, 0.3, 1.0):
            for im in (lo, hi, 1 / (1 / hi + (1 / lo - 1 / hi) * rng.random())):
                runs.clear()
                tau = dyadic_point(complex(x, im))
                got = _eval_series(cur, tau, LAMBDA_DIGITS, weight, VALUE_ALLOWANCE)
                want = eval_series_in_doubles_by_chain(cur, tau, LAMBDA_DIGITS, weight)
                assert len(runs) == 1 and got == want, (x, im, weight)


def test_a_series_over_its_allowance_or_with_none_runs_in_fixed_point(monkeypatch):
    # just past the largest Im tau the lam allowance refuses, the series runs
    # in fixed point and returns an mpc; without an allowance, at any precision
    model = curve_model((0, -1, 1, -7, 10))
    runs = _counting_floats(monkeypatch)
    inside, outside = (complex(0.3, _admitted(VALUE_ALLOWANCE, 1, admit))
                       for admit in (True, False))
    for tau, digits, allowance, floats in ((inside, LAMBDA_DIGITS, VALUE_ALLOWANCE, 1),
                                           (outside, LAMBDA_DIGITS, VALUE_ALLOWANCE, 0),
                                           (inside, LAMBDA_DIGITS, 0.0, 0),
                                           (inside, LAMBDA_DIGITS + 1, 0.0, 0),
                                           (complex(0.3, 1), 15, 0.0, 0)):
        runs.clear()
        got = eval_phi(model, dyadic_point(tau), digits, allowance)
        assert len(runs) == floats and isinstance(got, complex) == bool(floats), (tau, digits)
        want = eval_series_direct(model.minimal, tau, digits, 1)
        with mp.workdps(30):
            assert abs(got - want) < VALUE_ALLOWANCE * 10 ** (LAMBDA_DIGITS - digits)


def test_the_five_digit_layer_takes_no_q_from_mpmath(monkeypatch):
    # with the trace-precision q blocked, 49a1/-11 (w_p = -1: every series at
    # 5 digits) still reads torsion with K_49 unchanged, and the sign of
    # 36a1's W_9: each q in doubles from its FormPoint's own integers
    def blocked(*args):
        raise AssertionError("a 5-digit series took its q from elsewhere than its FormPoint")

    monkeypatch.setattr(modparam, "q_fixed", blocked)
    al_constant.cache_clear()
    rep = trace_point(ExperimentSpec(dK=-11, f=1, curve=curve_model((1, -1, 0, -2, -1)),
                                     digits=60))
    assert rep.wp == -1 and rep.verdict == "torsion"
    assert rep.constants == ((49, -1, 1, 0, 2),)
    assert {e.digits for e in rep.orbit} == {LAMBDA_DIGITS}
    m36 = curve_model((0, 0, 0, 0, 1))
    assert _numerical_sign(m36.minimal, 36, 9) == atkin_lehner_sign(m36.minimal, 36, 9) == 1


def _random_form_points() -> list:
    """[(point, fine)]: 300 random FormPoints, a third with A | B and a third
    with A even and A | 2B only, each with the fine precision of the baby
    steps of a series at 20, 45, 75 or 215 digits."""
    rng, out = random.Random(49), []
    for n in range(300):
        a = rng.randint(1, 10 ** rng.randint(1, 4)) * (2 if n % 3 == 1 else 1)
        b = [a * rng.randint(-3, 3), a // 2 * rng.randrange(-5, 6, 2), rng.randint(-a, a)][n % 3]
        y = 10 ** rng.uniform(-3, 0.3)
        c = (4 * a * a * round(y * y * 10 ** 6) // 10 ** 6 + b * b) // (4 * a) + 1
        with mp.workdps(rng.choice([20, 45, 75, 215]) + SERIES_GUARD):
            out.append((FormPoint(a, b, b * b - 4 * a * c), mp.mp.prec + rng.randrange(8, 40)))
    return out


def test_q_at_a_form_point_is_within_two_units_and_exactly_real_or_imaginary():
    # the fixed-point route's q at 300 random FormPoints: each part, cut toward
    # zero at the fine precision of the baby steps, within 2 units of
    # mp.exp(2 pi i tau) taken at fine + 64 bits; Im q exactly 0 when A | B,
    # Re q exactly 0 when A | 2B but not A | B, and neither otherwise
    for point, fine in _random_form_points():
        a, b = point.a, point.b
        with mp.workprec(fine + 64):
            q = mp.exp(2j * mp.pi * mp.mpc(-b, mp.sqrt(-point.disc)) / (2 * a))
            want = mp.ldexp(q.real, fine), mp.ldexp(q.imag, fine)
        got = q_fixed(point, fine)
        assert all(abs(g - w) < 2 for g, w in zip(got, want)), (point, got, want)
        re, im = q_scaled(point, fine + 4)[:2]
        assert (im == 0) == (b % a == 0) and (re == 0) == (2 * b % a == 0 != b % a), point


@pytest.mark.parametrize("bits", [53, 300, 770])
def test_q_from_integers_is_libmps_to_a_unit(bits):
    # the same 300 points at a double's 53 bits, a 60-digit series' 300 and a
    # 200-digit series' 770: each part of q_fixed within one unit of libmp's
    # exp and cos-sin (oracles.q_by_libmp) cut toward zero the same way
    for point, _ in _random_form_points():
        want = [to_int(mpf_shift(v, bits)) for v in q_by_libmp(point, bits)]
        got = q_fixed(point, bits)
        assert all(abs(g - w) <= 1 for g, w in zip(got, want)), (point, got, want)


def test_a_q_beyond_the_constants_is_an_input_error():
    # PI and LN2 carry BITS bits, so q_scaled takes at most BITS - 64 working
    # bits: a 200-digit series stays under them, a 300-digit series asks for
    # more and is refused as an InputError, also where asserts are compiled out
    model, point = curve_model((1, -1, 0, -2, -1)), FormPoint(1, 0, -4)
    eval_phi(model, point, 200)
    with pytest.raises(InputError, match=f"beyond the {BITS}-bit constants"):
        eval_phi(model, point, 300)
    with pytest.raises(InputError):
        q_scaled(point, BITS)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(3, 10 ** 15), a=st.integers(1, 10 ** 18))
def test_im_tau_is_sqrt_d_over_2a_correctly_rounded(m, a):
    # the double im_tau gives is the nearest to sqrt(m) / (2a), checked in
    # exact rationals against the midpoints to both neighbours, and the one
    # float(mp.sqrt(m) / (2a)) gives at 60 and 200 digits + SERIES_GUARD
    got = Fraction(im_tau(-m, a))
    for side in (0.0, math.inf):
        mid = (got + Fraction(math.nextafter(float(got), side))) / 2
        assert (4 * a * a * mid * mid <= m) == (side == 0.0)
    for digits in (60, 200):
        with mp.workdps(digits + SERIES_GUARD):
            assert im_tau(-m, a) == float(mp.sqrt(m) / (2 * a))


def _twist(ai, d):
    """Minimal model of the quadratic twist by d; the 6^4, 6^6 scaling makes
    the invariants those of an integral short model."""
    cur = Curve(*ai)
    return minimal_model(curve_from_c4c6(6 ** 4 * d * d * cur.c4, 6 ** 6 * d ** 3 * cur.c6))


# (a-invariants, twist, p, v_p(Delta_min)): suite curves and their p-twists,
# so that v runs over every potentially good value at p >= 5.
TWISTED_CASES = [
    ((1, 1, 1, -3, 1), 1, 5, 2),            # 50b1, II
    ((1, -1, 0, -2, -1), 1, 7, 3),          # 49a1, III
    ((0, -1, 1, -7, 10), 1, 11, 3),         # 121b1, III
    ((1, 0, 1, -1, -2), 1, 5, 4),           # 50a1, IV
    ((0, 0, 0, 0, 1), 5, 5, 6),             # 36a1 twisted by 5, I0* (N = 900)
    ((0, 0, 0, 0, 1), -7, 7, 6),            # 36a1 twisted by -7, I0* (N = 1764)
    ((1, 1, 1, -3, 1), 5, 5, 8),            # IV*
    ((1, -1, 0, -2, -1), -7, 7, 9),         # III*
    ((0, -1, 1, -7, 10), -11, 11, 9),       # III*
    ((1, 0, 1, -1, -2), 5, 5, 10),          # II*
]

# Potentially multiplicative at 5 (I_n*, v = 6 + n): the sign is (-1/5) = +1.
# At n = 3 the e = 12 / gcd(12, v) rule would give (-2/5) = -1 instead.
POT_MULT_CASES = [
    ((1, 0, 1, -251, -727), 4),             # N = 75
    ((0, -1, 1, 217, -282), 3),             # N = 175
    ((1, 0, 1, -1, 23), 1),                 # N = 75
]


@pytest.mark.parametrize("ai,d,p,v", TWISTED_CASES)
def test_local_sign_matches_numerical_route_potentially_good(ai, d, p, v):
    cur = _twist(ai, d)
    local = tate_local(cur, p)
    assert (local.v_disc, local.reduction) == (v, "additive")
    assert cur.c4 == 0 or 3 * _valuation(cur.c4, p) >= v          # potentially good
    model = curve_model(cur.ainvs, p=p)
    assert local_sign(cur, p) is not None
    mini, n = model.minimal, model.n
    assert atkin_lehner_sign(mini, n, p * p) == _numerical_sign(mini, n, p * p)


@pytest.mark.parametrize("ai,n", POT_MULT_CASES)
def test_local_sign_potentially_multiplicative(ai, n):
    cur = Curve(*ai)
    assert minimal_model(cur) == cur
    local = tate_local(cur, 5)
    assert (local.v_disc, local.reduction) == (6 + n, "additive")
    assert 3 * _valuation(cur.c4, 5) < local.v_disc
    level = curve_model(ai, p=5).n
    assert atkin_lehner_sign(cur, level, 25) == _numerical_sign(cur, level, 25) == 1


@pytest.mark.parametrize("ai,q", [
    ((1, 0, 1, -1, -2), 2),                 # 50a1, non-split I1
    ((1, 1, 1, -3, 1), 2),                  # 50b1, split I5
    ((1, -1, 1, -2, 0), 11),                # 99, non-split I1
])
def test_multiplicative_sign_is_minus_a_q(ai, q):
    model = curve_model(ai)
    cur, n = model.minimal, model.n
    a_q = an_coefficients(cur, q)[q]
    assert tate_local(cur, q).reduction in ("split", "nonsplit")
    assert atkin_lehner_sign(cur, n, q) == -a_q == _numerical_sign(cur, n, q)
    # composite Q = N: the local sign at q times the numerical one of the rest
    w_n = _numerical_sign(cur, n, n)
    assert atkin_lehner_sign(cur, n, q) * _numerical_sign(cur, n, n // q) == w_n
    assert atkin_lehner_sign(cur, n, n) == w_n


def test_numerical_route_only_where_a_prime_has_no_closed_form(monkeypatch):
    import cmtrace.modparam as modparam
    calls = []
    numerical = modparam._numerical_sign

    def counting(cur, n_level, q_div):
        calls.append((n_level, q_div))
        return numerical(cur, n_level, q_div)

    monkeypatch.setattr(modparam, "_numerical_sign", counting)
    for ai in ((1, -1, 0, -2, -1), (0, -1, 1, -7, 10), (1, 0, 1, -1, -2), (1, 1, 1, -3, 1)):
        model = curve_model(ai)
        atkin_lehner_sign(model.minimal, model.n, model.p ** 2)
        atkin_lehner_sign(model.minimal, model.n, model.n)
    assert calls == []
    m36, m99 = curve_model((0, 0, 0, 0, 1)), curve_model((1, -1, 1, -2, 0))
    assert atkin_lehner_sign(m36.minimal, m36.n, 9) == 1            # additive at 3
    assert atkin_lehner_sign(m99.minimal, 99, 99) == 1     # 3 additive, 11 multiplicative
    assert calls == [(36, 9), (99, 99)]


def _sign_test_curves() -> list:
    """(minimal model, N) of every curve the sign tests above read."""
    models = [curve_model(_twist(ai, d).ainvs, p=p) for ai, d, p, _ in TWISTED_CASES]
    models += [curve_model(ai, p=5) for ai, _ in POT_MULT_CASES]
    models += [curve_model(ai) for ai in ((1, 0, 1, -1, -2), (1, 1, 1, -3, 1), (1, -1, 1, -2, 0),
                                          (0, 0, 0, 0, 1), (1, -1, 0, 0, -5), (1, -1, 0, -2, -1),
                                          (0, -1, 1, -7, 10))]
    return [(m.minimal, m.n) for m in models]


def test_sign_points_lie_on_the_circle_and_w_q_swaps_them():
    # every Q || N of the sign tests' curves, Q = N included: u = N tau + d =
    # (k + i s) / 4 has |u|^2 = Q exactly in integers, both points share Im
    # tau = s / (4N) >= sqrt(3 Q) / (2N), and W_Q tau, by Mobius arithmetic
    # at 50 digits, is the partner point; at a square Q the first u is
    # sqrt(Q) e^(i pi / 3), the old first sample
    seen = 0
    for _, n in _sign_test_curves():
        for q_div in (q for q in range(2, n + 1) if n % q == 0 and gcd(q, n // q) == 1):
            a, b, c, d = al_matrix(n, q_div)
            points = sign_points(n, q_div)
            assert len({tau for _, tau, _ in points}) == 5
            for k, tau, w_tau in points:
                assert tau.a == w_tau.a == 2 * n and tau.disc == w_tau.disc < 0
                assert (4 * d - tau.b) ** 2 - tau.disc == 16 * q_div         # |u|^2 = Q
                assert k == 4 * d - tau.b and -tau.disc >= 12 * q_div
                with mp.workdps(50):
                    z, w = (mp.mpc(-p.b, mp.sqrt(-p.disc)) / (2 * p.a) for p in (tau, w_tau))
                    assert abs((a * z + b) / (c * z + d) - w) < mp.mpf(10) ** -45
                    u = (k + 1j * mp.sqrt(-tau.disc)) / 4
                    assert abs(u - (c * z + d)) < mp.mpf(10) ** -45
                    if k == points[0][0] and math.isqrt(q_div) ** 2 == q_div:
                        assert abs(u - mp.sqrt(q_div) * mp.expjpi(mp.mpf(1) / 3)) < 1e-45
                seen += 1
    assert seen >= 5 * 40


def test_numerical_sign_calls_no_mpmath(monkeypatch):
    # with mpmath's exp, sqrt and mpc gone, the sign comes from FormPoints and
    # complex doubles: W_9 on 36a1 and 45a1 (additive at 3), W_99 on 99
    def blocked(*args, **kwargs):
        raise AssertionError("the numerical sign called mpmath")

    for name in ("exp", "sqrt", "mpc"):
        monkeypatch.setattr(mp, name, blocked)
    for ai, q_div, w in (((0, 0, 0, 0, 1), 9, 1), ((1, -1, 0, 0, -5), 9, -1),
                         ((1, -1, 1, -2, 0), 99, 1)):
        model = curve_model(ai)
        assert _numerical_sign(model.minimal, model.n, q_div) == w, ai

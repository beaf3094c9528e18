import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_shift, to_fixed, to_int

from cmtrace import modparam
from cmtrace.curves import (Curve, _valuation, an_coefficients, curve_from_c4c6, curve_model,
                            minimal_model, tate_local)
from cmtrace.heegner import heegner_form
from cmtrace.modparam import (FLOAT_CAP, GUARD, LAMBDA_DIGITS, NMAX_CAP, SeriesBudgetError,
                              _local_sign, _numerical_sign, al_matrix, atkin_lehner_sign,
                              eval_newform, eval_phi, im_tau, phi_terms)
from cmtrace.periods import period_lattice
from oracles import eval_series_direct, heegner_tau, lattice_distance, phi_terms_mp, root_number


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
    # over the cap, also where the quotient overflows a double (1e-310) or Im
    # tau underflows one (1e-400): the budget error, never a bare ValueError
    for im_tau in ("1e-6", "1e-40", "1e-310", "1e-400"):
        with pytest.raises(SeriesBudgetError):
            phi_terms(mp.mpf(im_tau), 60)
        with pytest.raises(SeriesBudgetError):
            eval_phi(Curve(0, -1, 1, -10, -20), mp.mpc(0.1, mp.mpf(im_tau)), 30)
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
    want = phi_terms_mp(im_tau, digits)
    if want > NMAX_CAP:
        with pytest.raises(SeriesBudgetError) as exc:
            phi_terms(im_tau, digits)
        assert exc.value.needed == want
    else:
        assert phi_terms(im_tau, digits) == want


def test_phi_periodicity():
    model = curve_model((1, -1, 0, -2, -1))
    tau = mp.mpc("0.137", "0.31")
    z1 = eval_phi(model, tau, 50)
    z2 = eval_phi(model, tau + 1, 50)
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
    z0 = eval_phi(model, tau, 50)
    checked = 0
    with mp.workdps(65):
        while checked < 20:
            (a, b), (c, d) = _gamma0_word(model.n, rng)
            gt = (a * tau + b) / (c * tau + d)
            if mp.im(gt) < 0.02:
                continue
            z1 = eval_phi(model, gt, 50)
            assert lattice_distance(lat, z1 - z0) < mp.mpf(10) ** -25
            checked += 1


def test_fricke_functional_equation_pointwise():
    # f(-1/(N tau)) = w * N tau^2 f(tau), a hard identity for the series
    model = curve_model((1, -1, 0, -2, -1))
    w = atkin_lehner_sign(model.minimal, model.n, 49)
    with mp.workdps(65):
        for tau in [mp.mpc("0.07", "0.21"), mp.mpc("-0.13", "0.17")]:
            lhs = eval_newform(model, -1 / (49 * tau), 50)
            rhs = w * 49 * tau ** 2 * eval_newform(model, tau, 50)
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
            with mp.workdps(digits + GUARD):
                tau = (mp.sqrt(q_div) * mp.exp(1j * mp.pi / 2) - d) / c
                image = (a * tau + b) / (c * tau + d)
                ratio = (q_div * eval_newform(cur, image, digits)
                         / ((c * tau + d) ** 2 * eval_newform(cur, tau, digits)))
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
    model = curve_model((1, -1, 0, -2, -1))
    with pytest.raises(ValueError):
        eval_phi(model, mp.mpc(0, -1), 30)
    with pytest.raises(ValueError):
        eval_newform(model, mp.mpc("0.1", "-0.2"), 30)


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
                got = fast(model, tau, digits)
                with mp.workdps(digits + 30):
                    assert abs(got - want) < mp.mpf(10) ** -(digits + 5), (digits, tau, weight)


def _float_bound(im, weight: int) -> float:
    """E1 (weight 1) or E0 (weight 0) of the module docstring: the float
    route's rounding error at Im tau = im."""
    u, g, kappa = 2.0 ** -53, 1 / math.expm1(2 * math.pi * float(im)), 4.26
    if weight:
        return math.sqrt(3) * u * (kappa * g * (1 + g) + 2 * g)
    return math.sqrt(3) * u * (kappa * g * (1 + g) * (1 + 2 * g) + 2 * g * (1 + g))


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


@pytest.mark.parametrize("ai", [(1, -1, 0, -2, -1), (0, -1, 1, -7, 10), (1, 1, 1, -3, 1),
                                (0, 0, 0, 0, 1), (0, -1, 1, -10, -20)])
def test_float_route_is_within_its_proven_bound(monkeypatch, ai):
    # LAMBDA_DIGITS series of 4 to FLOAT_CAP terms, both weights, against the
    # term-by-term mpc sum, at random points of -1 < Re tau < 1 whose term
    # counts are spread evenly (n is about 35 / (2 pi Im tau))
    cur, rng = Curve(*ai), random.Random(str(ai))
    runs = _counting_floats(monkeypatch)
    lo, hi = _im_with_terms(FLOAT_CAP), _im_with_terms(4)
    ims = [lo, hi] + [1 / (1 / hi + (1 / lo - 1 / hi) * rng.random()) for _ in range(28)]
    counts = set()
    for im in ims:
        with mp.workdps(LAMBDA_DIGITS + GUARD):
            tau = mp.mpc(rng.uniform(-1, 1), im)
        counts.add(phi_terms(tau.imag, LAMBDA_DIGITS))
        for weight, fast in ((1, eval_phi), (0, eval_newform)):
            want = eval_series_direct(cur, tau, LAMBDA_DIGITS, weight)
            got = fast(cur, tau, LAMBDA_DIGITS)
            with mp.workdps(30):
                assert abs(got - want) <= _float_bound(tau.imag, weight) + 1e-20, (tau, weight)
    assert len(runs) == 60 and min(counts) == 4 and max(counts) == FLOAT_CAP


def test_a_series_over_the_float_cap_or_at_another_precision_runs_in_fixed_point(monkeypatch):
    model = curve_model((0, -1, 1, -7, 10))
    runs = _counting_floats(monkeypatch)
    at_cap, over = (mp.mpc(0.3, _im_with_terms(n)) for n in (FLOAT_CAP, FLOAT_CAP + 1))
    assert phi_terms(at_cap.imag, LAMBDA_DIGITS) == FLOAT_CAP
    assert phi_terms(over.imag, LAMBDA_DIGITS) == FLOAT_CAP + 1
    for tau, digits, floats in ((at_cap, LAMBDA_DIGITS, 1), (over, LAMBDA_DIGITS, 0),
                                (at_cap, LAMBDA_DIGITS + 1, 0), (mp.mpc(0.3, 1), 15, 0)):
        runs.clear()
        got = eval_phi(model, tau, digits)
        assert len(runs) == floats, (tau, digits)
        want = eval_series_direct(model.minimal, tau, digits, 1)
        with mp.workdps(30):
            assert abs(got - want) < 1e-13 * 10 ** (LAMBDA_DIGITS - digits)


def test_raw_q_integers_are_those_int_cuts_from_mp_exp():
    # the fixed-point route's q: one raw mpc_exp at the precision of the baby
    # steps, cut toward zero as int(mp.ldexp(...)) cuts it; libmp.to_fixed
    # floors instead, which differs on a negative real or imaginary part
    rng, floored = random.Random(38), 0
    for _ in range(300):
        with mp.workdps(rng.choice([20, 45, 75, 215])):
            tau = mp.mpc(rng.uniform(-1, 1), 10 ** rng.uniform(-3, 0.3))
            fine = mp.mp.prec + rng.randrange(8, 40)
            with mp.workprec(fine):
                q = mp.exp(2j * mp.pi * tau)
                want = int(mp.ldexp(q.real, fine)), int(mp.ldexp(q.imag, fine))
        if q.real >= 0 and q.imag >= 0:
            continue
        raw = modparam._q(tau, fine)
        assert tuple(to_int(mpf_shift(v, fine)) for v in raw) == want, tau
        floored += tuple(to_fixed(v, fine) for v in raw) != want
    assert floored > 100


@settings(max_examples=300, deadline=None)
@given(m=st.integers(3, 10 ** 15), a=st.integers(1, 10 ** 18))
def test_im_tau_is_sqrt_d_over_2a_correctly_rounded(m, a):
    # the double im_tau gives is the nearest to sqrt(m) / (2a), checked in
    # exact rationals against the midpoints to both neighbours, and the one
    # float(mp.sqrt(m) / (2a)) gives at 60 and 200 digits + GUARD
    got = Fraction(im_tau(-m, a))
    for side in (0.0, math.inf):
        mid = (got + Fraction(math.nextafter(float(got), side))) / 2
        assert (4 * a * a * mid * mid <= m) == (side == 0.0)
    for digits in (60, 200):
        with mp.workdps(digits + GUARD):
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
    assert _local_sign(cur, p) is not None
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

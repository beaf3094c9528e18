"""The Galois orbit of the whole trace catalogue against the lattice-pair
oracle, and orbit points moved by Atkin-Lehner involutions: the identity
phi(tau) = w_Q (phi(W_Q (tau + k)) - K_Q), the same orbit values and trace as
the direct route on the whole trace catalogue, never more series terms, and
the fixed-point pair kernel against the term-by-term sum."""

import random
import time
from math import gcd, isqrt

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtrace import curves, experiments
from cmtrace.curves import an_coefficients, curve_model
from cmtrace.errors import InputError
from cmtrace.experiments import (ExperimentSpec, _choose, al_signs, orbit_options, orbit_trace,
                                 plan_orbit, trace_point)
from cmtrace.heegner import HeegnerTau, al_move, galois_orbit, heegner_form
from cmtrace.modparam import (NMAX_CAP, SeriesBudgetError, al_constant, al_constant_points,
                              al_matrix, atkin_lehner_sign, eval_newform, eval_phi, phi_terms)
from cmtrace.quadforms import is_fundamental_discriminant, kernel_classes, order_data
from oracles import (eval_series_direct, galois_orbit_by_lattices, least_plan_terms_by_subsets,
                     orbit_trace_direct, phi_terms_mp)

# the five curves of the trace catalogue, with the modes the suite uses
CURVES = {
    "49a1": ((1, -1, 0, -2, -1), "signo_minus"),
    "121b1": ((0, -1, 1, -7, 10), "main_plus"),
    "50a1": ((1, 0, 1, -1, -2), "signo_minus"),
    "50b1": ((1, 1, 1, -3, 1), "main_plus"),
    "36a1": ((0, 0, 0, 0, 1), "main_plus"),
}
MODELS = {label: curve_model(ai) for label, (ai, _) in CURVES.items()}
_WP = {}


# curves of level 45 and 90, additive at 3, with w_9 (measured numerically):
# their traces move points by W_9, which 36a1's never do (its K_9 costs more
# than it saves); on 1,-1,0,6,0, w_9 = +1 and K_9 = (1 - w_9) phi(s0) = 0
W9_CURVES = {"1,-1,0,0,-5": -1, "1,-1,0,6,0": 1, "1,-1,1,13,-61": -1}
MODELS.update({key: curve_model(tuple(map(int, key.split(",")))) for key in W9_CURVES})


def _catalogue(curves: dict, dks, fs) -> list:
    """Every (label, dK, f) with dK a fundamental discriminant in dks and f in
    fs that passes ExperimentSpec.validate in the curve's mode."""
    out = []
    for label, mode in curves.items():
        for dK in dks:
            if not is_fundamental_discriminant(dK):
                continue
            for f in fs:
                try:
                    ExperimentSpec(dK=dK, f=f, curve=MODELS[label], mode=mode).validate()
                except InputError:
                    continue
                out.append((label, dK, f))
    return out


CATALOGUE = _catalogue({label: mode for label, (_, mode) in CURVES.items()},
                       range(-120, -6), (1, 2, 3))
W9_CASES = _catalogue(dict.fromkeys(W9_CURVES, "main_plus"), range(-150, -6), (1, 7))


def _signs(label: str) -> list:
    """al_signs with w_p measured where it needs the series, as plan_orbit
    reads them."""
    return [(q_div, _wp(label) if w is None else w) for q_div, w in al_signs(MODELS[label])]


def _plan(label: str, orbit, digits: int):
    model = MODELS[label]
    return plan_orbit(model, orbit_options(model, orbit, digits), digits, _wp(label))


def _wp(label: str) -> int:
    if label not in _WP:
        model = MODELS[label]
        _WP[label] = atkin_lehner_sign(model.minimal, model.n, model.p ** 2, 30)
    return _WP[label]


def _orbit(label: str, dK: int, f: int):
    model = MODELS[label]
    kernel = kernel_classes(order_data(dK, f), model.p)
    base = HeegnerTau(form=heegner_form(model.n, dK, model.p * f), n_level=model.n, dK=dK,
                      conductor=model.p * f)
    return model, kernel, galois_orbit(base, kernel)


def test_catalogue_has_115_cases():
    assert len(CATALOGUE) == 115
    assert len(W9_CASES) == 20


def test_orbit_equals_the_lattice_route_on_the_catalogue():
    # 397 of the 1040 inverse kernel forms need a representative prime to the
    # base's leading coefficient: every non-identity one of 36a1 (M = 4) and
    # 49 of the 50 of 50a1 and of 50b1 (M = 2)
    for label, dK, f in CATALOGUE:
        model = MODELS[label]
        kernel = kernel_classes(order_data(dK, f), model.p)
        base = HeegnerTau(form=heegner_form(model.n, dK, model.p * f), n_level=model.n, dK=dK,
                          conductor=model.p * f)
        assert galois_orbit(base, kernel) == galois_orbit_by_lattices(base, kernel), (label, dK, f)


def test_usable_involutions_have_signs_from_local_data_or_wp():
    # 36a1 is additive at 2 and 3: Q = 9 = p^2 takes w_p, Q = 4 and 36 are never used
    assert al_signs(MODELS["36a1"]) == ((9, None),)
    assert [q for q, _ in al_signs(MODELS["50b1"])] == [2, 25, 50]
    assert {label: _wp(label) for label in W9_CURVES} == W9_CURVES
    for label, model in MODELS.items():
        for q_div, w in _signs(label):
            assert w == atkin_lehner_sign(model.minimal, model.n, q_div, 30)


@pytest.mark.parametrize("label,dK,f", [("49a1", -11, 1), ("50b1", -7, 3), ("36a1", -7, 1)])
def test_al_move_is_the_moebius_image_with_the_largest_imaginary_part(label, dK, f):
    model, _, orbit = _orbit(label, dK, f)
    digits = 30
    for pt in orbit:
        for q_div in (q for q in range(2, model.n + 1)
                      if model.n % q == 0 and gcd(q, model.n // q) == 1):
            k, form = al_move(pt.form, model.n, q_div)
            a, b, c, d = al_matrix(model.n, q_div)
            image = HeegnerTau(form=form, n_level=model.n, dK=dK, conductor=pt.conductor)
            with mp.workdps(digits + 15):
                tau = pt.tau(digits)
                moved = [(a * (tau + j) + b) / (c * (tau + j) + d) for j in (k - 1, k, k + 1)]
                assert abs(moved[1] - image.tau(digits)) < mp.mpf(10) ** -(digits + 10)
                assert moved[1].imag >= max(moved[0].imag, moved[2].imag)


@pytest.mark.parametrize("label,q_div",
                         [(label, q) for label in CURVES for q, _ in al_signs(MODELS[label])])
@settings(max_examples=6, deadline=None)
@given(u=st.floats(-0.5, 0.5), v=st.floats(0.5, 2), k=st.integers(-2, 2))
def test_atkin_lehner_identity(label, q_div, u, v, k):
    # phi(tau) = w_Q (phi(W_Q (tau + k)) - K_Q), at tau + k = (-d + (u + i v) sqrt Q) / N,
    # near the isometric circle of W_Q, where both sides need few terms
    model = MODELS[label]
    w = dict(_signs(label))[q_div]
    a, b, c, d = al_matrix(model.n, q_div)
    digits = 30
    with mp.workdps(digits + 15):
        moved = (-d + mp.mpc(u, v) * mp.sqrt(q_div)) / c
        tau = moved - k
        image = (a * moved + b) / (c * moved + d)
        lhs = eval_phi(model, tau, digits)
        rhs = w * (eval_phi(model, image, digits)
                   - al_constant(model.minimal, model.n, q_div, w, digits))
        assert abs(lhs - rhs) < mp.mpf(10) ** -(digits + 5)


def test_the_constant_vanishes_where_w_q_fixes_its_base_point_with_sign_plus():
    # W_121 fixes i/11 and w_121 = +1 on 121b1; on 49a1, w_49 = -1 and K = 2 phi(i/7)
    m121, m49 = MODELS["121b1"], MODELS["49a1"]
    assert al_constant(m121.minimal, 121, 121, 1, 60) == 0
    assert al_constant(MODELS["1,-1,0,6,0"].minimal, 90, 9, 1, 60) == 0
    with mp.workdps(75):
        want = 2 * eval_phi(m49, mp.mpc(0, 1) / 7, 60)
        assert abs(al_constant(m49.minimal, 49, 49, -1, 60) - want) < mp.mpf(10) ** -65


def _planned_values(model, plan, digits):
    """The orbit values as the plan prescribes them, in orbit order."""
    with mp.workdps(digits + 15):
        zs = []
        for mv in plan.moves:
            z = eval_phi(model, mv.point.tau(digits), digits)
            if mv.q != 1:
                z = mv.w * (z - al_constant(model.minimal, model.n, mv.q, mv.w, digits))
            zs.append(z)
        return zs


def _check_against_direct(label, dK, f, digits):
    model, kernel, orbit = _orbit(label, dK, f)
    plan = _plan(label, orbit, digits)
    entries, trace_z, n_max = orbit_trace(model, orbit, kernel, plan, digits)
    zs = _planned_values(model, plan, digits)
    zs_direct, trace_direct = orbit_trace_direct(model, orbit, digits)
    tol = mp.mpf(10) ** -(digits + 5)
    with mp.workdps(digits + 15):
        total = mp.mpc(0)
        for z in zs:
            total += z
        assert (+total).real == trace_z.real and (+total).imag == trace_z.imag
        for z, z_direct in zip(zs, zs_direct):
            assert abs(z - z_direct) < tol, (label, dK, f)
        assert abs(trace_z - trace_direct) < tol, (label, dK, f)
    assert n_max == plan.n_max
    assert [(e.q, e.n_max) for e in entries] == [(mv.q, mv.n_max) for mv in plan.moves]
    return [mv.q for mv in plan.moves]


def test_orbit_values_match_the_direct_route_on_the_catalogue_at_60_digits():
    moved, moved_by_9 = 0, set()
    for label, dK, f in CATALOGUE + W9_CASES:
        qs = _check_against_direct(label, dK, f, 60)
        moved += sum(q != 1 for q in qs)
        if 9 in qs:
            moved_by_9.add(label)
    assert moved > 100
    assert moved_by_9 == set(W9_CURVES)        # never 36a1: its K_9 costs more than it saves


@pytest.mark.parametrize("label,dK,f", [("49a1", -11, 1), ("121b1", -67, 1), ("50b1", -7, 1)])
def test_orbit_values_match_the_direct_route_at_200_digits(label, dK, f):
    assert set(_check_against_direct(label, dK, f, 200)) != {1}


def _k_terms(label, table, digits):
    """Terms each usable Q's K_Q costs, for the Q some point can move by."""
    model = MODELS[label]
    offered = {o[2] for opts in table for o in opts}
    out = {}
    for q_div, w in _signs(label):
        if q_div in offered:
            pts = al_constant_points(model.n, q_div, w, digits)
            out[q_div] = phi_terms(pts[0][1].imag, digits) * len(pts) if pts else 0
    return out


def _plan_terms(plan) -> int:
    """Series terms the plan evaluates, K_Q included."""
    return (sum(mv.n_max for mv in plan.moves)
            + sum(n * count for _, _, n, count in plan.constants))


@pytest.mark.parametrize("digits", [60, 200])
def test_plan_never_evaluates_more_terms_than_the_direct_route(digits):
    planned, direct = {}, {}
    for label, dK, f in CATALOGUE:
        model, _, orbit = _orbit(label, dK, f)
        table = orbit_options(model, orbit, digits)
        plan = plan_orbit(model, table, digits, _wp(label))
        with mp.workdps(digits + 15):
            unmoved = sum(phi_terms(pt.tau(digits).imag, digits) for pt in orbit)
        terms = _plan_terms(plan)
        assert terms <= unmoved, (label, dK, f)
        least = least_plan_terms_by_subsets(table, _k_terms(label, table, digits))
        assert terms == least, (label, dK, f)        # greedy is optimal here
        planned[label] = planned.get(label, 0) + terms
        direct[label] = direct.get(label, 0) + unmoved
    for label in ("49a1", "121b1", "50a1", "50b1"):
        assert planned[label] < 0.9 * direct[label]
    assert planned["36a1"] == direct["36a1"]        # W_9's constant costs more than it saves


@pytest.mark.parametrize("digits", [60, 200])
def test_phi_terms_in_doubles_equals_the_30_digit_count_on_the_catalogue(monkeypatch, digits):
    # every Im tau the catalogue's plans price: orbit points, their W_Q
    # images and the K_Q points
    priced = set()

    def recording(im_tau, d):
        priced.add(im_tau)
        return phi_terms(im_tau, d)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "phi_terms", recording)
        for label, dK, f in CATALOGUE:
            _plan(label, _orbit(label, dK, f)[2], digits)
    assert len(priced) > 600
    for im_tau in priced:
        want = phi_terms_mp(im_tau, digits)
        assert experiments._terms(im_tau, digits) == (want, want <= NMAX_CAP), im_tau


@pytest.mark.parametrize("label,dK", [("49a1", -11), ("50b1", -7)])
def test_cold_trace_with_constants_extends_the_sieve_once(monkeypatch, label, dK):
    calls = []
    extended = curves._extended

    def counting(m, known, bound):
        calls.append((len(known) - 1, bound))
        return extended(m, known, bound)

    monkeypatch.setattr(curves, "_an_cache", {})
    monkeypatch.setattr(curves, "_extended", counting)
    al_constant.cache_clear()
    rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=MODELS[label], digits=60))
    assert calls == [(1, rep.n_max)]
    assert {e.q for e in rep.orbit} > {1}
    assert rep.n_max >= max(e.n_max for e in rep.orbit)
    orbit_json = rep.to_json()["orbit"]
    assert [(e["q"], e["n_max"]) for e in orbit_json] == [(e.q, e.n_max) for e in rep.orbit]


@pytest.mark.parametrize("label", ["50a1", "121b1"])
def test_pair_kernel_matches_the_term_by_term_sum_beyond_two_to_the_fifteen(label):
    # n1 n2 < 2^30 keeps each pair's division single-digit; above 2^15 the
    # divisor has two digits and the result must not change
    model = MODELS[label]
    digits = 15
    with mp.workdps(digits + 15):
        tau = mp.mpc("0.3", (digits + 10) * mp.log(10) / (2 * mp.pi * 36000))
    nmax = phi_terms(tau.imag, digits)
    assert nmax > 2 ** 15
    a = an_coefficients(model.minimal, nmax)
    m = isqrt(nmax)
    counts = [sum(1 for c in a[base:base + m] if c) for base in range(0, nmax + 1, m)]
    assert {c % 2 for c in counts} == {0, 1}              # odd and even blocks both occur
    for weight, fast in ((1, eval_phi), (0, eval_newform)):
        want = eval_series_direct(model.minimal, tau, digits, weight)
        got = fast(model, tau, digits)
        with mp.workdps(digits + 30):
            assert abs(got - want) < mp.mpf(10) ** -(digits + 5), weight


def _synthetic_table(rng, points: int, qs: list, per_point: int, over: float):
    """Options (n_max, within budget, Q, point) as orbit_options lists them:
    tau itself first, then some Q with fewer terms; a few over the budget."""
    table = []
    for _ in range(points):
        n0 = rng.randrange(100, 400)
        opts = [(n0, rng.random() >= over, 1, None)]
        for q_div in rng.sample(qs, min(per_point, len(qs))):
            opts.append((rng.randrange(20, n0), rng.random() >= over, q_div, None))
        table.append(opts)
    return table


def _check_choice(table, k_terms):
    """_choose's plan: each point at its cheapest allowed option, every Q it
    keeps needed (dropping one costs strictly more or leaves a point without
    an option), and no dearer than the direct route, strictly when a Q stays."""
    picks, used = _choose(table, k_terms)

    def cost(allowed):
        out = 0
        for opts in table:
            within = [o for o in opts if o[1] and o[2] in allowed]
            if not within:
                return None
            out += min(within, key=lambda o: (o[0], o[2]))[0]
        return out + sum(k_terms[q] for q in allowed - {1})

    here = cost({1, *used})
    assert sum(o[0] for o in picks) + sum(k_terms[q] for q in used) == here
    assert all(o[1] and o[2] in {1, *used} for o in picks)
    for q_div in used:
        without = cost({1, *used} - {q_div})
        assert without is None or without > here, q_div
    direct = cost({1})
    if direct is not None:
        assert here < direct if used else here == direct
    return here


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_choose_keeps_only_the_q_that_pay_for_their_constant(seed):
    rng = random.Random(seed)
    qs = list(range(2, 2 + rng.randrange(1, 7)))
    table = _synthetic_table(rng, rng.randrange(1, 10), qs, rng.randrange(0, len(qs) + 1),
                             over=rng.choice([0, 0.1]))
    k_terms = {q: rng.randrange(0, 600) for q in qs}
    if all(any(o[1] and (o[2] == 1 or o[2] in k_terms) for o in opts) for opts in table):
        assert _check_choice(table, k_terms) >= least_plan_terms_by_subsets(table, k_terms)
    else:
        with pytest.raises(SeriesBudgetError):
            _choose(table, k_terms)


def test_choose_is_polynomial_in_the_number_of_involutions():
    # 63 usable Q, as for a level with six primes: every set of them would be
    # 2^63 plans; dropping Q one at a time prices O(points * Q^2) options
    rng = random.Random(7)
    qs = list(range(2, 65))
    table = _synthetic_table(rng, 400, qs, 12, over=0)
    k_terms = {q: rng.randrange(0, 3000) for q in qs}
    t0 = time.perf_counter()
    _choose(table, k_terms)
    assert time.perf_counter() - t0 < 5
    _check_choice(table, k_terms)

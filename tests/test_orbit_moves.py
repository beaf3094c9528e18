"""The Galois orbit of the whole trace catalogue against the lattice-pair
oracle, the Heegner norm relation between the orbits of Pic(O_p) and
Pic(O_pl), and orbit points moved by Atkin-Lehner involutions: the identity
phi(tau) = w_Q (phi(W_Q (tau + k)) - K_Q), each K_Q exact on the lattice and
equal to its full-precision series, the same orbit values and trace as the
direct route on the whole trace catalogue, one series per evaluation point
up to complex conjugation, the finite shadow's fibers as the W_{p^2}
pairing with at most one trace-precision series per fiber and each mate's
lattice vector exact, never more series terms, and the fixed-point pair
kernel against the term-by-term sum."""

import hashlib
import json
from collections import Counter
from math import gcd, isqrt

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtrace import curves, experiments, modparam, sieve
from cmtrace.curves import an_coefficients, curve_model
from cmtrace.errors import InputError
from cmtrace.experiments import (LAMBDA_DIGITS, ExperimentSpec, FiberPairingError, TraceReport,
                                 al_signs, experiment_finite, fiber_pairs, orbit_options,
                                 orbit_trace, trace_point)
from cmtrace.fp import is_fundamental_discriminant, kronecker, order_data
from cmtrace.heegner import al_move, coset_move, galois_orbit, heegner_form
from cmtrace.modparam import (GUARD, MAZUR_ORDERS, NMAX_CAP, AlConstantError, SeriesBudgetError,
                              al_constant, al_constant_points, al_matrix, atkin_lehner_sign,
                              eval_newform, eval_phi, im_tau, phi_terms)
from cmtrace.periods import is_torsion, locate, period_lattice, torsion_residual
from cmtrace.quadforms import kernel_classes, reduced_forms
from oracles import (al_constant_by_series, coset_least_by_search, eval_series_direct,
                     evaluated_moves, evaluation_key, galois_orbit_by_lattices, heegner_tau,
                     lattice_reduce, orbit_trace_direct, orbit_values_by_fiber, phi_terms_mp,
                     torsion_order_two_pass, torsion_residual_two_pass, w_p2_pairs)

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
# their traces move points by W_9, which 36a1's never do (W_9 lowers the
# leading coefficient of none of its orbit points, so orbit_options never
# offers it); on 1,-1,0,6,0, w_9 = +1 and K_9 = (1 - w_9) phi(s0) = 0
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
    """al_signs with w_p measured where it needs the series, as orbit_trace
    reads them."""
    return [(q_div, _wp(label) if w is None else w) for q_div, w in al_signs(MODELS[label])]


def _constant(label: str, q_div: int, digits: int):
    """K_Q on the lattice at `digits`, (i w1 + j w2) / n from al_constant."""
    model = MODELS[label]
    lat = period_lattice(model.minimal, digits)
    i, j, n = al_constant(lat, model.n, q_div, dict(_signs(label))[q_div])
    with mp.workdps(digits + 15):
        return (i * lat.w1 + j * lat.w2) / n


def _wp(label: str) -> int:
    if label not in _WP:
        model = MODELS[label]
        _WP[label] = atkin_lehner_sign(model.minimal, model.n, model.p ** 2)
    return _WP[label]


def _orbit(label: str, dK: int, f: int):
    """(model, finite shadow, kernel classes, orbit) as trace_point builds them."""
    model = MODELS[label]
    shadow = experiment_finite(ExperimentSpec(dK=dK, f=f, curve=model))
    kernel = kernel_classes(order_data(dK, f), model.p)
    base = heegner_form(model.n, dK, model.p * f)
    return model, shadow, kernel, galois_orbit(base, model.n, [kc.form for kc in kernel])


def _orbit_json(entries, model, shadow, dK: int, f: int, digits: int) -> list:
    """The entries as TraceReport.to_json prints them."""
    spec = ExperimentSpec(dK=dK, f=f, curve=model, digits=digits)
    report = TraceReport(spec=spec, wp=1, orbit=entries, trace_z=mp.mpc(0), residual=mp.mpf(0),
                         verdict="undecided", recognized=None, n_max=0, finite_shadow=shadow,
                         constants=(), series=(0, 0), timings={})
    return report.to_json()["orbit"]


def test_catalogue_has_115_cases():
    assert len(CATALOGUE) == 115
    assert len(W9_CASES) == 20


def test_orbit_equals_the_lattice_route_on_the_catalogue():
    # 397 of the 1040 inverse kernel forms need a representative prime to the
    # base's leading coefficient: every non-identity one of 36a1 (M = 4) and
    # 49 of the 50 of 50a1 and of 50b1 (M = 2)
    for label, dK, f in CATALOGUE:
        model = MODELS[label]
        order = order_data(dK, f)
        kernel = kernel_classes(order, model.p)
        base = heegner_form(model.n, dK, model.p * f)
        assert (galois_orbit(base, model.n, [kc.form for kc in kernel])
                == galois_orbit_by_lattices(base, model.n, order, model.p, kernel)), (label, dK, f)


# (label, dK, l) with both f = 1 and f = l in the catalogue, l in {2, 3}
RELATION_PAIRS = [(label, dK, f) for label, dK, f in CATALOGUE
                  if f > 1 and (label, dK, 1) in CATALOGUE]
RELATION_DIGITS = 30


def _k_trace(model, dK: int, c: int, digits: int):
    """(S_c, h(O_c)): the sum of phi over the Pic(O_c) orbit of the Heegner
    point of conductor c, the orbit of galois_orbit over reduced_forms(D)."""
    orbit = galois_orbit(heegner_form(model.n, dK, c), model.n, reduced_forms(c * c * dK))
    with mp.workdps(digits + GUARD):
        return mp.fsum(eval_phi(model, heegner_tau(pt, digits), digits) for pt in orbit), len(orbit)


def test_heegner_norm_relation_across_conductors():
    # The trace from H_pl to H_p of the conductor-pl point is c_l times the
    # conductor-p point, for l prime to N (Gross, Kolyvagin's work on modular
    # elliptic curves, LMS Lecture Notes 153, 1991, section 3), with c_l =
    # a_l, a_l - 2 or a_l - 1 as l is inert, split or ramified in K.  Summed
    # over Pic(O_p): S_pl = c_l S_p on C / Lambda, against conj(S_p) at N = 50,
    # where heegner_form picks the conjugate ideal (the test below).
    assert Counter(label for label, _, _ in RELATION_PAIRS) == {
        "49a1": 30, "121b1": 30, "50a1": 5, "50b1": 5}
    content = Counter()
    for label, dK, ell in RELATION_PAIRS:
        model = MODELS[label]
        lat = period_lattice(model.minimal, RELATION_DIGITS)
        c_ell = an_coefficients(model.minimal, ell)[ell] - 1 - kronecker(dK, ell)
        s_p, h_p = _k_trace(model, dK, model.p, RELATION_DIGITS)
        s_pl, h_pl = _k_trace(model, dK, model.p * ell, RELATION_DIGITS)
        with mp.workdps(RELATION_DIGITS + GUARD):
            ref = mp.conj(s_p) if model.n == 50 else s_p
            dist = abs(lattice_reduce(lat, s_pl - c_ell * ref))
            tol = (h_pl + abs(c_ell) * h_p) * mp.mpf(10) ** -(RELATION_DIGITS + 10)
            assert dist <= tol, (label, dK, ell, mp.nstr(dist, 3))
        if c_ell and not is_torsion(locate(lat, s_p)):
            content[label] += 1
    # 28 pairs certify a non-torsion S_pl from a non-torsion S_p
    assert content == {"121b1": 23, "50b1": 5}


def test_heegner_forms_across_conductors_keep_n_up_to_conjugation():
    # B mod 2N fixes the ideal n = (N, (B + sqrt D) / 2) of a Heegner form:
    # conductor pl keeps the n of conductor p when B_pl = l B_p mod 2N, and
    # takes its conjugate when B_pl = -l B_p, which heegner_form's least |B|
    # picks on all ten pairs at N = 50
    for label, dK, ell in RELATION_PAIRS:
        n, p = MODELS[label].n, MODELS[label].p
        b_p, b_pl = heegner_form(n, dK, p).b, heegner_form(n, dK, p * ell).b
        if n == 50:
            assert ell == 3 and (b_pl + 3 * b_p) % (2 * n) == 0, (label, dK)
            assert (b_pl - 3 * b_p) % (2 * n) != 0, (label, dK)
        else:
            assert (b_pl - ell * b_p) % (2 * n) == 0, (label, dK, ell)


def test_usable_involutions_have_signs_from_local_data_or_wp():
    # 36a1 is additive at 2 and 3: Q = 9 = p^2 takes w_p, Q = 4 and 36 are never used
    assert al_signs(MODELS["36a1"]) == ((9, None),)
    assert [q for q, _ in al_signs(MODELS["50b1"])] == [2, 25, 50]
    assert {label: _wp(label) for label in W9_CURVES} == W9_CURVES
    for label, model in MODELS.items():
        for q_div, w in _signs(label):
            assert w == atkin_lehner_sign(model.minimal, model.n, q_div)


@pytest.mark.parametrize("label,dK,f", [("49a1", -11, 1), ("50b1", -7, 3), ("36a1", -7, 1)])
def test_al_move_is_the_moebius_image_with_the_largest_imaginary_part(label, dK, f):
    # the form's point is W_Q (tau + k) mod 1 for a k of the largest Im W_Q
    # (tau + k): Im W_Q (tau + j) = Q Im tau / |N (tau + j) + d|^2 is largest
    # at the j nearest -Re tau - d / N
    model, _, _, orbit = _orbit(label, dK, f)
    digits = 30
    for pt in orbit:
        for q_div in (q for q in range(2, model.n + 1)
                      if model.n % q == 0 and gcd(q, model.n // q) == 1):
            form = al_move(pt, model.n, q_div)
            a, b, c, d = al_matrix(model.n, q_div)
            with mp.workdps(digits + 15):
                tau, tol = heegner_tau(pt, digits), mp.mpf(10) ** -(digits + 10)
                near = int(mp.nint(-tau.real - mp.mpf(d) / c))
                moved = [(a * (tau + j) + b) / (c * (tau + j) + d)
                         for j in range(near - 2, near + 3)]
                got = heegner_tau(form, digits)
                assert got.imag >= max(z.imag for z in moved) - tol
                offsets = [got - z for z in moved]
                assert min(abs(o - mp.nint(o.real)) for o in offsets) < tol


def test_coset_move_reaches_the_largest_imaginary_part_of_the_coset():
    # every 50b1 and 36a1 point at 60 digits: coset_move finds the best M of
    # W_Q Gamma_0(N) that a search of |z|, |w| <= 20 finds; at Q = p^2 that
    # is the fiber mate's own orbit form, so orbit_options leaves p^2 out,
    # and moves to the best of the other Q unless reading Omega would cost
    # more terms than it saves
    digits, moved = 60, Counter()
    for label, dK, f in CATALOGUE:
        if label not in ("50b1", "36a1"):
            continue
        model, _, _, orbit = _orbit(label, dK, f)
        moves = orbit_options(model, orbit, digits)
        p2 = model.p ** 2
        with mp.workdps(digits + 15):
            root = mp.sqrt(-orbit[0].disc())
        mates = {i: j for pair in w_p2_pairs(model, orbit) for i, j in (pair, pair[::-1])}
        for i, (pt, mv) in enumerate(zip(orbit, moves)):
            least = {}
            for q_div, _ in al_signs(model):
                translation, image = coset_move(pt, model.n, q_div)
                assert image.a == coset_least_by_search(pt, model.n, q_div), (label, pt, q_div)
                assert translation == (image.a == al_move(pt, model.n, q_div).a)
                least[q_div] = image.a
            assert least[p2] == orbit[mates[i]].a
            others = [a for q, a in least.items() if q != p2]
            if not others:                  # 36a1: al_signs offers Q = 9 = p^2 alone
                assert mv.low is None
                continue
            best = phi_terms(root / (2 * min(others)), digits)
            low = mv.low or mv
            read = phi_terms(root / (2 * low.form.a), LAMBDA_DIGITS)
            if mv.low:
                assert mv.n_max == best and mv.form.a == least[mv.q]
                moved[label] += 1
            else:
                assert best == mv.n_max or best + read >= mv.n_max, (label, pt)
    assert moved == {"50b1": 24}


def test_each_50b1_point_searches_its_own_cosets(monkeypatch):
    # on 50b1 (N = 50, p^2 = 25) every point of the 30 fibers searches W_2
    # and W_50 Gamma_0(50) itself: 120 searches, though W_2 Gamma_0(50) of a
    # point is W_50 Gamma_0(50) of its fiber mate, since sharing them across
    # a fiber saves too little to measure; every move into a coset is the
    # point's own search
    searches = []

    def counting(*args, search=coset_move):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(experiments, "coset_move", counting)
    fibers, moved = 0, 0
    for label, dK, f in CATALOGUE:
        if label != "50b1":
            continue
        model, shadow, kernel, orbit = _orbit(label, dK, f)
        pairs = fiber_pairs(model, orbit, kernel, shadow)
        fibers += len(pairs)
        for pt, mv in zip(orbit, orbit_options(model, orbit, 60)):
            if mv.low:
                assert coset_move(pt, model.n, mv.q) == (False, mv.form), (dK, f, pt)
                moved += 1
    assert (len(searches), fibers, moved) == (120, 30, 24)


def _planned(orbits) -> str:
    """Every move orbit_options plans for the orbits, (key, model, orbit),
    at 60 and 200 digits, as JSON text: [q, form, n_max, low] per move, and
    the needed terms of a SeriesBudgetError in place of an orbit's moves."""
    def text(mv):
        return None if mv is None else [mv.q, list(mv.form), mv.n_max, text(mv.low)]

    out = []
    for key, model, orbit in orbits:
        for digits in (60, 200):
            try:
                moves = [text(mv) for mv in orbit_options(model, orbit, digits)]
            except SeriesBudgetError as exc:
                moves = exc.needed
            out.append([*key, digits, moves])
    return json.dumps(out)


def _planner_orbits() -> list:
    """((label, dK, f), model, orbit) for the catalogue and W9_CASES."""
    out = []
    for key in CATALOGUE + W9_CASES:
        model, _, _, orbit = _orbit(*key)
        out.append((key, model, orbit))
    return out


# the moves of the 115 catalogue and 20 level-45/90 orbits at 60 and 200
# digits, recorded when orbit_options searched each coset once per fiber
PLANNED_SHA256 = "23d572ad0182cdc59927ae73db377ceede3d825823d3ea8c50efd57535e7712a"


def test_the_planner_moves_are_the_recorded_ones():
    text = _planned(_planner_orbits())
    assert len(json.loads(text)) == 270
    assert hashlib.sha256(text.encode()).hexdigest() == PLANNED_SHA256


def test_the_planner_calls_nothing_in_mpmath(monkeypatch):
    # every Im tau the planner prices, sqrt(Q) / N of the K_Q points too,
    # is a double from integers (modparam.im_tau)
    class NoMpmath:
        def __getattr__(self, name):
            raise AssertionError(f"the planner read mpmath.{name}")

    orbits = _planner_orbits()
    al_signs.cache_clear()                  # its local signs run under the patch too
    monkeypatch.setattr(experiments, "mp", NoMpmath())
    monkeypatch.setattr(modparam, "mp", NoMpmath())
    text = _planned(orbits)
    monkeypatch.undo()
    assert hashlib.sha256(text.encode()).hexdigest() == PLANNED_SHA256


def _read_off(module, patch):
    """Move each value the module reads a lattice vector off by 10^-6: above
    LAMBDA_BUDGET, below |b1| / 2, the way an evaluation that broke its bound
    would miss."""
    read = module.read_vector
    patch.setattr(module, "read_vector",
                  lambda lat, z, *args: read(lat, z + mp.mpf(10) ** -6, *args))


def test_a_period_off_by_one_makes_the_read_of_omega_raise(monkeypatch):
    # 50b1/-7/3 evaluates two points off the translations at the trace
    # precision; a value 10^-6 off misses the read of Omega, which runs
    # before any fiber's
    model, shadow, kernel, orbit = _orbit("50b1", -7, 3)
    fibers = fiber_pairs(model, orbit, kernel, shadow)
    moves = orbit_options(model, orbit, 60)
    lat = period_lattice(model.minimal, 60)
    with monkeypatch.context() as patch:
        _read_off(experiments, patch)
        with pytest.raises(FiberPairingError, match="read of the period of its W_.* move misses"):
            orbit_trace(model, orbit, kernel, fibers, moves, _wp("50b1"), lat)
    orbit_trace(model, orbit, kernel, fibers, moves, _wp("50b1"), lat)


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
        rhs = w * (eval_phi(model, image, digits) - _constant(label, q_div, digits))
        assert abs(lhs - rhs) < mp.mpf(10) ** -(digits + 5)


def test_the_constant_vanishes_where_w_q_fixes_its_base_point_with_sign_plus():
    # W_121 fixes i/11 and w_121 = +1 on 121b1; on 49a1, w_49 = -1 and K = 2 phi(i/7)
    m121, m49 = MODELS["121b1"], MODELS["49a1"]
    assert al_constant(period_lattice(m121.minimal, 60), 121, 121, 1) == (0, 0, 1)
    assert al_constant(period_lattice(MODELS["1,-1,0,6,0"].minimal, 60), 90, 9, 1) == (0, 0, 1)
    with mp.workdps(75):
        want = 2 * eval_phi(m49, mp.mpc(0, 1) / 7, 60)
        assert abs(_constant("49a1", 49, 60) - want) < mp.mpf(10) ** -65


# the order of each K_Q that al_signs offers: 19 constants on 8 curves
ORDERS = {
    "49a1": {49: 2}, "121b1": {121: 1}, "50a1": {2: 1, 25: 3, 50: 3},
    "50b1": {2: 5, 25: 1, 50: 5}, "36a1": {9: 2}, "1,-1,0,0,-5": {5: 1, 9: 2},
    "1,-1,0,6,0": {2: 1, 5: 3, 9: 1, 10: 3}, "1,-1,1,13,-61": {2: 1, 5: 1, 9: 1, 10: 1},
}


@pytest.mark.parametrize("digits", [60, 200])
def test_every_constant_is_a_torsion_point_equal_to_its_series(digits):
    # K_Q = (i w1 + j w2) / n, read off one LAMBDA_DIGITS evaluation, is the
    # full-precision series K_Q to 10^-(digits+5), with n in Mazur's list
    orders = {}
    for label, model in MODELS.items():
        lat = period_lattice(model.minimal, digits)
        for q_div, w in _signs(label):
            i, j, n = al_constant(lat, model.n, q_div, w)
            assert n in MAZUR_ORDERS and gcd(i, j, n) == 1, (label, q_div)
            orders.setdefault(label, {})[q_div] = n
            want = al_constant_by_series(model.minimal, model.n, q_div, w, digits)
            with mp.workdps(digits + 15):
                got = (i * lat.w1 + j * lat.w2) / n
                assert abs(got - want) < mp.mpf(10) ** -(digits + 5), (label, q_div)
    assert orders == ORDERS and sum(map(len, orders.values())) == 19
    # not reduced mod the lattice: 50a1's K_2 is -w1
    assert al_constant(period_lattice(MODELS["50a1"].minimal, digits), 50, 2, 1) == (-1, 0, 1)


def test_the_constant_points_are_integers_from_al_matrix_alone(monkeypatch):
    # every Q || N of the eight test models, both signs, with modparam's
    # mpmath refusing every attribute: K_Q = phi(W_Q s0) - w phi(s0) has
    # weights summing to 1 - w, at s0 = (-d + i sqrt Q) / N and W_Q s0 = (a
    # + i sqrt Q) / N
    class Refusing:
        def __getattr__(self, name):
            raise AssertionError(f"al_constant_points read mp.{name}")

    monkeypatch.setattr(modparam, "mp", Refusing())
    checked = 0
    for model in MODELS.values():
        for q_div in (q for q in range(2, model.n + 1)
                      if model.n % q == 0 and gcd(q, model.n // q) == 1):
            a, _, n, d = al_matrix(model.n, q_div)
            for w in (1, -1):
                pts = al_constant_points(model.n, q_div, w)
                assert all(type(c) is int and type(x) is int for c, x in pts)
                assert {x for _, x in pts} <= {a, -d} and sum(c for c, _ in pts) == 1 - w
                assert len(pts) == ((1 - w) // 2 if (a + d) % n == 0 else 2)
                checked += 1
    assert checked == 2 * 28


def test_the_constant_points_are_priced_as_their_20_digit_height_was():
    # Im of both points is sqrt(Q) / N; orbit_trace prices it as the double
    # im_tau(-4 Q, N), which gives the terms of the mpf sqrt(Q) / N at the
    # points' 20 digits for every Q || N, Q > 1, N < 3000
    checked = 0
    with mp.workdps(LAMBDA_DIGITS + GUARD):
        for n_level in range(2, 3000):
            for q_div in range(2, n_level + 1):
                if n_level % q_div == 0 and gcd(q_div, n_level // q_div) == 1:
                    want = phi_terms(mp.sqrt(q_div) / n_level, LAMBDA_DIGITS)
                    assert phi_terms(im_tau(-4 * q_div, n_level), LAMBDA_DIGITS) == want
                    checked += 1
    assert checked == 13954


def _reads_lam(rep) -> bool:
    """Whether some fiber of a report reads its lattice vector: every fiber
    when w_p = -1, and each "fiber:i" point when w_p = +1."""
    return rep.wp == -1 or any(e.source.startswith("fiber:") for e in rep.orbit)


def test_the_report_lists_each_constant_it_used():
    # K_Q of each move and of each read of Omega, and K_{p^2} when some fiber
    # reads its lattice vector
    rep = trace_point(ExperimentSpec(dK=-11, f=1, curve=MODELS["49a1"], digits=60))
    assert rep.to_json()["constants"] == [{"Q": 49, "w": -1, "i": 1, "j": 0, "n": 2}]
    rep = trace_point(ExperimentSpec(dK=-7, f=1, curve=MODELS["50b1"], digits=60))
    assert [(c["Q"], c["w"], c["n"]) for c in rep.to_json()["constants"]] == [
        (25, 1, 1), (50, -1, 5)]
    assert {e.q for e in rep.orbit} == {1, 50}          # K_25 comes from the fibers alone
    firsts = {}
    for label, dK, f in CATALOGUE + W9_CASES:
        firsts.setdefault(label, (dK, f))
    firsts["50b1/3"] = (-7, 3)                      # a trace that reads Omega
    for label, (dK, f) in firsts.items():
        model, _, _, orbit = _orbit(label.split("/")[0], dK, f)
        rep = trace_point(ExperimentSpec(dK=dK, f=f, curve=model, digits=60))
        lam = {model.p ** 2} if _reads_lam(rep) else set()
        # the translation move of each trace-precision point that reads Omega
        moves = orbit_options(model, orbit, 60)
        full = {a for a, _ in _cheaper_first(w_p2_pairs(model, orbit), moves)}
        reads = {moves[a].low.q for a in full if moves[a].low and rep.wp == 1}
        assert reads or label != "50b1/3"
        assert {q for q, *_ in rep.constants} == ({e.q for e in rep.orbit} | reads) - {1} | lam
    # no 50b1 orbit moves by W_2, whose constant also has order 5
    assert al_constant(period_lattice(MODELS["50b1"].minimal, 60), 50, 2, -1)[2] == 5


def _cheaper_first(pairs, moves) -> list:
    """Each pair (a, b) with a the point of fewer terms, a translation move
    (no period to read) then the first on a tie."""
    return [tuple(sorted(pair, key=lambda i: (moves[i].n_max, moves[i].low is not None, i)))
            for pair in pairs]


def _evaluation_classes(model, orbit, moves, wp: int) -> tuple[int, int]:
    """(at the trace precision, at LAMBDA_DIGITS): the evaluation points up
    to conjugation, keyed by the forms after the moves, of the cheaper point
    of each W_{p^2} pair when w_p = +1 (none when w_p = -1), then of the
    other points whose key the first set lacks."""
    cheap = {a for a, _ in _cheaper_first(w_p2_pairs(model, orbit), moves)} if wp == 1 else set()

    def key(mv):
        return frozenset(evaluation_key(mv.form))

    full = {key(moves[i]) for i in cheap}
    low = {key(mv.low or mv) for i, mv in enumerate(moves) if i not in cheap}
    return len(full), len((low | {key(moves[i].low) for i in cheap if moves[i].low}) - full)


def test_no_constant_point_is_evaluated_at_the_trace_precision(monkeypatch):
    # a 200-digit trace evaluates each K_Q point once, at LAMBDA_DIGITS, and the
    # orbit at 200 digits only at the cheaper point of each w_p = +1 fiber,
    # one series per evaluation point up to conjugation: none on 49a1/-11
    # (w_p = -1) and at most one per fiber on 121b1/-67; every other point
    # is evaluated, up to conjugation, at LAMBDA_DIGITS
    calls, full = [], {}

    def recording(model, tau, digits):
        calls.append(digits)
        return eval_phi(model, tau, digits)

    monkeypatch.setattr(experiments, "eval_phi", recording)
    monkeypatch.setattr("cmtrace.modparam.eval_phi", recording)
    al_constant.cache_clear()
    for label, dK in [("49a1", -11), ("121b1", -67), ("50b1", -7), ("1,-1,0,0,-5", -31)]:
        model, _, _, orbit = _orbit(label, dK, 1)
        del calls[:]
        rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=model, digits=200))
        points = sum(len(al_constant_points(model.n, q_div, w))
                     for q_div, w, *_ in rep.constants)
        moves = orbit_options(model, orbit, 200)
        full[label], low = _evaluation_classes(model, orbit, moves, rep.wp)
        assert low > 0 and (points > 0) == (label != "121b1")     # K_121 = 0: no point
        assert sorted(calls) == sorted(
            [LAMBDA_DIGITS] * (points + low) + [200] * full[label]), label
        # a w_p = +1 point whose lam a LAMBDA_DIGITS series gave is "fiber:i"
        series = [e.digits for e in rep.orbit if e.source == "series"]
        assert sorted(series) == [LAMBDA_DIGITS] * low * (rep.wp == -1) + [200] * full[label]
        # the report counts the LAMBDA_DIGITS series that "fiber:i" entries hide
        assert rep.series == (full[label], low)
        assert rep.to_json()["series"] == {"digits": full[label], "lambda_digits": low}
        assert full[label] <= rep.finite_shadow.fiber_count * (rep.wp == 1)
    assert full == {"49a1": 0, "121b1": 4, "50b1": 2, "1,-1,0,0,-5": 0}


def _check_against_direct(label, dK, f, digits):
    """orbit_trace against its rebuild in kernel order, bit for bit, with
    the fibers paired by search (oracles.w_p2_pairs), and against the orbit
    points' own series (the direct route): each value known to the trace
    precision within 10^-(digits+5), each LAMBDA_DIGITS value within 10^-10
    (the module docstring's bound), each fiber's z_j - w_p z_i - K_{p^2} on
    the lattice within 10^-(digits+5), and the trace within 10^-(digits+10)
    of the direct sum, with the same torsion verdict, and each trace's order
    and residual those of the two-pass oracle exactly; each entry's form is
    its orbit form, and its tau a root of that form to the digits printed.
    Returns the moves' Q and the sources."""
    model, shadow, kernel, orbit = _orbit(label, dK, f)
    fibers = fiber_pairs(model, orbit, kernel, shadow)
    moves = orbit_options(model, orbit, digits)
    lat, wp = period_lattice(model.minimal, digits), _wp(label)
    entries, trace_z, n_max, _, _ = orbit_trace(model, orbit, kernel, fibers, moves, wp, lat)
    pairs = _cheaper_first(w_p2_pairs(model, orbit), moves)
    zs, precs, sources, terms, trace = orbit_values_by_fiber(model, moves, pairs, wp, lat)
    zs_direct, trace_direct = orbit_trace_direct(model, orbit, digits)
    k_p2 = _constant(label, model.p ** 2, digits)
    tol, proven = mp.mpf(10) ** -(digits + 5), mp.mpf(10) ** -(digits + 10)
    with mp.workdps(digits + 15):
        assert trace.real == trace_z.real and trace.imag == trace_z.imag
        for z, prec, z_direct in zip(zs, precs, zs_direct):
            assert abs(z - z_direct) < (tol if prec == digits else 1e-10), (label, dK, f, prec)
        for i, j in pairs:
            rel = zs_direct[j] - wp * zs_direct[i] - k_p2
            assert abs(lattice_reduce(lat, rel)) < tol, (label, dK, f, i, j)
        assert abs(trace_z - trace_direct) < proven, (label, dK, f)
        here, direct = locate(lat, trace_z), locate(lat, trace_direct)
        assert is_torsion(here) == is_torsion(direct)
        assert abs(torsion_residual(here) - torsion_residual(direct)) < tol
        for point in (here, direct):             # the one scan against two passes
            assert point.scan[0] == torsion_order_two_pass(point)
            assert torsion_residual(point) == torsion_residual_two_pass(point)
    used = evaluated_moves(moves, pairs, wp)
    assert [(e.digits, e.q, e.n_max, e.source) for e in entries] == [
        (prec, mv.q, n, source) for prec, mv, n, source in zip(precs, used, terms, sources)]
    printed = _orbit_json(entries, model, shadow, dK, f, digits)
    assert [e["z"] for e in printed] == [
        (mp.nstr(z.real, min(prec, 30)), mp.nstr(z.imag, min(prec, 30)))
        for z, prec in zip(zs, precs)]
    assert set(precs) <= {digits, LAMBDA_DIGITS} and n_max >= max(terms)
    if wp == -1:
        assert set(precs) == {LAMBDA_DIGITS}
    # each tau, printed to d = min(digits, 30) digits, is within |tau| 10^(1-d)
    # of the root r in H of its form F: |F(tau)| <= |F'(tau)| |tau - r| nearly
    shown = min(digits, 30)
    with mp.workdps(shown + 15):
        for pt, e, text in zip(orbit, entries, printed):
            (a, b, c), tau = e.form, mp.mpmathify(text["tau"])
            assert e.form == tuple(pt) and tau.imag > 0
            bound = abs(2 * a * tau + b) * abs(tau) * mp.mpf(10) ** (1 - shown)
            assert abs((a * tau + b) * tau + c) <= bound, (label, dK, f, e.form, text["tau"])
    return [mv.q for mv in used], sources


def test_orbit_values_match_the_direct_route_on_the_catalogue_at_60_digits():
    moved, moved_by_9 = 0, set()
    for label, dK, f in CATALOGUE + W9_CASES:
        qs, _ = _check_against_direct(label, dK, f, 60)
        moved += sum(q != 1 for q in qs)
        if 9 in qs:
            moved_by_9.add(label)
    assert moved > 100
    assert moved_by_9 == set(W9_CURVES)        # never 36a1: W_9 lowers none of its A


@pytest.mark.parametrize("label,dK,f", [("49a1", -11, 1), ("121b1", -67, 1), ("50b1", -7, 1)])
def test_orbit_values_match_the_direct_route_at_200_digits(label, dK, f):
    qs, sources = _check_against_direct(label, dK, f, 200)
    kinds = {source.split(":")[0] for source in sources}
    assert set(qs) != {1} and kinds != {"series"}
    assert ("fiber" in kinds) == (_wp(label) == 1)


def test_the_shadow_fibers_are_the_w_p2_pairing_of_every_orbit():
    # on all 1040 catalogue points and the 20 level-45 and level-90 cases:
    # the fibers fiber_pairs checks in integers are the pairs the search finds
    points = 0
    for label, dK, f in CATALOGUE + W9_CASES:
        model, shadow, kernel, orbit = _orbit(label, dK, f)
        assert list(fiber_pairs(model, orbit, kernel, shadow)) == w_p2_pairs(model, orbit), (label, dK)
        points += len(orbit) * ((label, dK, f) in CATALOGUE)
    assert points == 1040


@pytest.mark.parametrize("label,dK", [("121b1", -67), ("49a1", -11)])
def test_a_swapped_mate_or_a_lattice_vector_off_by_a_period_raises(monkeypatch, label, dK):
    model, shadow, kernel, orbit = _orbit(label, dK, 1)
    moves = orbit_options(model, orbit, 60)
    lat = period_lattice(model.minimal, 60)

    def run(shadow):
        fibers = fiber_pairs(model, orbit, kernel, shadow)
        return orbit_trace(model, orbit, kernel, fibers, moves, _wp(label), lat)

    (l1, (u1, v1)), (l2, (u2, v2)) = sorted(shadow.fibers.items())[:2]
    swapped = shadow._replace(fibers={**shadow.fibers, l1: [u1, v2], l2: [u2, v1]})
    with pytest.raises(FiberPairingError, match="fiber mate"):
        run(swapped)
    # a value 10^-6 off, for a fiber's lam or for 2520 K_Q
    for module, error in ((experiments, FiberPairingError), (modparam, AlConstantError)):
        with monkeypatch.context() as patch:
            _read_off(module, patch)
            modparam.al_constant.cache_clear()
            with pytest.raises(error, match="misses the lattice"):
                run(shadow)
    modparam.al_constant.cache_clear()
    run(shadow)


def _terms_or_needed(im, digits: int) -> int:
    try:
        return phi_terms(im, digits)
    except SeriesBudgetError as exc:
        return exc.needed


def test_term_counts_from_integers_are_those_of_the_mpf_quotient_on_the_catalogue():
    # every orbit form and move of the catalogue at 60 and 200 digits: the
    # double im_tau builds from integers is float(sqrt|D| / (2A)) at digits +
    # GUARD for digits 5, 60 and 200, and phi_terms counts the same terms
    checked = 0
    for label, dK, f in CATALOGUE:
        model, _, _, orbit = _orbit(label, dK, f)
        disc, forms = orbit[0].disc(), set(orbit)
        for digits in (60, 200):
            for mv in orbit_options(model, orbit, digits):
                forms |= {mv.form} | ({mv.low.form} if mv.low else set())
        for digits in (LAMBDA_DIGITS, 60, 200):
            with mp.workdps(digits + GUARD):
                root = mp.sqrt(-disc)
                for a in {form.a for form in forms}:
                    im, want = im_tau(disc, a), root / (2 * a)
                    assert im == float(want), (label, dK, f, a, digits)
                    assert _terms_or_needed(im, digits) == _terms_or_needed(want, digits)
                    checked += 1
    assert checked > 2000


def test_a_cold_trace_of_reads_extends_the_sieve_once_under_eval_phi(monkeypatch):
    # 49a1/-11/1 at 200 digits has w_p = -1: every orbit value, and K_49, is
    # a LAMBDA_DIGITS series in doubles, and the largest of them still
    # extends the empty a_n sieve, once, inside eval_phi
    depth, sieve_calls, floats = [0], [], []

    def nested(fn):
        def wrapper(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    def extending(m, known, bound, extended=sieve._extended):
        sieve_calls.append(depth[0])
        return extended(m, known, bound)

    def counting(*args, accumulate=modparam.accumulate):
        floats.append(args)
        return accumulate(*args)

    for module in (experiments, modparam):
        monkeypatch.setattr(module, "eval_phi", nested(module.eval_phi))
    monkeypatch.setattr(sieve, "_extended", extending)
    monkeypatch.setattr(curves, "_an_cache", {})
    monkeypatch.setattr(modparam, "accumulate", counting)
    al_constant.cache_clear()
    rep = trace_point(ExperimentSpec(dK=-11, f=1, curve=MODELS["49a1"], digits=200))
    al_constant.cache_clear()
    assert rep.wp == -1 and {e.digits for e in rep.orbit} == {LAMBDA_DIGITS}
    assert [c[0] for c in rep.constants] == [49] and rep.series == (0, len(floats) - 1)
    assert sieve_calls == [1]


def test_the_catalogue_evaluates_219_series_for_1040_points_at_60_digits(monkeypatch):
    # the trace precision only at the cheaper point of each w_p = +1 fiber,
    # one series per evaluation point up to conjugation; the other points at
    # LAMBDA_DIGITS, again one series per evaluation point up to conjugation
    calls, points, sources, series = [], 0, Counter(), Counter()

    def recording(model, tau, digits):
        calls.append(digits)
        return eval_phi(model, tau, digits)

    monkeypatch.setattr(experiments, "eval_phi", recording)
    for label, dK, f in CATALOGUE:
        model, shadow, kernel, orbit = _orbit(label, dK, f)
        fibers = fiber_pairs(model, orbit, kernel, shadow)
        moves = orbit_options(model, orbit, 60)
        entries, *_, (full, low) = orbit_trace(model, orbit, kernel, fibers, moves, _wp(label),
                                               period_lattice(model.minimal, 60))
        points += len(entries)
        series.update({60: full, LAMBDA_DIGITS: low})
        sources.update((e.source.split(":")[0], e.digits, _wp(label)) for e in entries)
    # 320 LAMBDA_DIGITS series for the points, and 8 more where a 50b1 point's
    # move off the translations reads Omega at its translation move
    assert (calls.count(60), calls.count(LAMBDA_DIGITS), points) == (219, 328, 1040)
    assert series == {60: 219, LAMBDA_DIGITS: 328}          # as the reports count them
    # (kind, digits, w_p): 620 points of w_p = +1 orbits, 219 + 70 + 155 of
    # them at the trace precision from a series and 176 from a fiber mate
    # (their lam from 104 series at LAMBDA_DIGITS), and 420 of w_p = -1 orbits
    assert sources == {("series", 60, 1): 219, ("same", 60, 1): 70, ("conj", 60, 1): 155,
                       ("fiber", 60, 1): 176, ("series", 5, -1): 216, ("same", 5, -1): 67,
                       ("conj", 5, -1): 137}


def test_a_self_conjugate_point_keeps_only_the_real_part(monkeypatch):
    # at A | B the truncated series is real, and the evaluator returns an
    # imaginary part of 0 on the catalogue; noise added to each evaluation
    # must not reach the value of a self-conjugate point
    def noisy(model, tau, digits):
        return eval_phi(model, tau, digits) + mp.mpc(0, 10 ** -70)

    monkeypatch.setattr(experiments, "eval_phi", noisy)
    model, shadow, kernel, orbit = _orbit("49a1", -107, 1)
    fibers = fiber_pairs(model, orbit, kernel, shadow)
    moves = orbit_options(model, orbit, 60)
    entries = orbit_trace(model, orbit, kernel, fibers, moves, _wp("49a1"),
                          period_lattice(model.minimal, 60))[0]
    printed = _orbit_json(entries, model, shadow, -107, 1, 60)
    mirrored = [text for e, text, mv in zip(entries, printed, moves)
                if e.q == 1 and len(set(evaluation_key(mv.form))) == 1]
    assert mirrored and all(text["z"][1] == "0.0" for text in mirrored)
    assert any(text["z"][1] != "0.0" for e, text in zip(entries, printed)
               if e.q == 1 and text not in mirrored)


@pytest.mark.parametrize("n_level", [49, 121])
@settings(max_examples=10, deadline=None)
@given(m=st.integers(1, 3), b=st.integers(-400, 400), extra=st.integers(1, 60),
       k=st.integers(-3, 3))
def test_a_point_shares_its_series_with_its_translates_and_its_mirror(n_level, m, b, extra, k):
    # phi has period 1 and real a_n: at A = m N and tau = (-B + sqrt D) / (2A),
    # phi at the form (A, B + 2Ak) is phi(tau) and at (A, -B + 2Ak) its conjugate
    model = MODELS["49a1" if n_level == 49 else "121b1"]
    a = m * n_level
    b %= 2 * a
    c = (b * b) // (4 * a) + extra                  # so that D = B^2 - 4AC < 0
    digits = 30
    with mp.workdps(digits + 15):
        root = mp.sqrt(4 * a * c - b * b)

        def phi(b_):
            return eval_phi(model, mp.mpc(-b_, root) / (2 * a), digits)

        z, proven = phi(b), mp.mpf(10) ** -(digits + 10)
        assert abs(phi(b + 2 * a * k) - z) < proven
        assert abs(phi(-b + 2 * a * k) - mp.conj(z)) < proven
        if b % a == 0:                                  # self-conjugate: a real value
            assert abs(z.imag) < proven
def _moved_terms(label, moves) -> int:
    """Series terms the moves evaluate, each read of Omega at its
    LAMBDA_DIGITS cost and each K_Q used at its LAMBDA_DIGITS cost."""
    model, signs = MODELS[label], dict(_signs(label))
    reads = [mv.low for mv in moves if mv.low]
    terms = sum(mv.n_max for mv in moves)
    terms += sum(phi_terms(heegner_tau(low.form, 30).imag, LAMBDA_DIGITS) for low in reads)
    for q_div in {mv.q for mv in moves + tuple(reads)} - {1}:
        pts = al_constant_points(model.n, q_div, signs[q_div])
        terms += phi_terms(im_tau(-4 * q_div, model.n), LAMBDA_DIGITS) * len(pts)
    return terms


@pytest.mark.parametrize("digits", [60, 200])
def test_plan_never_evaluates_more_terms_than_the_direct_route(digits):
    planned, direct, reads = {}, {}, {}
    for label, dK, f in CATALOGUE:
        model, _, _, orbit = _orbit(label, dK, f)
        moves = orbit_options(model, orbit, digits)
        with mp.workdps(digits + 15):
            unmoved = [phi_terms(heegner_tau(pt, digits).imag, digits) for pt in orbit]
        assert all(mv.n_max <= n for mv, n in zip(moves, unmoved)), (label, dK, f)
        terms = _moved_terms(label, moves)
        assert terms <= sum(unmoved), (label, dK, f)
        planned[label] = planned.get(label, 0) + terms
        reads[label] = reads.get(label, 0) + sum(
            phi_terms(heegner_tau(mv.low.form, 30).imag, LAMBDA_DIGITS) for mv in moves if mv.low)
        direct[label] = direct.get(label, 0) + sum(unmoved)
    for label in ("49a1", "121b1", "50a1", "50b1"):
        assert planned[label] < 0.9 * direct[label]
    # W_9 T^k lowers none of 36a1's A; the rest of W_9 Gamma_0(36) lowers
    # some, but only to the fiber mate's own A, which orbit_options leaves out
    assert planned["36a1"] == direct["36a1"]
    if digits == 200:
        # 50b1 planned 215,699 terms with translation moves alone: the moves
        # into the whole coset and their constants take 0.61 of that, and
        # with the reads of Omega at LAMBDA_DIGITS 0.67
        assert planned["50b1"] - reads["50b1"] <= 0.65 * 215_699
        assert planned["50b1"] <= 0.67 * 215_699


@pytest.mark.parametrize("digits", [60, 200])
def test_phi_terms_in_doubles_equals_the_30_digit_count_on_the_catalogue(monkeypatch, digits):
    # every Im tau orbit_options prices on the catalogue: orbit points, their
    # W_Q images, and at LAMBDA_DIGITS the K_Q points and the translation
    # moves where a coset move would read Omega there
    priced = set()

    def recording(im_tau, d):
        priced.add((im_tau, d))
        return phi_terms(im_tau, d)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "phi_terms", recording)
        for label, dK, f in CATALOGUE:
            model, _, _, orbit = _orbit(label, dK, f)
            orbit_options(model, orbit, digits)
    assert len(priced) > 600 and {d for _, d in priced} == {digits, LAMBDA_DIGITS}
    for im_tau, d in priced:
        want = phi_terms_mp(im_tau, d)
        assert experiments._terms(im_tau, d) == (want, want <= NMAX_CAP), im_tau


@pytest.mark.parametrize("label,dK", [("49a1", -11), ("50b1", -7), ("1,-1,0,0,-5", -31)])
def test_cold_trace_with_constants_extends_the_sieve_once(monkeypatch, label, dK):
    # the orbit's evaluations at every precision, the K_Q points among
    # them, extend the sieve at most once; before them only a numerical w_p
    # (1,-1,0,0,-5 is additive at 3) evaluates a series, the newform's at
    # LAMBDA_DIGITS, whose 101 terms the orbit (w_p = -1, every point at
    # LAMBDA_DIGITS) extends once more, to its own 255: no a_n past the
    # orbit's deepest series
    calls, signed = [], []
    extended, sign = sieve._extended, experiments.atkin_lehner_sign

    def counting(m, known, bound):
        calls.append((len(known) - 1, bound))
        return extended(m, known, bound)

    def marking(*args):
        w = sign(*args)
        signed.append(len(calls))
        return w

    monkeypatch.setattr(curves, "_an_cache", {})
    monkeypatch.setattr(sieve, "_extended", counting)
    monkeypatch.setattr(experiments, "atkin_lehner_sign", marking)
    al_constant.cache_clear()
    rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=MODELS[label], digits=60))
    k = signed[0]
    assert k == (label in W9_CURVES)
    if k:
        assert calls == [(1, 101), (101, 255)] and rep.n_max == 255
    else:
        assert calls == [(1, rep.n_max)]
    assert {e.q for e in rep.orbit} > {1}
    assert rep.n_max >= max(e.n_max for e in rep.orbit)
    orbit_json = rep.to_json()["orbit"]
    assert [(e["q"], e["n_max"], e["source"]) for e in orbit_json] == [
        (e.q, e.n_max, e.source) for e in rep.orbit]


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

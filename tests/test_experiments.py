import hashlib
import json
from pathlib import Path

import mpmath as mp
import pytest

from cmtrace import curves
from cmtrace.curves import an_coefficients, curve_model
from cmtrace.errors import InputError
from cmtrace.experiments import fiber_pairs, orbit_options, orbit_trace, trace_point
from cmtrace.finite import TRACE_MIN_DIGITS, ExperimentSpec, HypothesisError, experiment_finite
from cmtrace.heegner import HeegnerTau, galois_orbit, heegner_form
from cmtrace.modparam import (K_DIGITS, SeriesBudgetError, al_constant_points,
                              atkin_lehner_sign, eval_phi, phi_terms)
from cmtrace.periods import period_lattice
from cmtrace.quadforms import BinaryForm, kernel_classes, order_data
from oracles import lattice_distance, orbit_values_by_fiber

M49 = curve_model((1, -1, 0, -2, -1))
M121 = curve_model((0, -1, 1, -7, 10))
M50B = curve_model((1, 1, 1, -3, 1))


def _trace(model, orbit, shadow, digits):
    """The orbit layer's stages as trace_point runs them: moves, sign,
    periods, evaluation."""
    moves = orbit_options(model, orbit, digits)
    wp = atkin_lehner_sign(model.minimal, model.n, model.p ** 2, digits)
    return orbit_trace(model, orbit, shadow, moves, wp, period_lattice(model.minimal, digits))


def test_spec_validation():
    ExperimentSpec(dK=-11, f=1, curve=M49).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(dK=-11, f=1)                       # no p, no curve
    with pytest.raises(ValueError):
        ExperimentSpec(dK=-11, f=1, p=7, mode="bogus")
    with pytest.raises(HypothesisError):
        ExperimentSpec(dK=-19, f=1, curve=M49).validate()  # -19 splits at 7
    with pytest.raises(HypothesisError):
        ExperimentSpec(dK=-11, f=7, curve=M49).validate()  # f shares N
    with pytest.raises(ValueError):
        ExperimentSpec(dK=-3, f=1, p=7).validate()         # excluded discriminant
    with pytest.raises(HypothesisError):
        ExperimentSpec(dK=-11, f=1, p=9).validate()


def test_spec_rejects_a_p_other_than_the_curves():
    # 49a1 fixes p = 7, so an explicit p = 5 contradicts it
    with pytest.raises(InputError, match="differs from the curve's p = 7"):
        ExperimentSpec(dK=-11, f=1, curve=M49, p=5)
    assert ExperimentSpec(dK=-11, f=1, curve=M49, p=7).prime == 7


@pytest.mark.parametrize("kwargs,name", [
    ({"dK": -7, "f": 1.0, "p": 101}, "f"),
    ({"dK": -7.0, "f": 1, "p": 101}, "dK"),
    ({"dK": -7, "f": 1, "p": 101.0}, "p"),
    ({"dK": -7, "f": 1, "p": "101"}, "p"),
    ({"dK": -7, "f": 1, "p": 101, "digits": 60.5}, "digits"),
    ({"dK": -7, "f": True, "p": 101}, "f"),
], ids=["float-f", "float-dK", "float-p", "str-p", "float-digits", "bool-f"])
def test_spec_rejects_a_field_that_is_no_int(kwargs, name):
    # a float or str once reached pow() as a bare TypeError, and a float
    # precision or a bool conductor ran silently
    with pytest.raises(InputError, match=f"^{name} must be an integer, got "):
        ExperimentSpec(**kwargs, mode="finite_only")


@pytest.mark.parametrize("curve,name", [
    ((1, -1, 0, -2, -1), "tuple"),
    (M49.curve, "Curve"),
], ids=["a-invariants", "bare-curve"])
def test_spec_rejects_a_curve_that_is_no_curve_model(curve, name):
    # a tuple of a-invariants once raised a bare AttributeError on curve.p
    with pytest.raises(InputError, match=f"^curve must be a CurveModel, got {name}$"):
        ExperimentSpec(dK=-7, f=1, curve=curve)


def test_spec_rejects_p_dividing_the_conductor_at_entry():
    spec = ExperimentSpec(dK=-7, f=5, p=5, mode="finite_only")
    with pytest.raises(HypothesisError, match="^p must not divide the conductor$"):
        spec.validate()
    with pytest.raises(HypothesisError, match="^p must not divide the conductor$"):
        experiment_finite(spec)


def test_trace_precision_floor():
    assert TRACE_MIN_DIGITS == 15
    ExperimentSpec(dK=-67, f=1, curve=M121, digits=15).validate()
    for digits in (1, 3, 8, 14):
        for mode in ("main_plus", "signo_minus"):
            with pytest.raises(ValueError, match="at least 15 digits"):
                ExperimentSpec(dK=-67, f=1, curve=M121, digits=digits, mode=mode).validate()
        ExperimentSpec(dK=-67, f=1, curve=M121, digits=digits, mode="finite_only").validate()
    with pytest.raises(ValueError, match="between 1 and 200"):
        ExperimentSpec(dK=-67, f=1, curve=M121, digits=0).validate()


def test_finite_report_examples():
    rep = experiment_finite(ExperimentSpec(dK=-7, f=1, p=5, mode="finite_only"))
    assert rep.all_passed and rep.fiber_count == 3 and rep.degree == 3
    rep = experiment_finite(ExperimentSpec(dK=-67, f=1, p=11, mode="finite_only"))
    assert rep.all_passed and rep.fiber_count == 6
    rep = experiment_finite(ExperimentSpec(dK=-7, f=1, p=13, mode="finite_only"))
    assert rep.all_passed and rep.fiber_count == 7
    payload = rep.to_json()
    assert payload["passed"] and payload["fiber_count"] == 7
    json.dumps(payload)


# sha256 of json.dumps(report.to_json(), sort_keys=True): the finite-shadow
# JSON is part of every report, so a refactor of the finite layer keeps it.
# p = 10009 lies far beyond the benchmark's p <= 199, at f = 1 and f = 3.
FINITE_SHA256 = {
    (5, -7, 1): "e3c3b72b060faf02dc78ba9e516c7db5ae4f38be27e22964c163bd2fb74e22da",
    (101, -7, 1): "470188361ba7a4a6c7607a2d21e0be06cbe905cf99531b4f47ea32e93795cea2",
    (101, -7, 2): "c470da42ff4fa67743ad937aa4e1a2e628d60c488bb1807caa8d43c6244d77a1",
    (199, -91, 1): "0f1f28fb25244a033d408c47ec9b222f3ff4db0bb608b31de8049bba4b053307",
    (10009, -7, 1): "13273d10d41b2b98b80336d1896477aa69e254e994988ab513b7a570b6e21067",
    (10009, -7, 3): "306bd58dd343c72d61867bbce9f67bf4ed3b46056ff61698294a29d5bc2d9b4a",
}
# the benchmark's recorded outputs, read here and never written
EXPECTED_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
SHADOW_36A1_SHA256 = "8e0dba658fdb6e4290c9381febfdc7736f8fca502fea9ccd1f82f72c10734b69"


def _sha256(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


def test_finite_shadow_json_is_pinned():
    for (p, dK, f), digest in FINITE_SHA256.items():
        spec = ExperimentSpec(dK=dK, f=f, p=p, mode="finite_only")
        assert _sha256(experiment_finite(spec)) == digest, (p, dK, f)
    # the shadow of a trace, at level_m = 4
    rep = trace_point(ExperimentSpec(dK=-7, f=1, curve=curve_model((0, 0, 0, 0, 1)), digits=60))
    assert rep.finite_shadow.level_m == 4
    assert _sha256(rep.finite_shadow) == SHADOW_36A1_SHA256


def test_every_recorded_finite_report_replays():
    # each finite key of the benchmark, p in [101, 199] and f <= 3, gives
    # the report it recorded, byte for byte
    with open(EXPECTED_JSON) as fh:
        recorded = json.load(fh)["finite"]
    assert len(recorded) == 1203
    for key, entry in recorded.items():
        p, dK, f = (int(v) for v in key.split("/"))
        spec = ExperimentSpec(dK=dK, f=f, p=p, mode="finite_only")
        assert _sha256(experiment_finite(spec)) == entry["report_sha256"], key


def test_trace_sign_minus_is_torsion():
    spec = ExperimentSpec(dK=-11, f=1, curve=M49, digits=40, mode="signo_minus")
    rep = trace_point(spec)
    assert rep.wp == -1
    assert rep.verdict == "torsion"
    assert rep.residual < mp.mpf(10) ** -20
    assert len(rep.orbit) == 8
    assert rep.finite_shadow.all_passed
    payload = rep.to_json()
    json.dumps(payload)
    assert payload["verdict"] == "torsion" and payload["wp"] == -1
    assert len(payload["orbit"]) == 8


# traceZ of the paper's two headline traces at 60 digits, to all of them:
# the benchmark's gate compares only a double's worth of these digits
HEADLINE_TRACES = [
    (M49, -11, "signo_minus",
     "-5.17271951775936855282140931174292732711563957828275509837379743049217974642e-73",
     "0"),
    (M121, -67, "main_plus",
     "-2.19887841171410380393782751546589868754067658905868109194711950593001343286",
     "-6.78908479277152403042352124562747497267046318512125290114419706301182332127e-74"),
]


@pytest.mark.parametrize("model,dK,mode,re,im", HEADLINE_TRACES)
def test_headline_trace_values_to_all_digits(model, dK, mode, re, im):
    rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=model, digits=60, mode=mode))
    with mp.workdps(90):
        assert abs(mp.mpc(rep.trace_z) - mp.mpc(re, im)) < mp.mpf(10) ** -60


def test_trace_json_keeps_the_working_precision():
    # traceZ in the JSON report carries all of its digits: 121b1 over
    # Q(sqrt -67) agrees with a double only to about 10^-17
    rep = trace_point(ExperimentSpec(dK=-67, f=1, curve=M121, digits=60))
    out = rep.to_json()["traceZ"]
    assert out["precision"] == 60
    with mp.workdps(90):
        assert abs(mp.mpc(out["re"], out["im"]) - rep.trace_z) < mp.mpf(10) ** -59


def test_trace_sign_minus_second_field():
    # h(-15) = 2, so no recognition path; the torsion verdict still must hold
    spec = ExperimentSpec(dK=-15, f=1, curve=M49, digits=40, mode="signo_minus")
    rep = trace_point(spec)
    assert rep.wp == -1 and rep.verdict == "torsion"


def test_trace_sign_plus_recognized():
    spec = ExperimentSpec(dK=-67, f=1, curve=M121, digits=60, mode="main_plus")
    rep = trace_point(spec)
    assert rep.wp == 1
    assert rep.verdict == "non_torsion"
    rx, ry = rep.recognized
    assert (rx.nu, rx.mu, rx.den) == (-2, 0, 1)
    assert (ry.nu, ry.mu, ry.den) == (3, 0, 1)
    payload = rep.to_json()
    assert payload["recognized"]["x"]["nu"] == -2


def test_trace_point_requires_curve_and_mode():
    with pytest.raises(ValueError):
        trace_point(ExperimentSpec(dK=-7, f=1, p=5, mode="finite_only"))
    with pytest.raises(ValueError):
        trace_point(ExperimentSpec(dK=-7, f=1, p=5, mode="main_plus"))


def test_trace_invariant_under_base_replacement():
    digits = 40
    shadow = experiment_finite(ExperimentSpec(dK=-11, f=1, curve=M49, digits=digits))
    kernel = shadow.classes
    lat = period_lattice(M49.minimal, digits)
    base = HeegnerTau(form=heegner_form(49, -11, 7), n_level=49, dK=-11, conductor=7)
    tz0 = _trace(M49, galois_orbit(base, [kc.form for kc in kernel]), shadow, digits)[1]
    # translated base form (same point, shifted representative)
    f = base.form
    shifted = BinaryForm(f.a, f.b + 2 * 49, f.a + f.b + f.c)
    base2 = HeegnerTau(form=shifted, n_level=49, dK=-11, conductor=7)
    tz2 = _trace(M49, galois_orbit(base2, [kc.form for kc in kernel]), shadow, digits)[1]
    # a genuinely transformed Gamma_0(49) representative
    big = f.transform(1, 0, 49, 1)
    base3 = HeegnerTau(form=big, n_level=49, dK=-11, conductor=7)
    tz3 = _trace(M49, galois_orbit(base3, [kc.form for kc in kernel]), shadow, digits)[1]
    with mp.workdps(55):
        assert lattice_distance(lat, mp.mpc(tz2) - mp.mpc(tz0)) < mp.mpf(10) ** -20
        assert lattice_distance(lat, mp.mpc(tz3) - mp.mpc(tz0)) < mp.mpf(10) ** -20


def test_trace_orbit_sum_order_independent():
    order = order_data(-11, 1)
    kernel = kernel_classes(order, 7)
    base = HeegnerTau(form=heegner_form(49, -11, 7), n_level=49, dK=-11, conductor=7)
    orbit = galois_orbit(base, [kc.form for kc in kernel])
    with mp.workdps(55):
        zs = [eval_phi(M49, pt.tau(40), 40) for pt in orbit]
        fwd = mp.mpc(0)
        for z in zs:
            fwd += z
        rev = mp.mpc(0)
        for z in reversed(zs):
            rev += z
        assert abs(fwd - rev) < mp.mpf(10) ** -35


def test_finite_shadow_attached_to_trace():
    spec = ExperimentSpec(dK=-11, f=1, curve=M49, digits=40, mode="signo_minus")
    rep = trace_point(spec)
    assert rep.finite_shadow.fiber_count == (7 + 1) // 2
    assert rep.finite_shadow.checks["two_to_one"]


def test_trace_level_m_four_quadratic_point():
    # N = 36 = 3^2 * 4, K = Q(sqrt(-7)): 2 splits, 3 is inert; the local sign
    # at 3 is +1 and the 4-point trace is a genuinely quadratic point
    m36 = curve_model((0, 0, 0, 0, 1))
    spec = ExperimentSpec(dK=-7, f=1, curve=m36, digits=60, mode="main_plus")
    rep = trace_point(spec)
    assert rep.wp == 1
    assert len(rep.orbit) == 4
    assert rep.verdict == "non_torsion"
    rx, ry = rep.recognized
    assert (rx.nu, rx.mu, rx.den, rx.field_disc) == (49, -13, 32, -7)
    assert (ry.nu, ry.mu, ry.den, ry.field_disc) == (215, -91, 128, -7)
    assert rep.finite_shadow.level_m == 4 and rep.finite_shadow.all_passed


def test_trace_conductor_f_three():
    spec = ExperimentSpec(dK=-11, f=3, curve=M49, digits=40, mode="signo_minus")
    rep = trace_point(spec)
    assert rep.wp == -1
    assert rep.verdict == "torsion"
    assert rep.residual < mp.mpf(10) ** -20
    assert len(rep.orbit) == 8
    for entry in rep.orbit:
        a, b, c = entry.form
        assert b * b - 4 * a * c == (7 * 3) ** 2 * -11


def test_trace_undecided_when_recognition_unavailable():
    # f = 2: the trace lives over a cubic ring class field, recognition is
    # out of scope and the run must report undecided with a non-torsion residual
    spec = ExperimentSpec(dK=-67, f=2, curve=M121, digits=40, mode="main_plus")
    rep = trace_point(spec)
    assert rep.verdict == "undecided"
    assert rep.residual > mp.mpf(10) ** -10


def test_trace_dichotomy_matched_pair_level_fifty():
    # two conductor-50 curves, same K = Q(sqrt(-23)) (2 splits, 5 inert,
    # class number 3): opposite local signs at 5, opposite verdicts
    minus = curve_model((1, 0, 1, -1, -2))
    plus = curve_model((1, 1, 1, -3, 1))
    rep_minus = trace_point(ExperimentSpec(dK=-23, f=1, curve=minus, digits=50,
                                           mode="signo_minus"))
    assert rep_minus.wp == -1
    assert rep_minus.verdict == "torsion"
    assert rep_minus.residual < mp.mpf(10) ** -25
    assert len(rep_minus.orbit) == 6
    rep_plus = trace_point(ExperimentSpec(dK=-23, f=1, curve=plus, digits=50,
                                          mode="main_plus"))
    assert rep_plus.wp == 1
    # over a class-number-three field there is no recognition path, so the
    # non-vanishing side reports undecided with a clearly nonzero residual
    assert rep_plus.verdict == "undecided"
    assert rep_plus.residual > mp.mpf(10) ** -10


def test_trace_combined_conductor_and_level_part():
    # f = 3 together with M = 2 at p = 5: the vanishing side still vanishes
    m50 = curve_model((1, 0, 1, -1, -2))
    rep = trace_point(ExperimentSpec(dK=-23, f=3, curve=m50, digits=40,
                                     mode="signo_minus"))
    assert rep.wp == -1
    assert rep.verdict == "torsion"
    assert rep.residual < mp.mpf(10) ** -20
    assert len(rep.orbit) == 6
    for entry in rep.orbit:
        a, b, c = entry.form
        assert b * b - 4 * a * c == (5 * 3) ** 2 * -23


def test_trace_point_builds_the_kernel_once(monkeypatch):
    import cmtrace.finite as finite
    calls = []

    def counting(order, p):
        calls.append((order.dK, order.f, p))
        return kernel_classes(order, p)

    monkeypatch.setattr(finite, "kernel_classes", counting)
    for model, dK, f in ((M49, -11, 1), (M49, -8, 3), (M121, -67, 1)):
        del calls[:]
        report = trace_point(ExperimentSpec(dK=dK, f=f, curve=model, digits=30,
                                            mode="signo_minus" if model is M49 else "main_plus"))
        assert calls == [(dK, f, model.p)]
        assert report.finite_shadow.classes[0].proj == report.orbit[0].proj == (1, 0)
        assert "classes" not in report.finite_shadow.to_json()


def test_experiment_finite_builds_no_lattice():
    # the package holds no lattice arithmetic: the Hermite normal form, ideal
    # products and kernel ideals live in tests/oracles.py, and the finite
    # layer and the Galois orbit work on forms alone
    import importlib
    import pkgutil

    import cmtrace
    lattice = {"_hnf2", "_half_mul", "ideal_mul", "form_to_ideal", "basis_form",
               "generator_ideal"}
    for info in pkgutil.iter_modules(cmtrace.__path__):
        module = importlib.import_module(f"cmtrace.{info.name}")
        assert not lattice & set(vars(module)), info.name
    report = experiment_finite(ExperimentSpec(dK=-91, f=1, p=199, mode="finite_only"))
    assert report.all_passed and report.fiber_count == 100


def test_cold_trace_extends_the_sieve_once(monkeypatch):
    calls = []
    extended = curves._extended

    def counting(m, known, bound):
        calls.append((len(known) - 1, bound))
        return extended(m, known, bound)

    monkeypatch.setattr(curves, "_an_cache", {})
    monkeypatch.setattr(curves, "_extended", counting)
    rep = trace_point(ExperimentSpec(dK=-67, f=1, curve=M121, digits=60, mode="main_plus"))
    assert calls == [(1, rep.n_max)]


@pytest.mark.parametrize("model,dK,verdict", [(M121, -67, "non_torsion"), (M49, -11, "torsion")])
def test_cold_headline_trace_counts_no_points(monkeypatch, model, dK, verdict):
    # 121b1 and 49a1 have conductor d^2 and CM by Q(sqrt d), d = -11, -7: every
    # a_ell of a cold 200-digit trace comes from the Hecke character
    counted = []

    def counting(route):
        def wrapped(*args):
            counted.append(args)
            return route(*args)
        return wrapped

    monkeypatch.setattr(curves, "_an_cache", {})
    # every route to a counted a_ell: the entry, the per-prime count and both of its methods
    for name in ("ap_good", "_ap_count", "_ap_char_sum", "_hasse_multiple"):
        monkeypatch.setattr(curves, name, counting(getattr(curves, name)))
    rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=model, digits=200))
    sieve = len(curves._an_cache[model.minimal.ainvs][1]) - 1
    assert rep.verdict == verdict and sieve == rep.n_max
    # w_p = +1 on 121b1 evaluates the cheaper point of each fiber at 200
    # digits; w_p = -1 on 49a1 evaluates every point at LAMBDA_DIGITS only
    assert (rep.n_max > 3000) == (rep.wp == 1)
    # the sieve up to the 200-digit plan's deepest point counts none either
    deepest = max(mv.n_max for mv in orbit_options(model, _orbit(model, dK)[1], 200))
    assert deepest > 3000
    an_coefficients(model.minimal, deepest)
    assert counted == []


def _orbit(model, dK, digits=60):
    """(finite shadow, orbit) as trace_point builds them, at f = 1."""
    shadow = experiment_finite(ExperimentSpec(dK=dK, f=1, curve=model, digits=digits))
    base = HeegnerTau(form=heegner_form(model.n, dK, model.p), n_level=model.n, dK=dK,
                      conductor=model.p)
    return shadow, galois_orbit(base, [kc.form for kc in shadow.classes])


def test_orbit_trace_equals_kernel_order_evaluation(monkeypatch):
    # the trace is bit for bit its rebuild in kernel order: the values the
    # moves prescribe, w_Q (phi(W_Q (tau + k)) - K_Q) for a moved point, one
    # series per evaluation point and precision up to conjugation, and each
    # fiber's sum, z_a + z_b or (1 + w_p) z_a + K_{p^2} + lam, however the
    # evaluations were ordered
    digits = 60
    for model, dK in [(M121, -67), (M49, -11), (M50B, -7)]:
        shadow, orbit = _orbit(model, dK)
        monkeypatch.setattr(curves, "_an_cache", {})
        wp = atkin_lehner_sign(model.minimal, model.n, model.p ** 2, digits)
        lat = period_lattice(model.minimal, digits)
        moves = orbit_options(model, orbit, digits)
        entries, trace_z, n_max, constants, _ = orbit_trace(model, orbit, shadow, moves, wp, lat)
        monkeypatch.setattr(curves, "_an_cache", {})
        terms = [mv.n_max for mv in moves]
        # kernel order starts below the deepest evaluation, so the sieve
        # grows differently from orbit_trace's deepest-first order
        assert len(set(terms)) > 1 and terms[0] < max(terms)
        assert {mv.q for mv in moves} > {1}               # some points move, some stay
        pairs = [tuple(sorted(pair, key=lambda i: (terms[i], i)))
                 for pair in fiber_pairs(model, orbit, shadow)]
        # kernel order, the sieve grows with each series
        zs, precs, sources, series_terms, in_order = orbit_values_by_fiber(
            model, moves, pairs, wp, lat)
        assert 1 < sources.count("series") < len(moves)
        reads_lam = wp == -1 or any(source.startswith("fiber:") for source in sources)
        qs = sorted({mv.q for mv in moves} - {1} | ({model.p ** 2} if reads_lam else set()))
        assert [c[0] for c in constants] == qs
        k_terms = [phi_terms(pts[0][1].imag, K_DIGITS) for q_div, w, *_ in constants
                   if (pts := al_constant_points(model.n, q_div, w, K_DIGITS))]
        assert n_max == max(series_terms + k_terms)
        assert [(e.digits, e.q, e.n_max, e.source) for e in entries] == [
            (prec, mv.q, n, source)
            for prec, mv, n, source in zip(precs, moves, series_terms, sources)]
        assert (trace_z.real, trace_z.imag) == (in_order.real, in_order.imag)


def test_orbit_trace_over_budget_fails_before_any_evaluation(monkeypatch):
    digits = 60
    shadow, orbit = _orbit(M121, -67)
    deepest = max(mv.n_max for mv in orbit_options(M121, orbit, digits))
    with mp.workdps(digits + 15):
        unmoved = max(phi_terms(pt.tau(digits).imag, digits) for pt in orbit)
    assert deepest < unmoved                   # the cap below binds only after the moves
    # a cap one below the deepest planned evaluation: no plan is within it
    monkeypatch.setattr("cmtrace.modparam.NMAX_CAP", deepest - 1)

    def no_eval(*args, **kwargs):
        raise AssertionError("eval_phi ran before the budget check")

    monkeypatch.setattr("cmtrace.experiments.eval_phi", no_eval)
    monkeypatch.setattr("cmtrace.modparam.eval_phi", no_eval)
    with pytest.raises(SeriesBudgetError) as exc:
        _trace(M121, orbit, shadow, digits)          # raised by orbit_options
    assert exc.value.needed == deepest
    # at the deepest need itself the same orbit is evaluated: w_p = +1, so
    # the cheaper point of each fiber at the trace precision, and the deepest
    # of those is the most terms evaluated
    monkeypatch.setattr("cmtrace.modparam.NMAX_CAP", deepest)
    monkeypatch.setattr("cmtrace.experiments.eval_phi", eval_phi)
    monkeypatch.setattr("cmtrace.modparam.eval_phi", eval_phi)
    moves = orbit_options(M121, orbit, digits)
    cheaper = max(min(moves[i].n_max, moves[j].n_max)
                  for i, j in fiber_pairs(M121, orbit, shadow))
    assert cheaper < deepest
    assert _trace(M121, orbit, shadow, digits)[2] == cheaper


def test_over_budget_trace_fails_before_the_sign(monkeypatch):
    # the sign evaluates a series at additive 3; the budget is known before it
    monkeypatch.setattr("cmtrace.modparam.NMAX_CAP", 10)

    def no_sign(*args, **kwargs):
        raise AssertionError("atkin_lehner_sign ran before the budget check")

    monkeypatch.setattr("cmtrace.experiments.atkin_lehner_sign", no_sign)
    with pytest.raises(SeriesBudgetError):
        trace_point(ExperimentSpec(dK=-67, f=1, curve=M121, digits=30))

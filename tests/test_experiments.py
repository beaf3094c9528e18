import hashlib
import json
import time
from pathlib import Path

import mpmath as mp
import pytest

from cmtrace import curves, sieve
from cmtrace.curves import an_coefficients, curve_model
from cmtrace.errors import InputError
from cmtrace.experiments import (CLASS_NUMBER_ONE, fiber_pairs, orbit_options, orbit_trace,
                                 trace_point)
from cmtrace.finite import TRACE_MIN_DIGITS, ExperimentSpec, experiment_finite
from cmtrace.fp import HypothesisError, is_fundamental_discriminant, order_data
from cmtrace.heegner import galois_orbit, heegner_form
from cmtrace.modparam import (LAMBDA_DIGITS, SeriesBudgetError, al_constant_points,
                              atkin_lehner_sign, eval_phi, im_tau, phi_terms)
from cmtrace.periods import TORSION_BOUND, period_lattice
from cmtrace.quadforms import BinaryForm, class_number, kernel_classes
from cmtrace.recognize import curve_equation_holds_exactly
from oracles import (dyadic_point, evaluated_moves, heegner_tau, lattice_distance,
                     orbit_values_by_fiber)

M49 = curve_model((1, -1, 0, -2, -1))
M121 = curve_model((0, -1, 1, -7, 10))
M50B = curve_model((1, 1, 1, -3, 1))


def _trace(model, orbit, kernel, shadow, digits):
    """The orbit layer's stages as trace_point runs them: moves, sign,
    periods, evaluation."""
    pairs = fiber_pairs(model, orbit, kernel, shadow)
    moves = orbit_options(model, orbit, digits)
    wp = atkin_lehner_sign(model.minimal, model.n, model.p ** 2)
    return orbit_trace(model, orbit, kernel, pairs, moves, wp,
                       period_lattice(model.minimal, digits))


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
    with pytest.raises(HypothesisError, match="^p = 5 divides the conductor f = 5$"):
        spec.validate()
    with pytest.raises(HypothesisError, match="^p = 5 divides the conductor f = 5$"):
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


# traceZ of the paper's two headline traces: the sum of each orbit point's
# own series at 85 digits (oracles.orbit_trace_direct, no W_Q move and no
# fiber), rounded to 85 decimals; the parts pinned as 0 are below 10^-97.
# The benchmark's gate compares only a double's worth of these digits.
HEADLINE_TRACES = [
    pytest.param(M49, -11, "signo_minus", "0", "0", id="49a1--11"),
    pytest.param(M121, -67, "main_plus",
                 "-2.198878411714103803937827515465898687540676589058681091947119505"
                 "9300134332139516533749",
                 "0", id="121b1--67"),
]


@pytest.mark.parametrize("model,dK,mode,re,im", HEADLINE_TRACES)
def test_headline_trace_values_to_all_digits(model, dK, mode, re, im):
    # every digit of a 60-digit traceZ, within the README's 10^-(digits+5)
    rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=model, digits=60, mode=mode))
    with mp.workdps(100):
        assert abs(mp.mpc(rep.trace_z) - mp.mpc(re, im)) < mp.mpf(10) ** -65


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
    kernel = kernel_classes(order_data(-11, 1), 7)
    forms = [kc.form for kc in kernel]
    lat = period_lattice(M49.minimal, digits)
    f = heegner_form(49, -11, 7)
    tz0 = _trace(M49, galois_orbit(f, 49, forms), kernel, shadow, digits)[1]
    # translated base form (same point, shifted representative)
    shifted = BinaryForm(f.a, f.b + 2 * 49, f.a + f.b + f.c)
    tz2 = _trace(M49, galois_orbit(shifted, 49, forms), kernel, shadow, digits)[1]
    # a genuinely transformed Gamma_0(49) representative
    big = f.transform(1, 0, 49, 1)
    tz3 = _trace(M49, galois_orbit(big, 49, forms), kernel, shadow, digits)[1]
    with mp.workdps(55):
        assert lattice_distance(lat, mp.mpc(tz2) - mp.mpc(tz0)) < mp.mpf(10) ** -20
        assert lattice_distance(lat, mp.mpc(tz3) - mp.mpc(tz0)) < mp.mpf(10) ** -20


def test_trace_orbit_sum_order_independent():
    order = order_data(-11, 1)
    kernel = kernel_classes(order, 7)
    orbit = galois_orbit(heegner_form(49, -11, 7), 49, [kc.form for kc in kernel])
    with mp.workdps(55):
        zs = [eval_phi(M49, dyadic_point(heegner_tau(pt, 40)), 40) for pt in orbit]
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


@pytest.mark.parametrize("dK,y_nu", [(-11, -101539334449472239), (-7, 101538721191064303)])
def test_trace_conductor_361_rational_point(dK, y_nu):
    # 0,0,1,-38,90 (N = 19^2, CM by Q(sqrt -19)): the trace is the rational
    # point with x = 217648630369/8496^2, and over Q(sqrt -7) its negative
    m361 = curve_model((0, 0, 1, -38, 90))
    rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=m361, digits=60, mode="main_plus"))
    assert rep.wp == 1 and len(rep.orbit) == 20
    assert rep.verdict == "non_torsion"
    rx, ry = rep.recognized
    assert (rx.nu, rx.mu, rx.den, rx.field_disc) == (217648630369, 0, 72182016, dK)
    assert (ry.nu, ry.mu, ry.den, ry.field_disc) == (y_nu, 0, 613258407936, dK)
    assert curve_equation_holds_exactly(m361.minimal.ainvs, rx, ry)


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
    import cmtrace.experiments as experiments
    calls = []

    def counting(order, p, **kwargs):
        calls.append((order.dK, order.f, p))
        return kernel_classes(order, p, **kwargs)

    monkeypatch.setattr(experiments, "kernel_classes", counting)
    for model, dK, f in ((M49, -11, 1), (M49, -8, 3), (M121, -67, 1)):
        del calls[:]
        report = trace_point(ExperimentSpec(dK=dK, f=f, curve=model, digits=30,
                                            mode="signo_minus" if model is M49 else "main_plus"))
        assert calls == [(dK, f, model.p)]
        assert report.orbit[0].proj == (1, 0)


def test_class_number_one_table_matches_the_class_numbers():
    # trace_point recognises at h = 1 by the table (Heegner, Baker and Stark),
    # and no other fundamental dK in [-2000, -5] has a single reduced form
    assert {dK for dK in range(-2000, -4)
            if is_fundamental_discriminant(dK) and class_number(dK) == 1} == CLASS_NUMBER_ONE


def test_experiment_finite_builds_no_binary_form(monkeypatch):
    # the shadow labels the points of P^1(F_p) and builds no ideal class:
    # with BinaryForm and kernel_classes raising, every report of criterion
    # 4's (p, dK), at f = 1 and 2, and at p = 3 and p = 10009, is the same
    from cmtrace import quadforms
    criterion_4 = {5: (-7, -23, -43), 7: (-11, -15, -23), 11: (-67, -20, -23),
                   13: (-7, -11, -19)}
    cases = [(p, dK, f) for p, dks in criterion_4.items() for dK in dks for f in (1, 2)]
    specs = [ExperimentSpec(dK=dK, f=f, p=p, mode="finite_only")
             for p, dK, f in cases + [(3, -7, 1), (10009, -7, 1)]]
    want = [experiment_finite(spec).to_json() for spec in specs]

    def no_form(*args, **kwargs):
        raise AssertionError("the finite layer built a binary form")

    monkeypatch.setattr(quadforms.BinaryForm, "__new__", no_form)
    monkeypatch.setattr(quadforms, "kernel_classes", no_form)
    assert [experiment_finite(spec).to_json() for spec in specs] == want


@pytest.mark.parametrize("model,dK,mode,verdict", [
    (M49, -11, "signo_minus", "torsion"),
    (curve_model((0, 0, 0, 0, 1)), -7, "main_plus", "non_torsion"),
])
def test_trace_point_locates_the_trace_once(monkeypatch, model, dK, mode, verdict):
    # the residual, the torsion test and elliptic_exp read one solve of the
    # trace: trace_point's own locate is the last solve of the run, after
    # the lattice reads of the stages before it (a fiber's lam, 2520 K_Q,
    # through read_vector), which may meet the same value: 49a1's trace
    # and its fibers' offsets are all 0 here
    from cmtrace import experiments, periods
    solves, exp_points = [], []
    locate, elliptic_exp = periods.locate, experiments.elliptic_exp

    def counting(caller):
        def run(lat, z):
            solves.append((caller, z, locate(lat, z)))
            return solves[-1][2]
        return run

    def spying(point):
        exp_points.append(point)
        return elliptic_exp(point)

    for module in (experiments, periods):
        monkeypatch.setattr(module, "locate", counting(module.__name__))
    monkeypatch.setattr(experiments, "elliptic_exp", spying)
    rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=model, digits=60, mode=mode))
    assert rep.verdict == verdict
    caller, z, point = solves[-1]
    assert caller == "cmtrace.experiments" and z == rep.trace_z
    assert [s[0] for s in solves].count("cmtrace.experiments") == 1
    assert exp_points == [point] * (verdict == "non_torsion")
    if exp_points:
        assert exp_points[0] is point


@pytest.mark.parametrize("model,dK,mode", [(M49, -11, "signo_minus"),
                                            (M121, -67, "main_plus")])
def test_trace_point_scans_the_multiples_once_and_cuts_each_exponent_once(monkeypatch, model,
                                                                         dK, mode):
    # is_torsion and torsion_residual share one scan of the TORSION_BOUND
    # multiples of the trace, and on a lattice made fresh for the run the
    # periods are cut once per exponent, however many values are read there
    from cmtrace import experiments, periods
    scans, cuts = [], []
    nearest, cut = periods._nearest_multiples, periods._cut

    def scanning(point, bound):
        scans.append(bound)
        return nearest(point, bound)

    def cutting(lat, k):
        cuts.append((id(lat), k))
        return cut(lat, k)

    monkeypatch.setattr(periods, "_nearest_multiples", scanning)
    monkeypatch.setattr(periods, "_cut", cutting)
    monkeypatch.setattr(experiments, "period_lattice", period_lattice.__wrapped__)
    rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=model, digits=60, mode=mode))
    assert rep.verdict == ("torsion" if model is M49 else "non_torsion")
    assert scans.count(TORSION_BOUND) == 1 and set(scans) == {1, TORSION_BOUND}
    assert cuts and len(set(cuts)) == len(cuts) < scans.count(1)


def test_timings_time_the_finite_layer_and_the_orbit_plan_apart(monkeypatch):
    # finite_layer times experiment_finite alone: a slow orbit_options shows
    # up under orbit_plan, beside heegner_form and galois_orbit
    from cmtrace import experiments
    options = experiments.orbit_options

    def slow(*args):
        time.sleep(0.2)
        return options(*args)

    monkeypatch.setattr(experiments, "orbit_options", slow)
    rep = trace_point(ExperimentSpec(dK=-67, f=1, curve=M121, digits=30))
    assert list(rep.timings) == ["finite_layer", "orbit_plan", "atkin_lehner",
                                 "orbit_evaluation", "classification"]
    assert rep.timings["orbit_plan"] >= 0.2 > rep.timings["finite_layer"]


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
    extended = sieve._extended

    def counting(m, known, bound):
        calls.append((len(known) - 1, bound))
        return extended(m, known, bound)

    monkeypatch.setattr(curves, "_an_cache", {})
    monkeypatch.setattr(sieve, "_extended", counting)
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
        monkeypatch.setattr(sieve, name, counting(getattr(sieve, name)))
    rep = trace_point(ExperimentSpec(dK=dK, f=1, curve=model, digits=200))
    sieved = len(curves._an_cache[model.minimal.ainvs][1]) - 1
    assert rep.verdict == verdict and sieved == rep.n_max
    # w_p = +1 on 121b1 evaluates the cheaper point of each fiber at 200
    # digits; w_p = -1 on 49a1 evaluates every point at LAMBDA_DIGITS only
    assert (rep.n_max > 3000) == (rep.wp == 1)
    # the sieve up to the 200-digit plan's deepest point counts none either
    deepest = max((mv.low or mv).n_max for mv in orbit_options(model, _orbit(model, dK)[2], 200))
    assert deepest > 3000
    an_coefficients(model.minimal, deepest)
    assert counted == []


def test_cold_36a1_trace_counts_no_points(monkeypatch):
    # 36a1 (d = -3, conductor 36): the six units fill (O_K / 2 sqrt -3)^x, so
    # its a_n, the numerical w_9's newform series included, come from the walk
    counted = []
    count = sieve._ap_count

    def counting(*args):
        counted.append(args)
        return count(*args)

    model = curve_model((0, 0, 0, 0, 1))
    monkeypatch.setattr(curves, "_an_cache", {})
    monkeypatch.setattr(sieve, "_ap_count", counting)
    rep = trace_point(ExperimentSpec(dK=-7, f=1, curve=model, digits=200))
    assert rep.verdict == "non_torsion" and rep.n_max > 1000
    assert len(curves._an_cache[model.minimal.ainvs][1]) - 1 == rep.n_max
    assert counted == []


def _orbit(model, dK, digits=60):
    """(finite shadow, kernel classes, orbit) as trace_point builds them, at f = 1."""
    shadow = experiment_finite(ExperimentSpec(dK=dK, f=1, curve=model, digits=digits))
    kernel = kernel_classes(order_data(dK, 1), model.p)
    base = heegner_form(model.n, dK, model.p)
    return shadow, kernel, galois_orbit(base, model.n, [kc.form for kc in kernel])


def test_orbit_trace_equals_kernel_order_evaluation(monkeypatch):
    # the trace is bit for bit its rebuild in kernel order: the values the
    # moves prescribe, w_Q (phi(M tau) - K_Q) - Omega for a moved point, one
    # series per evaluation point and precision up to conjugation, and each
    # fiber's sum, z_a + z_b or (1 + w_p) z_a + K_{p^2} + lam, however the
    # evaluations were ordered
    digits = 60
    for model, dK in [(M121, -67), (M49, -11), (M50B, -7)]:
        shadow, kernel, orbit = _orbit(model, dK)
        monkeypatch.setattr(curves, "_an_cache", {})
        wp = atkin_lehner_sign(model.minimal, model.n, model.p ** 2)
        lat = period_lattice(model.minimal, digits)
        moves = orbit_options(model, orbit, digits)
        entries, trace_z, n_max, constants, _ = orbit_trace(
            model, orbit, kernel, fiber_pairs(model, orbit, kernel, shadow), moves, wp, lat)
        monkeypatch.setattr(curves, "_an_cache", {})
        terms = [mv.n_max for mv in moves]
        # kernel order starts below the deepest evaluation, so the sieve
        # grows differently from orbit_trace's deepest-first order
        assert len(set(terms)) > 1 and terms[0] < max(terms)
        assert {mv.q for mv in moves} > {1}               # some points move, some stay
        pairs = [tuple(sorted(pair, key=lambda i: (terms[i], moves[i].low is not None, i)))
                 for pair in fiber_pairs(model, orbit, kernel, shadow)]
        used = evaluated_moves(moves, pairs, wp)
        reads = {moves[a].low.q for a, _ in pairs if wp == 1 and moves[a].low}
        # kernel order, the sieve grows with each series
        zs, precs, sources, series_terms, in_order = orbit_values_by_fiber(
            model, moves, pairs, wp, lat)
        assert 1 < sources.count("series") < len(moves)
        reads_lam = wp == -1 or any(source.startswith("fiber:") for source in sources)
        qs = sorted(({mv.q for mv in used} | reads) - {1}
                    | ({model.p ** 2} if reads_lam else set()))
        assert [c[0] for c in constants] == qs
        k_terms = [phi_terms(im_tau(-4 * q_div, model.n), LAMBDA_DIGITS)
                   for q_div, w, *_ in constants if al_constant_points(model.n, q_div, w)]
        assert n_max == max(series_terms + k_terms)
        assert [(e.digits, e.q, e.n_max, e.source) for e in entries] == [
            (prec, mv.q, n, source)
            for prec, mv, n, source in zip(precs, used, series_terms, sources)]
        assert (trace_z.real, trace_z.imag) == (in_order.real, in_order.imag)


def test_orbit_trace_over_budget_fails_before_any_evaluation(monkeypatch):
    digits = 60
    shadow, kernel, orbit = _orbit(M121, -67)
    # the budget binds the translation moves, whose values the reads of Omega need
    pairs = fiber_pairs(M121, orbit, kernel, shadow)
    deepest = max((mv.low or mv).n_max for mv in orbit_options(M121, orbit, digits))
    with mp.workdps(digits + 15):
        unmoved = max(phi_terms(heegner_tau(pt, digits).imag, digits) for pt in orbit)
    assert deepest < unmoved                   # the cap below binds only after the moves
    # a cap one below the deepest planned evaluation: no plan is within it
    monkeypatch.setattr("cmtrace.modparam.NMAX_CAP", deepest - 1)

    def no_eval(*args, **kwargs):
        raise AssertionError("eval_phi ran before the budget check")

    monkeypatch.setattr("cmtrace.experiments.eval_phi", no_eval)
    monkeypatch.setattr("cmtrace.modparam.eval_phi", no_eval)
    with pytest.raises(SeriesBudgetError) as exc:
        _trace(M121, orbit, kernel, shadow, digits)          # raised by orbit_options
    assert exc.value.needed == deepest
    # at the deepest need itself the same orbit is evaluated: w_p = +1, so
    # the cheaper point of each fiber at the trace precision, and the deepest
    # of those is the most terms evaluated
    monkeypatch.setattr("cmtrace.modparam.NMAX_CAP", deepest)
    monkeypatch.setattr("cmtrace.experiments.eval_phi", eval_phi)
    monkeypatch.setattr("cmtrace.modparam.eval_phi", eval_phi)
    moves = orbit_options(M121, orbit, digits)
    cheaper = max(min(moves[i].n_max, moves[j].n_max) for i, j in pairs)
    assert cheaper < deepest
    assert _trace(M121, orbit, kernel, shadow, digits)[2] == cheaper


def test_over_budget_trace_fails_before_the_sign(monkeypatch):
    # the sign evaluates a series at additive 3; the budget is known before it
    monkeypatch.setattr("cmtrace.modparam.NMAX_CAP", 10)

    def no_sign(*args, **kwargs):
        raise AssertionError("atkin_lehner_sign ran before the budget check")

    monkeypatch.setattr("cmtrace.experiments.atkin_lehner_sign", no_sign)
    with pytest.raises(SeriesBudgetError):
        trace_point(ExperimentSpec(dK=-67, f=1, curve=M121, digits=30))

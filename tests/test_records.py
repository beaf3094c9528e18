"""The package's records are named tuples.  Each keeps the repr,
immutability, equality and hash of the frozen dataclass it replaced, and a
record with input checks runs them on _replace as on construction."""

import hashlib
import json

import mpmath as mp
import pytest

from cmtrace.curves import Curve, LocalData, curve_model
from cmtrace.embeddings import build_embedding
from cmtrace.errors import InputError
from cmtrace.experiments import OrbitEntry, OrbitMove, TraceReport, trace_point
from cmtrace.finite import ExperimentSpec, experiment_finite
from cmtrace.fp import order_data
from cmtrace.heegner import heegner_form
from cmtrace.modparam import al_constant
from cmtrace.periods import PeriodLattice
from cmtrace.recognize import AlgebraicNumber


def _samples() -> dict:
    curve = Curve(0, -1, 1, -7, 10)
    spec = ExperimentSpec(dK=-7, f=1, p=5, mode="finite_only")
    shadow = experiment_finite(spec)
    entry = OrbitEntry(proj=(1, 0), form=(121, 109, 25), z=("0.5", "-0.25"), digits=30, q=1,
                       n_max=812, source="series")
    x = AlgebraicNumber(nu=49, mu=-13, den=32, field_disc=-7)
    return {
        "Curve": curve,
        "LocalData": LocalData(v_disc=2, f=2, reduction="additive"),
        "CurveModel": curve_model(curve.ainvs),
        "QuadOrder": order_data(-67, 1),
        "EmbeddingData": build_embedding(11, order_data(-67, 1)),
        "ExperimentSpec": spec,
        "FiniteReport": shadow,
        "OrbitEntry": entry,
        "OrbitMove": OrbitMove(q=1, form=heegner_form(121, -67, 11), n_max=812, low=None),
        "TraceReport": TraceReport(
            spec=spec, wp=1, orbit=(entry,), trace_z=mp.mpc(1, -2), residual=mp.mpf(0.5),
            verdict="torsion", recognized=(x, x), n_max=812, finite_shadow=shadow,
            constants=((121, 1, 0, 0, 1),), series=(1, 0), timings={"orbit_evaluation": 0.25}),
        "PeriodLattice": PeriodLattice(curve=curve, w1=mp.mpc(2, 0), w2=mp.mpc(1, 3), digits=30),
        "AlgebraicNumber": x,
    }


SAMPLES = _samples()

# the repr of each sample, recorded when the records were frozen dataclasses;
# LocalData and OrbitMove since have the fields their readers use, OrbitMove
# the translation move (low) of a move into the whole coset, and OrbitEntry
# no tau, which its form determines
DATACLASS_REPRS = {
    "Curve": 'Curve(a1=0, a2=-1, a3=1, a4=-7, a6=10)',
    "LocalData": "LocalData(v_disc=2, f=2, reduction='additive')",
    "CurveModel": (
        'CurveModel(curve=Curve(a1=0, a2=-1, a3=1, a4=-7, a6=10), minimal=Curve(a1=0, a2=-1, '
        'a3=1, a4=-7, a6=10), n=121, p=11, m=1)'),
    "QuadOrder": 'QuadOrder(dK=-67, f=1, disc=-67, t=1, n=17)',
    "EmbeddingData": (
        'EmbeddingData(p=11, eps=2, order=QuadOrder(dK=-67, f=1, disc=-67, t=1, n=17), '
        'iota_omega=(6, 2, 4, 6))'),
    "ExperimentSpec": "ExperimentSpec(dK=-7, f=1, curve=None, p=5, digits=60, mode='finite_only')",
    "FiniteReport": (
        "FiniteReport(p=5, dK=-7, f=1, level_m=1, checks={'optimal_embedding': True, "
        "'lemma_converse': True, 'signo_pairing': True, 'two_to_one': True, "
        "'degree_matches_index': True, 'common_norm_elements': True}, fiber_count=3, degree=3, "
        'fibers={(0, 1, 4, 0): [(1, 0), (2, 1)], (1, 1, 3, 4): [(0, 1), (1, 1)], (1, 2, 3, '
        '2): [(3, 1), (4, 1)]})'),
    "OrbitEntry": (
        "OrbitEntry(proj=(1, 0), form=(121, 109, 25), z=('0.5', '-0.25'), digits=30, q=1, "
        "n_max=812, source='series')"),
    "OrbitMove": 'OrbitMove(q=1, form=BinaryForm(a=121, b=121, c=47), n_max=812, low=None)',
    "TraceReport": (
        'TraceReport(spec=ExperimentSpec(dK=-7, f=1, curve=None, p=5, digits=60, '
        "mode='finite_only'), wp=1, orbit=(OrbitEntry(proj=(1, 0), form=(121, 109, 25), "
        "z=('0.5', '-0.25'), digits=30, q=1, n_max=812, source='series'),), "
        "trace_z=mpc(real='1.0', imag='-2.0'), residual=mpf('0.5'), "
        "verdict='torsion', recognized=(AlgebraicNumber(nu=49, mu=-13, den=32, field_disc=-7), "
        'AlgebraicNumber(nu=49, mu=-13, den=32, field_disc=-7)), n_max=812, '
        'finite_shadow=FiniteReport(p=5, dK=-7, f=1, level_m=1, '
        "checks={'optimal_embedding': True, 'lemma_converse': True, 'signo_pairing': True, "
        "'two_to_one': True, 'degree_matches_index': True, 'common_norm_elements': True}, "
        'fiber_count=3, degree=3, fibers={(0, 1, 4, 0): [(1, 0), (2, 1)], (1, 1, 3, 4): [(0, '
        '1), (1, 1)], (1, 2, 3, 2): [(3, 1), (4, 1)]}), constants=((121, 1, 0, 0, 1),), '
        "series=(1, 0), timings={'orbit_evaluation': 0.25})"),
    "PeriodLattice": (
        "PeriodLattice(curve=Curve(a1=0, a2=-1, a3=1, a4=-7, a6=10), w1=mpc(real='2.0', "
        "imag='0.0'), w2=mpc(real='1.0', imag='3.0'), digits=30)"),
    "AlgebraicNumber": 'AlgebraicNumber(nu=49, mu=-13, den=32, field_disc=-7)',
}

# a field of each record, and another value for it that passes its checks
CHANGED = {
    "Curve": ("a6", 11),
    "LocalData": ("f", 3),
    "CurveModel": ("m", 2),
    "QuadOrder": ("n", 18),
    "EmbeddingData": ("eps", 3),
    "ExperimentSpec": ("digits", 30),
    "FiniteReport": ("degree", 4),
    "OrbitEntry": ("source", "same:0"),
    "OrbitMove": ("n_max", 900),
    "TraceReport": ("verdict", "non_torsion"),
    "PeriodLattice": ("digits", 60),
    "AlgebraicNumber": ("den", 16),
}


def test_every_record_has_a_sample():
    assert set(SAMPLES) == set(DATACLASS_REPRS) == set(CHANGED)
    assert all(type(rec).__name__ == name for name, rec in SAMPLES.items())


@pytest.mark.parametrize("name", DATACLASS_REPRS)
def test_repr_is_the_dataclass_repr(name):
    assert repr(SAMPLES[name]) == DATACLASS_REPRS[name]


@pytest.mark.parametrize("name", CHANGED)
def test_fields_are_read_only_and_replace_keeps_the_type(name):
    rec = SAMPLES[name]
    field, value = CHANGED[name]
    with pytest.raises(AttributeError):
        setattr(rec, field, value)
    new = rec._replace(**{field: value})
    assert type(new) is type(rec) and getattr(new, field) == value
    assert getattr(rec, field) != value and new != rec


@pytest.mark.parametrize("name", DATACLASS_REPRS)
def test_equality_and_hash_go_by_fields(name):
    rec = SAMPLES[name]
    twin = type(rec)(**{field: getattr(rec, field) for field in rec._fields})
    assert twin == rec and twin is not rec
    # unlike a dataclass, a record is the tuple of its fields
    assert rec == tuple(rec) and len(rec) == len(rec._fields)
    if name in ("FiniteReport", "TraceReport"):      # their dict fields have no hash
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec) == hash(tuple(rec))


def test_trace_report_json_is_the_dataclass_json():
    # an entry holds z as a number and no tau, and to_json prints both: z as
    # nstr does, and tau = (-109 + sqrt(-219)) / 242, the point of the
    # sample's form (121, 109, 25), to the report's 30 digits
    entry = SAMPLES["OrbitEntry"]._replace(z=mp.mpc(0.5, -0.25))
    report = SAMPLES["TraceReport"]._replace(
        spec=ExperimentSpec(dK=-7, f=1, curve=SAMPLES["CurveModel"], digits=30), orbit=(entry,))
    text = json.dumps(report.to_json())
    tau = '"(-0.450413223140495867768595041322 + 0.0611514404419369506491088554933j)"'
    # each orbit entry's keys in the dataclass's field order, tau between form and z
    assert json.dumps(report.to_json()["orbit"]) == (
        '[{"proj": [1, 0], "form": [121, 109, 25], "tau": ' + tau + ', '
        '"z": ["0.5", "-0.25"], "digits": 30, "q": 1, "n_max": 812, "source": "series"}]')
    # the whole report, recorded when the records were frozen dataclasses and
    # the sample's tau was the text "(-0.45, 0.0338)"
    recorded = text.replace(tau, '"(-0.45, 0.0338)"')
    assert hashlib.sha256(recorded.encode()).hexdigest() == (
        "d53736013335e3c0519306d626d847ff22d05843c42a05d97bbf52d658d2fe65")


# 121b1/-67 prints the imaginary parts of (2057, +-363, 17), rounding noise
# below 10^-(digits + 5), as "0.0" (test_a_part_below_the_values_accuracy...)
@pytest.mark.parametrize("ainvs,dK,digits,digest", [
    ((0, -1, 1, -7, 10), -67, 30,
     "3783835a7ac19d8c0ecda892f83dd6126280904043bd0311c7ad2660cafc341c"),
    ((1, -1, 0, -2, -1), -11, 200,
     "997e018071122d6d148429a4489e0faa7b1f475dcbb5930285b704dcdfda7c4f"),
])
def test_trace_point_formats_no_entry_and_to_json_prints_the_recorded_text(
        monkeypatch, ainvs, dK, digits, digest):
    # trace_point keeps each entry's tau and z as numbers, a cold K_Q read
    # included: mp.nstr runs only in to_json, whose orbit is the text the
    # entries held when trace_point formatted them (digests recorded then)
    def refuse(*args, **kwargs):
        raise AssertionError("mp.nstr called inside trace_point")

    al_constant.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(mp, "nstr", refuse)
        report = trace_point(ExperimentSpec(dK=dK, f=1, curve=curve_model(ainvs), digits=digits))
    orbit = report.to_json()["orbit"]
    assert hashlib.sha256(json.dumps(orbit).encode()).hexdigest() == digest
    if dK == -67:
        assert orbit[0]["tau"] == "(-0.5 + 0.372061489630565907725168351124j)"
        assert orbit[0]["z"] == ("-0.0962848589707938548740404006243", "0.0")
    else:
        assert orbit[1]["z"] == ("0.23707", "-0.7101")


@pytest.mark.parametrize("digits", [30, 60, 200])
def test_a_part_below_the_values_accuracy_prints_as_zero(digits):
    # 121b1/-67: the imaginary parts of (2057, +-363, 17) are 0 up to rounding
    # noise (+-9.09e-44 at 30 digits, +-3.2e-73 at 60, +-1.3e-213 at 200),
    # under 10^-(digits + 5), and print as "0.0"; the real parts print in full
    report = trace_point(ExperimentSpec(dK=-67, f=1, curve=curve_model((0, -1, 1, -7, 10)),
                                        digits=digits))
    entries = {e.form: e for e in report.orbit}
    shown = {tuple(e["form"]): e["z"] for e in report.to_json()["orbit"]}
    for form in ((2057, 363, 17), (2057, -363, 17)):
        assert 0 < abs(entries[form].z.imag) < mp.mpf(10) ** -(digits + 5)
        assert shown[form] == ("1.17790541554629101700087671007", "0.0")


def test_replace_runs_the_construction_checks():
    with pytest.raises(InputError, match="f must be an integer"):
        SAMPLES["ExperimentSpec"]._replace(f=True)
    with pytest.raises(InputError, match="singular"):
        SAMPLES["Curve"]._replace(a2=0, a3=0, a4=0, a6=0)


def test_defaults_and_required_fields():
    spec = ExperimentSpec(-7, 1, p=5)
    assert (spec.curve, spec.digits, spec.mode) == (None, 60, "main_plus")
    # the mutable fields have no shared default
    for name in ("FiniteReport", "TraceReport"):
        rec = SAMPLES[name]
        with pytest.raises(TypeError):
            type(rec)(*rec[:-1])


def test_curve_and_lattice_keep_their_cached_properties():
    curve, lat = SAMPLES["Curve"], SAMPLES["PeriodLattice"]
    assert curve.__dict__ == {"disc": -1331}           # cached by the singularity check
    assert curve.c4 == 352 and curve.__dict__["c4"] == 352
    assert lat.reduction is lat.reduction and "reduction" in lat.__dict__


@pytest.mark.parametrize("name,cached", [("Curve", "disc"), ("PeriodLattice", "reduction")])
def test_curve_and_lattice_take_no_assignment(name, cached):
    # a Curve whose disc read 0 after an assignment once reached
    # period_lattice as a bare ZeroDivisionError
    rec = type(SAMPLES[name])(*SAMPLES[name])
    field = rec._fields[-1]
    before = getattr(rec, field)
    for attr in (field, cached, "new_name"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(rec, attr, 0)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(rec, attr)
    assert getattr(rec, field) == before and not hasattr(rec, "new_name")
    assert getattr(rec, cached) == getattr(SAMPLES[name], cached)
    assert rec.__dict__ == {cached: getattr(SAMPLES[name], cached)}
    if name == "Curve":
        assert rec.c4 == 352 and rec.__dict__["c4"] == 352

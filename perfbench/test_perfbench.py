"""Tests of the benchmark itself, on tiny op lists:

    python3 -m pytest perfbench -q
"""

import copy
import json
from pathlib import Path

import pytest

import cases
import run
import tracer as tracing

# Where each traced layer may be called from (None: the op itself).
PARENTS = {
    "experiments.trace_point": {None},
    "experiments.experiment_finite": {None, "experiments.trace_point"},
    "modparam.atkin_lehner_sign": {"experiments.trace_point"},
    "modparam.eval_newform": {"modparam.atkin_lehner_sign"},
    "experiments.orbit_trace": {"experiments.trace_point"},
    "modparam.eval_phi": {"experiments.orbit_trace"},
    "curves.an_coefficients": {"modparam.eval_phi", "modparam.eval_newform"},
    "quadforms.kernel_classes": {"experiments.trace_point", "experiments.experiment_finite"},
    "heegner.heegner_form": {"experiments.trace_point"},
    "heegner.galois_orbit": {"experiments.trace_point"},
    "periods.period_lattice": {"experiments.trace_point"},
    "periods.torsion_residual": {"experiments.trace_point"},
    "periods.is_torsion": {"experiments.trace_point"},
    "periods.elliptic_exp": {"experiments.trace_point"},
    "recognize.recognize_in_quadratic": {"experiments.trace_point"},
    "fp.index_ns_plus": {"experiments.experiment_finite"},
    "embeddings.build_embedding": {"experiments.experiment_finite"},
    "embeddings.verify_optimal": {"experiments.experiment_finite", "embeddings.build_embedding"},
    "embeddings.lemma_converse_check": {"experiments.experiment_finite"},
    "embeddings.signo_pairing_check": {"experiments.experiment_finite"},
    "embeddings.two_to_one_check": {"experiments.experiment_finite"},
    "embeddings.find_common_norm_element": {"experiments.experiment_finite"},
}
TINY = {                           # cheap ops; 36a1/-7/1 is recognised as a point
    "trace-deep": ["36a1/-7/1", "49a1/-11/1"],
    "field-sweep": ["36a1/-7/1", "49a1/-8/3", "36a1/-31/1"],
    "finite-wide-p": ["101/-7/1"],
}


@pytest.fixture(scope="module")
def env():
    _, _, cm, models = run.timed_setup(sorted(cases.CURVES))
    return cm, models, cases.load_expected()


def test_same_seed_gives_same_ops(env):
    expected = env[2]
    for workload in run.WORKLOADS:
        ops = run.draw_ops(workload, 7, 30, expected)
        assert ops == run.draw_ops(workload, 7, 30, expected)
        assert ops != run.draw_ops(workload, 8, 30, expected)
    assert set(cases.ANCHORS) <= set(run.draw_ops("trace-deep", 7, 30, expected))


def test_every_op_has_a_recorded_output(env):
    expected = env[2]
    assert len(expected["trace"]) > 100 and len(expected["finite"]) > 1000
    for entry in expected["trace"].values():
        assert set(entry) == {str(cases.DEEP_DIGITS), str(cases.SWEEP_DIGITS)}
    headline = expected["trace"]["121b1/-67/1"][str(cases.DEEP_DIGITS)]
    assert headline["verdict"] == "non_torsion"
    assert headline["recognized"]["x"] == {"nu": -2, "mu": 0, "den": 1, "field_disc": -67}
    assert expected["trace"]["49a1/-11/1"][str(cases.DEEP_DIGITS)]["verdict"] == "torsion"


@pytest.mark.parametrize("how", ["wrong", "cut"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_expected_value_is_a_failed_op(env, workload, how):
    cm, models, expected = env
    bad = copy.deepcopy(expected)
    key = TINY[workload][0]
    if workload == "finite-wide-p":
        entry = bad["finite"][key]
    else:
        entry = bad["trace"][key][str(run.Workload(workload, cm, models, bad).digits)]
    if how == "cut":                  # only the fields that are not compared are left
        for name in set(entry) - set(cases.RECORDED_ONLY):
            del entry[name]
    elif workload == "finite-wide-p":
        entry["report_sha256"] = "0" * 64
    else:
        entry["traceZ"] = ["0.5", "not a number"]
    work = run.Workload(workload, cm, models, bad)
    work.measure(TINY[workload], traced=False)
    passes = 2 if workload == "field-sweep" else 1
    assert work.attempted == passes * len(TINY[workload])
    assert len(work.failures) == passes
    assert all(line.startswith(key) for line in work.failures)


@pytest.mark.parametrize("workload", ["field-sweep", "finite-wide-p"])
def test_output_of_another_shape_is_a_failed_op(env, workload, monkeypatch):
    cm, models, expected = env
    name = "experiment_finite" if workload == "finite-wide-p" else "trace_point"
    monkeypatch.setattr(cm, name, lambda spec: object())
    work = run.Workload(workload, cm, models, expected)
    work.measure(TINY[workload], traced=False)
    assert len(work.failures) == work.attempted
    assert all("cannot summarize the output" in line for line in work.failures)


def test_uncorrupted_ops_pass_and_a_raising_op_fails(env):
    cm, models, expected = env
    work = run.Workload("field-sweep", cm, models, expected)
    work.measure(TINY["field-sweep"], traced=False)
    assert work.failures == []
    work.measure(["49a1/-19/1"], traced=False)          # -19 splits at 7
    assert len(work.failures) == 2 and "HypothesisError" in work.failures[0]


def test_traced_run_emits_every_layer_metric_with_correct_parents(env):
    cm, models, expected = env
    seen = set()
    for workload, ops in TINY.items():
        work = run.Workload(workload, cm, models, expected)
        result = work.measure(ops, traced=True)
        assert work.failures == []
        assert set(result["layers"]) == set(tracing.metric_names())
        spans = result["spans"]
        for name, start, end, parent, op in spans:
            seen.add(name)
            parent_name = None if parent is None else spans[parent][0]
            assert parent_name in PARENTS[name], (name, parent_name)
            if parent is not None:
                _, p_start, p_end, _, p_op = spans[parent]
                assert p_start <= start <= end <= p_end and p_op == op
        for op in ops:
            assert any(s[4] == op for s in spans)
    assert seen == set(PARENTS)


def test_a_missing_layer_is_dropped_not_fatal(env, monkeypatch):
    cm, models, expected = env
    monkeypatch.delattr(cm.fp, "index_ns_plus")
    work = run.Workload("finite-wide-p", cm, models, expected)
    result = work.measure(TINY["finite-wide-p"], traced=True)
    assert "fp.index_ns_plus.s" not in result["layers"]
    assert "embeddings.two_to_one_check.s" in result["layers"]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.UNITS.get(m["name"].rsplit(".", 1)[1], "1")
    for m in spec["end_to_end"]:
        assert m["unit"] == run.E2E_UNITS[m["name"]]

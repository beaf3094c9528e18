"""Inputs and outputs of the benchmark's operations.

The trace catalogue is every (curve, dK, f) with dK a fundamental discriminant
in [-120, -7] and f in {1, 2, 3} that passes ExperimentSpec.validate, over the
five curves the test suite uses. The finite domain is every (p, dK, f) with p
a prime in [101, 199] and dK inert at p. `expected.json` (written by
record.py) holds the recorded output and cost of every case of both.

Draws are stratified by cost. The domain is sorted by recorded cost (scaled
seconds, see run.probe_s); for each of n evenly spaced quantiles of that
order, one case is drawn among those whose cost is within COST_WINDOW of the
quantile's. So two seeds give different cases but nearly the same cost at
every rank, which keeps the spread of the run's total and of its order
statistics (median, tail) across seeds small.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
RECORDED_ONLY = ("cost_s",)             # recorded for sizing and drawing, not compared

CURVES = {                       # label -> (a-invariants, mode used by the tests)
    "49a1": ((1, -1, 0, -2, -1), "signo_minus"),
    "121b1": ((0, -1, 1, -7, 10), "main_plus"),
    "50a1": ((1, 0, 1, -1, -2), "signo_minus"),
    "50b1": ((1, 1, 1, -3, 1), "main_plus"),
    "36a1": ((0, 0, 0, 0, 1), "main_plus"),
}
DISCRIMINANTS = range(-120, -6)
CONDUCTORS = (1, 2, 3)
FINITE_PRIMES = tuple(q for q in range(101, 200) if all(q % d for d in range(2, 15)))
DEEP_DIGITS = 200                # cmtrace.periods.DIGITS_CAP
SWEEP_DIGITS = 60                # cmtrace.experiments.DEFAULT_DIGITS
ANCHORS = ("49a1/-11/1", "121b1/-67/1")   # the paper's two headline traces
COST_WINDOW = 0.03


def trace_key(label: str, dK: int, f: int) -> str:
    return f"{label}/{dK}/{f}"


def finite_key(p: int, dK: int, f: int) -> str:
    return f"{p}/{dK}/{f}"


def trace_spec(cm, models: dict, key: str, digits: int):
    label, dK, f = key.split("/")
    return cm.ExperimentSpec(dK=int(dK), f=int(f), curve=models[label], digits=digits,
                             mode=CURVES[label][1])


def finite_spec(cm, key: str):
    p, dK, f = (int(v) for v in key.split("/"))
    return cm.ExperimentSpec(dK=dK, f=f, p=p, mode="finite_only")


def build_models(cm, labels) -> dict:
    return {label: cm.curve_model(CURVES[label][0]) for label in labels}


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def stratified(costs: dict[str, float], n: int, rng: random.Random) -> list[str]:
    """n keys, one near each of n evenly spaced quantiles of `costs`."""
    keys = sorted(costs, key=lambda k: (costs[k], k))
    out = []
    for i in range(n):
        target = costs[keys[int((i + 0.5) * len(keys) / n)]]
        out.append(rng.choice([k for k in keys if abs(costs[k] - target) <= COST_WINDOW * target]))
    return out


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def summarize_trace(report) -> dict:
    """What the gate compares for one trace_point: verdict, w_p, orbit length,
    the recognised point, traceZ and a digest of the finite shadow JSON."""
    import mpmath as mp
    payload = report.to_json()
    digits = report.spec.digits
    z = mp.mpc(report.trace_z)
    return {
        "verdict": payload["verdict"],
        "wp": payload["wp"],
        "orbit_len": len(payload["orbit"]),
        "recognized": payload.get("recognized"),
        "traceZ": [mp.nstr(z.real, digits + 10), mp.nstr(z.imag, digits + 10)],
        "shadow_sha256": _digest(payload["finite_shadow"]),
    }


def summarize_finite(report) -> dict:
    return {"report_sha256": _digest(report.to_json())}


def mismatch(expected: dict | None, got: dict, digits: int | None = None) -> str | None:
    """Why `got` differs from the recorded output, or None when it matches.

    Both must hold the same fields, RECORDED_ONLY aside. Every field compares
    exactly except traceZ, which must agree to 10^-digits. A malformed
    expected entry is a mismatch, never an exception.
    """
    import mpmath as mp
    if expected is None:
        return "no recorded output for this case"
    try:
        fields = set(expected) - set(RECORDED_ONLY)
        if fields != set(got):
            return f"fields differ: expected {sorted(fields)}, got {sorted(got)}"
        for name, want in expected.items():
            if name in RECORDED_ONLY:
                continue
            if name == "traceZ":
                with mp.workdps(digits + 20):
                    diff = abs(mp.mpc(*want) - mp.mpc(*got[name]))
                    if not diff <= mp.mpf(10) ** -digits:
                        return f"traceZ differs by {mp.nstr(diff, 3)}"
            elif got.get(name) != want:
                return f"{name}: expected {want!r}, got {got.get(name)!r}"
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        return f"malformed expected output: {exc!r}"
    return None

"""Record every trace of the catalogue as the point on E it names.

    PYTHONPATH=src python tests/record_catalogue.py

writes tests/catalogue.json, which test_catalogue.py replays.  The cases are
the 115 catalogue cases and the 20 level-45/90 cases of test_orbit_moves, at
60 and 200 digits, and the two rational points of conductor 361 (361/-7 and
361/-11) at 60 digits.  Per case the record holds the verdict, w_p, the
orbit size, the constants (Q, w_Q, i, j, n), the recognised point, the
torsion residual to 8 digits and the class of traceZ mod the period lattice:
its coordinates in the lattice's reduced basis (periods.locate) mod 1, to
digits - 5 decimals.  It holds no term count, series count or timing, which
a change of route may move without changing a result.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

from cmtrace.curves import curve_model
from cmtrace.experiments import trace_point
from cmtrace.finite import ExperimentSpec
from cmtrace.periods import locate, period_lattice
from test_orbit_moves import CATALOGUE, CURVES, MODELS, W9_CASES

RECORD = Path(__file__).with_name("catalogue.json")
CURVE_361 = (0, 0, 1, -38, 90)


def cases() -> list:
    """(curve a-invariants, dK, f, digits, mode) of every recorded trace."""
    out = []
    for digits in (60, 200):
        for label, dK, f in CATALOGUE + W9_CASES:
            ai, mode = CURVES.get(label, (MODELS[label].curve.ainvs, "main_plus"))
            out.append((tuple(ai), dK, f, digits, mode))
    out += [(CURVE_361, dK, 1, 60, "main_plus") for dK in (-7, -11)]
    return out


def key(case) -> str:
    ai, dK, f, digits, _ = case
    return f"{','.join(map(str, ai))}/{dK}/{f}@{digits}"


def coordinates(lat, z) -> list:
    """The coordinates of z in the reduced basis of lat, mod 1, as decimal
    strings of lat.digits - 5 places."""
    point = locate(lat, z)
    frac, places = point.cut.frac, lat.digits - 5
    scale = 10 ** places
    return [f"0.{(((v % (1 << frac)) * scale + (1 << frac - 1)) >> frac) % scale:0{places}d}"
            for v in (point.x, point.y)]


def summary(case) -> dict:
    """The record of one trace: what it says about the point on E."""
    ai, dK, f, digits, mode = case
    model = curve_model(ai)
    report = trace_point(ExperimentSpec(dK=dK, f=f, curve=model, digits=digits, mode=mode))
    recognized = None
    if report.recognized is not None:
        recognized = [[v.nu, v.mu, v.den, v.field_disc] for v in report.recognized]
    return {
        "verdict": report.verdict,
        "wp": report.wp,
        "orbit": len(report.orbit),
        "constants": [list(c) for c in report.constants],
        "recognized": recognized,
        "residual": mp.nstr(report.residual, 8),
        "traceZ": coordinates(period_lattice(model.minimal, digits), report.trace_z),
    }


def main() -> int:
    record = {key(case): summary(case) for case in cases()}
    lines = (f"{json.dumps(k)}: {json.dumps(record[k], sort_keys=True)}" for k in sorted(record))
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(record)} traces written to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

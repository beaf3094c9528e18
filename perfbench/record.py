"""Record the expected output and cost of every benchmark case into expected.json.

    python3 perfbench/record.py

Run it only at a commit whose outputs are trusted: the benchmark's correctness
gate compares every later run against this file. Costs are scaled seconds,
timed as the benchmark times ops (run.timed). Each trace case runs in a fresh
process forked after import, so its cost is a cold cost; at 60 digits it runs
twice in that process and the second (warm) cost is recorded, as in the
field-sweep workload.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

import cases
from run import import_cmtrace, timed

cm = None
MODELS: dict = {}


def _trace_case(task):
    key, digits = task
    spec = cases.trace_spec(cm, MODELS, key, digits)
    summaries = []
    for _ in range(2 if digits == cases.SWEEP_DIGITS else 1):
        report, error, seconds, scale = timed(cm.trace_point, spec)
        if error:
            raise RuntimeError(f"{key}@{digits}: {error}")
        summaries.append(cases.summarize_trace(report))
    if cases.mismatch(summaries[0], summaries[-1], digits):
        raise RuntimeError(f"{key}@{digits}: warm output differs from cold output")
    return key, digits, dict(summaries[-1], cost_s=round(seconds * scale, 4))


def _finite_case(key):
    report, error, seconds, scale = timed(cm.experiment_finite, cases.finite_spec(cm, key))
    if error:
        raise RuntimeError(f"{key}: {error}")
    return key, dict(cases.summarize_finite(report), cost_s=round(seconds * scale, 4))


def trace_catalogue() -> list[str]:
    keys = []
    for label, model in MODELS.items():
        for dK in cases.DISCRIMINANTS:
            for f in cases.CONDUCTORS:
                key = cases.trace_key(label, dK, f)
                try:
                    cases.trace_spec(cm, MODELS, key, cases.SWEEP_DIGITS).validate()
                except ValueError:
                    continue
                keys.append(key)
    return keys


def finite_domain() -> list[str]:
    keys = []
    for p in cases.FINITE_PRIMES:
        for dK in cases.DISCRIMINANTS:
            for f in cases.CONDUCTORS:
                key = cases.finite_key(p, dK, f)
                try:
                    cases.finite_spec(cm, key).validate()
                except ValueError:
                    continue
                keys.append(key)
    return keys


def main() -> int:
    global cm, MODELS
    cm = import_cmtrace()
    MODELS = cases.build_models(cm, cases.CURVES)
    catalogue = trace_catalogue()
    domain = finite_domain()
    print(f"{len(catalogue)} trace cases, {len(domain)} finite cases", flush=True)
    out = {"trace": {k: {} for k in catalogue}, "finite": {}}
    ctx = multiprocessing.get_context("fork")      # children start with empty caches
    tasks = [(k, d) for d in (cases.DEEP_DIGITS, cases.SWEEP_DIGITS) for k in catalogue]
    with ctx.Pool(2, maxtasksperchild=1) as pool:
        for key, digits, summary in pool.imap_unordered(_trace_case, tasks):
            out["trace"][key][str(digits)] = summary
            print(key, digits, summary["verdict"], summary["cost_s"], flush=True)
        for key, summary in pool.imap_unordered(_finite_case, domain, chunksize=8):
            out["finite"][key] = summary
    out["finite"] = dict(sorted(out["finite"].items()))
    tmp = cases.EXPECTED_PATH.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
    os.replace(tmp, cases.EXPECTED_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The cmtrace benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload trace-deep --seed 1 --seconds 20 --trace 0

Load comes from one client in a closed loop: each op starts when the previous
one has ended, and at most one worker process is alive at a time. An op is one
`trace_point` or one `experiment_finite` call on a spec drawn from the seed.
Op times are scaled for the machine's speed during the op (see probe_s).

- trace-deep: cold trace_point at 200 digits. Each op runs in a process forked
  after set-up, so it starts with the package's caches empty, as one `cmtrace
  trace` invocation does. The q-series layer does almost all the work.
- field-sweep: trace_point at 60 digits in one warm process, over a sequence
  in which curves repeat. A warm-up pass of the same list fills the a_n cache
  before the measured pass, so per-op fixed costs (Atkin-Lehner sign, periods,
  kernel and orbit, PSLQ) weigh more.
- finite-wide-p: experiment_finite for p in [101, 199], the O(p^2) finite
  layer alone.

The op list is sized from --seconds and the costs recorded in expected.json,
so a run does a fixed amount of work for a given seed. With --trace 0 the
end-to-end metrics are measured; with --trace 1 the list runs untraced and
then traced, and the per-layer metrics come from the traced pass. The last
line of stdout is one JSON object {correct, attempted, failed, metrics}; the
lines before it give the seed, the drawn specs and any failed op. A copy of
the result, with spans when traced, goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("trace-deep", "field-sweep", "finite-wide-p")
SETUP_SAMPLES = 5                 # set-ups per run; setup_s is their median
TAIL_BEYOND = 10                  # op_s.tail keeps this many samples above it
OP_TIMEOUT_S = 170
REF_PROBE_S = 1.5e-3              # probe time that defines the reference machine speed
PROBE_EVERY_S = 0.1
# End-to-end metrics of BENCHMARK.json. op_s.p50 and op_s.tail are printed
# but not listed there: across seeds they spread by 7-14% (IQR over median of
# ten runs), more than a third of the largest bound a metric may have, 0.25.
E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def import_cmtrace():
    """Import cmtrace from this checkout's src/ and nowhere else."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")     # no native threads, so forking is safe
    if not (SRC / "cmtrace" / "__init__.py").is_file():
        raise SystemExit("perfbench: src/cmtrace not found next to the benchmark")
    sys.path.insert(0, str(SRC))
    import cmtrace
    if Path(cmtrace.__file__).resolve().parent != SRC / "cmtrace":
        raise SystemExit(f"perfbench: imported cmtrace from {cmtrace.__file__}")
    return cmtrace


def timed_setup(labels):
    """Import cmtrace and build the curve models, the set-up a user pays;
    returns (seconds, probe seconds just after, cmtrace, models)."""
    t0 = time.perf_counter()
    cm = import_cmtrace()
    models = cases.build_models(cm, labels)
    return time.perf_counter() - t0, statistics.median(probe_s() for _ in range(3)), cm, models


def setup_probe(labels) -> tuple[float, float]:
    """timed_setup in a fresh interpreter, so the import is really paid."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
            "print(*run.timed_setup(sys.argv[1:])[:2])")
    proc = subprocess.run([sys.executable, "-c", code, *labels], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    seconds, probe = proc.stdout.split()[-2:]
    return float(seconds), float(probe)


def probe_s() -> float:
    """Seconds for one run of a fixed probe: the speed of this core now.

    The machine this benchmark was defined on changes speed by up to 1.8x
    within seconds, core by core (other tenants), which wall times alone
    cannot separate from a change to the program. So an interval timer runs
    this probe every PROBE_EVERY_S inside each op, on the same core, and the
    op's time, less the probes', is scaled by REF_PROBE_S over their mean.
    The probe mixes the two kinds of work the workloads do, an mpmath
    q-series loop and small-tuple arithmetic mod p. It uses only mpmath, never
    cmtrace, so it does not change when the program does.
    """
    import mpmath as mp
    t0 = time.perf_counter()
    with mp.workdps(75):
        q = mp.exp(2j * mp.pi * mp.mpc(0.1, 0.3))
        qn, acc = mp.mpc(1), mp.mpc(0)
        for n in range(1, 80):
            qn *= q
            acc += mp.mpf(n % 5 - 2) / n * qn
    seen = {}
    for i in range(1200):
        m = (i % 97, i * 7 % 97, i * 13 % 97, i * 31 % 97)
        seen[m] = (m[0] * m[3] - m[1] * m[2]) % 97
    return time.perf_counter() - t0


def timed(fn, *args):
    """fn(*args) with the speed probe run every PROBE_EVERY_S on this core and
    once after; returns (result or None, error or None, seconds less the
    probes, scale). An exception from fn is returned as its repr."""
    result = error = None
    probes = []
    previous = signal.signal(signal.SIGALRM, lambda *_: probes.append(probe_s()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S / 2, PROBE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:              # an op that raises is a failed op
        error = repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    net = elapsed - sum(probes)
    probes.append(probe_s())              # at least one sample per op
    return result, error, net, REF_PROBE_S / statistics.fmean(probes)


def draw_ops(workload: str, seed: int, seconds: float, expected: dict) -> list[str]:
    """The seeded op list, sized so that it takes about `seconds` at the
    commit expected.json was recorded at."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "finite-wide-p":
        costs = {k: v["cost_s"] for k, v in expected["finite"].items()}
    else:
        digits = str(cases.DEEP_DIGITS if workload == "trace-deep" else cases.SWEEP_DIGITS)
        costs = {k: v[digits]["cost_s"] for k, v in expected["trace"].items()}
    n = max(1, round(seconds / statistics.fmean(costs.values())))
    if workload == "trace-deep":
        ops = list(cases.ANCHORS) + cases.stratified(
            {k: c for k, c in costs.items() if k not in cases.ANCHORS},
            max(0, n - len(cases.ANCHORS)), rng)
    elif workload == "field-sweep":            # the warm-up pass doubles the work
        ops = cases.stratified(costs, max(1, n // 2), rng)
    else:
        ops = cases.stratified(costs, n, rng)
    rng.shuffle(ops)
    return ops


class Workload:
    """Runs one workload's ops and checks each against the recorded output."""

    def __init__(self, name, cm, models, expected):
        self.name, self.cm, self.models = name, cm, models
        self.expected = expected
        self.tracer = tracing.Tracer(cm)
        self.finite = name == "finite-wide-p"
        self.digits = {"trace-deep": cases.DEEP_DIGITS,
                       "field-sweep": cases.SWEEP_DIGITS}.get(name)
        self.failures: list[str] = []
        self.attempted = 0
        self.rss_kb = 0
        self.child_traces: list = []      # (spans, counts) sent back by forked ops

    def expected_for(self, key):
        if self.finite:
            return self.expected["finite"].get(key)
        return self.expected["trace"].get(key, {}).get(str(self.digits))

    def call(self, key):
        """Run one op; returns ((seconds less probes, scale), summary or None,
        error or None)."""
        self.tracer.op = key
        if self.finite:
            report, error, *timing = timed(self.cm.experiment_finite,
                                           cases.finite_spec(self.cm, key))
        else:
            report, error, *timing = timed(
                self.cm.trace_point, cases.trace_spec(self.cm, self.models, key, self.digits))
        summary = None
        if report is not None:
            try:
                summary = (cases.summarize_finite(report) if self.finite
                           else cases.summarize_trace(report))
            except Exception as exc:      # an output of another shape is a failed op
                error = f"cannot summarize the output: {exc!r}"
        return tuple(timing), summary, error

    def _cold_call(self, conn, key):
        timing, summary, error = self.call(key)
        conn.send((timing, summary, error, self.tracer.take(),
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
        conn.close()

    def call_cold(self, key):
        """self.call in a child forked now, so the op sees no warm cache."""
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=self._cold_call, args=(send, key))
        child.start()
        send.close()
        try:
            if not recv.poll(OP_TIMEOUT_S):
                raise TimeoutError(f"no result after {OP_TIMEOUT_S} s")
            timing, summary, error, trace, rss_kb = recv.recv()
        except (EOFError, OSError, TimeoutError) as exc:
            child.kill()
            return (OP_TIMEOUT_S, 1.0), None, f"worker died: {exc!r}"
        finally:
            recv.close()
            child.join(OP_TIMEOUT_S)
        self.rss_kb = max(self.rss_kb, rss_kb)
        self.child_traces.append(trace)
        return timing, summary, error

    def run_pass(self, ops, traced: bool):
        """All ops once; returns [(op seconds, scale)]."""
        call = self.call_cold if self.name == "trace-deep" else self.call
        timings = []
        if traced:
            self.tracer.install()
        try:
            for key in ops:
                self.attempted += 1
                timing, summary, error = call(key)
                timings.append(timing)
                reason = error or cases.mismatch(self.expected_for(key), summary, self.digits)
                if reason:
                    self.failures.append(f"{key}: {reason}")
        finally:
            self.tracer.uninstall()
        return timings

    def take_trace(self):
        """Spans and counts recorded since the last call, forked ops included."""
        parts, self.child_traces = self.child_traces + [self.tracer.take()], []
        return tracing.merge(parts)

    def measure(self, ops, traced: bool) -> dict:
        """Scaled op times and run_s of the untraced pass, and in trace mode the
        per-layer metrics of a traced pass of the same list."""
        if self.name == "field-sweep":
            # Warm-up; traced in trace mode too, so that the a_n miss count
            # sees every bound requested earlier in the process.
            self.run_pass(ops, traced)
            self.take_trace()
        timings = self.run_pass(ops, False)
        times = [op * scale for op, scale in timings]
        out = {"timings": timings, "times": times, "run_s": sum(times)}
        if traced:
            traced_run_s = sum(op * scale for op, scale in self.run_pass(ops, True))
            spans, counts = self.take_trace()
            layers = self.tracer.metrics(spans, counts)
            layers[tracing.OVERHEAD] = traced_run_s / out["run_s"] - 1
            out.update(layers=layers, spans=spans)
        if self.name != "trace-deep":
            self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["rss_kb"] = self.rss_kb
        return out


# Predictions checked on each traced run: (workload, layer metrics whose sum
# is compared with the traced op time, comparison, share of op time).
PREDICTIONS = (
    ("trace-deep", ("modparam.eval_phi.self_s", "curves.an_coefficients.self_s"), ">=", 0.80),
    ("finite-wide-p", ("embeddings.two_to_one_check.s", "fp.index_ns_plus.s"), ">=", 0.90),
    ("field-sweep", ("curves.an_coefficients.self_s",), "<", 0.05),
)


def prediction_lines(workload, layers, spans) -> list[str]:
    op_s = sum(e - s for _, s, e, parent, _ in spans if parent is None)
    lines = []
    for name, terms, op, share in PREDICTIONS:
        if name != workload or not all(t in layers for t in terms):
            continue
        got = sum(layers[t] for t in terms) / op_s
        holds = got >= share if op == ">=" else got < share
        lines.append(f"prediction {' + '.join(terms)} {op} {share:.0%} of op time: "
                     f"{got:.1%} ({'holds' if holds else 'FAILS'})")
    return lines


def tail(times) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that keeps TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def e2e_metrics(setup_s, result) -> dict:
    return {"setup_s": setup_s, "run_s": result["run_s"], "peak_rss_mb": result["rss_kb"] / 1024}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="cmtrace benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    expected = cases.load_expected()
    ops = draw_ops(args.workload, args.seed, args.seconds, expected)
    labels = sorted({k.split("/")[0] for k in ops}) if args.workload != "finite-wide-p" else []
    setup_s, probe, cm, models = timed_setup(labels)
    setup_raw = [(setup_s, probe)] + [setup_probe(labels) for _ in range(SETUP_SAMPLES - 1)]
    samples = [s * REF_PROBE_S / p for s, p in setup_raw]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"ops ({len(ops)}): {' '.join(ops)}")
    print(f"setup_s samples, unscaled: {' '.join(f'{s:.4f}' for s, _ in setup_raw)}; "
          f"scaled: {' '.join(f'{s:.4f}' for s in samples)}")

    work = Workload(args.workload, cm, models, expected)
    result = work.measure(ops, bool(args.trace))
    failed = len(work.failures)
    for line in work.failures:
        print(f"FAILED {line}")
    value, pct = tail(result["times"])
    raw = [op for op, _ in result["timings"]]
    print(f"op_s.p50 {statistics.median(result['times']):.6g} s; op_s.tail {value:.6g} s, "
          f"p{pct:.1f} of {len(result['times'])} untraced ops")
    print(f"unscaled wall: sum of ops {sum(raw):.4f} s, median op {statistics.median(raw):.4f} s, "
          f"tail op {tail(raw)[0]:.4f} s; median scale "
          f"{statistics.median(k for _, k in result['timings']):.4f}")
    print(f"failed_frac {failed / work.attempted:.4f} ({failed} of {work.attempted})")
    if args.trace:
        for line in prediction_lines(args.workload, result["layers"], result["spans"]):
            print(line)
        metrics = {k: {"value": v, "unit": tracing.UNITS.get(k.rsplit(".", 1)[1], "1")}
                   for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e_metrics(statistics.median(samples), result).items()}
    for k, m in metrics.items():
        print(f"  {k:45s} {m['value']:.6g} {m['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": ops, "setup_timings": setup_raw,
              "op_timings": result["timings"], "failures": work.failures, "metrics": metrics}
    if args.trace:
        record["spans"] = tracing.spans_json(result["spans"])
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": work.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

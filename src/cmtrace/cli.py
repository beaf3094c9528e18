"""Command line interface: finite-layer checks, class groups, Heegner forms,
Atkin-Lehner signs, and full trace experiments with JSON reports.

Exit codes: 0 when a verdict was reached (or the command succeeded, --help
included), 2 when a trace run ends undecided, 1 on malformed, missing or
unsatisfiable input, on a bound of the package and on a --json path that
cannot be written, and 3 when a check of the theory fails (EXIT_CODES).  An
exception outside that table is a bug and ends in a traceback.

The heegner, sign and trace handlers import the analytic layer, and sign and
trace the curves, when they run, so finite-check and classgroup never load
mpmath or cmtrace.curves; classgroup imports quadforms when it runs, so
finite-check loads no binary-form code either.  A handler returns its JSON
payload as a callable, which main calls, and json loads, only on --json.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from contextlib import nullcontext

from .embeddings import FiberStructureError
from .errors import AlConstantError, CmtraceError, FiberPairingError
from .finite import DEFAULT_DIGITS, ExperimentSpec, experiment_finite

# Exit code per error class; the most specific class of an error's MRO counts.
EXIT_CODES = {
    CmtraceError: 1,             # input errors and the package's stated bounds
    OSError: 1,                  # a --json path that cannot be written
    FiberStructureError: 3,      # a check of the theory failed
    AlConstantError: 3,
    FiberPairingError: 3,
}


def _parse_curve(text: str):
    parts = text.replace(",", " ").split()
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("curve needs five integers a1,a2,a3,a4,a6")
    return tuple(int(x) for x in parts)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other input error: 2 means undecided."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cmtrace", description="Heegner traces across Cartan level structures")
    sub = ap.add_subparsers(dest="command", required=True)

    fin = sub.add_parser("finite-check", help="finite embedding and coset checks")
    fin.add_argument("--p", type=int, required=True)
    fin.add_argument("--dk", type=int, required=True)
    fin.add_argument("--f", type=int, default=1)
    fin.add_argument("--json", dest="json_path", default=None)

    cg = sub.add_parser("classgroup", help="reduced forms of a negative discriminant")
    cg.add_argument("--disc", type=int, required=True)
    cg.add_argument("--json", dest="json_path", default=None)

    hg = sub.add_parser("heegner", help="level-N form of a CM point")
    hg.add_argument("--n", type=int, required=True)
    hg.add_argument("--dk", type=int, required=True)
    hg.add_argument("--c", type=int, required=True)
    hg.add_argument("--json", dest="json_path", default=None)

    sg = sub.add_parser("sign", help="Atkin-Lehner eigenvalue")
    sg.add_argument("--curve", type=_parse_curve, required=True)
    sg.add_argument("--q", type=int, required=True)
    sg.add_argument("--json", dest="json_path", default=None)

    tr = sub.add_parser("trace", help="full Galois-orbit trace experiment")
    tr.add_argument("--curve", type=_parse_curve, required=True,
                    help="a1,a2,a3,a4,a6 of the X_0(N)-optimal curve of its isogeny class; "
                         "the K_Q check does not catch an isogenous model")
    tr.add_argument("--p", type=int, default=None)
    tr.add_argument("--dk", type=int, required=True)
    tr.add_argument("--f", type=int, default=1)
    tr.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    tr.add_argument("--json", dest="json_path", default=None)
    return ap


def _cmd_finite(args) -> tuple[int, Callable[[], dict]]:
    spec = ExperimentSpec(dK=args.dk, f=args.f, p=args.p, mode="finite_only")
    report = experiment_finite(spec)    # a check that fails raises
    print(f"finite-check p={report.p} dK={report.dK} f={report.f}: "
          f"{report.fiber_count} fibers of size 2, degree {report.degree}")
    for name in report.checks:
        print(f"  {name}: ok")
    return 0, report.to_json


def _cmd_classgroup(args) -> tuple[int, Callable[[], dict]]:
    from .quadforms import reduced_forms

    forms = reduced_forms(args.disc)
    print(f"discriminant {args.disc}: h = {len(forms)}")
    for f in forms:
        print(f"  ({f.a}, {f.b}, {f.c})")
    return 0, lambda: {"disc": args.disc, "h": len(forms),
                       "forms": [[f.a, f.b, f.c] for f in forms]}


def _cmd_heegner(args) -> tuple[int, Callable[[], dict]]:
    import mpmath as mp

    from .heegner import heegner_form

    form = heegner_form(args.n, args.dk, args.c)
    tau_im = mp.sqrt(-form.disc()) / (2 * form.a)
    print(f"heegner form at level {args.n}: ({form.a}, {form.b}, {form.c}), "
          f"disc {form.disc()}, Im tau = {mp.nstr(tau_im, 8)}")
    return 0, lambda: {"n": args.n, "dK": args.dk, "c": args.c,
                       "form": [form.a, form.b, form.c], "disc": form.disc()}


def _cmd_sign(args) -> tuple[int, Callable[[], dict]]:
    from .curves import Curve, conductor, minimal_model
    from .modparam import atkin_lehner_sign

    cur = minimal_model(Curve(*args.curve))
    n = conductor(cur)
    w = atkin_lehner_sign(cur, n, args.q)
    print(f"w_{args.q} = {w:+d} for curve {list(args.curve)} (N = {n})")
    return 0, lambda: {"curve": list(args.curve), "N": n, "q": args.q, "w": w}


def _cmd_trace(args) -> tuple[int, Callable[[], dict]]:
    import mpmath as mp

    from .curves import curve_model
    from .experiments import LAMBDA_DIGITS, trace_point

    digits = args.digits
    model = curve_model(args.curve, p=args.p)
    spec = ExperimentSpec(dK=args.dk, f=args.f, curve=model, digits=digits)
    report = trace_point(spec)
    print(f"curve {list(args.curve)} (N = {model.n} = {model.p}^2 * {model.m}), "
          f"K = Q(sqrt({args.dk})), f = {args.f}, digits = {digits}")
    full, low = report.series
    print(f"w_p = {report.wp:+d}; orbit of {len(report.orbit)} points in "
          f"{report.finite_shadow.fiber_count} fibers, {full} series at {digits} digits, "
          f"{low} at {LAMBDA_DIGITS} digits; n_max = {report.n_max}")
    for q_div, w, i, j, n in report.constants:
        print(f"K_{q_div} = ({i}*w1 + {j}*w2)/{n}: order {n}, w_{q_div} = {w:+d}")
    print(f"trace z = {mp.nstr(report.trace_z, min(digits, 30))}")
    print(f"torsion residual = {mp.nstr(report.residual, 8)}")
    print(f"verdict: {report.verdict}")
    if report.recognized is not None:
        rx, ry = report.recognized
        print(f"recognized point: x = ({rx.nu} + {rx.mu}*sqrt({rx.field_disc}))/{rx.den}, "
              f"y = ({ry.nu} + {ry.mu}*sqrt({ry.field_disc}))/{ry.den}")
    return (0 if report.verdict in ("torsion", "non_torsion") else 2), report.to_json


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "finite-check": _cmd_finite,
        "classgroup": _cmd_classgroup,
        "heegner": _cmd_heegner,
        "sign": _cmd_sign,
        "trace": _cmd_trace,
    }
    try:
        # the --json file is opened before any work, so an unwritable path
        # fails at once; a run that fails later leaves it empty
        with open(args.json_path, "w") if args.json_path else nullcontext() as fh:
            code, payload = handlers[args.command](args)
            if fh is not None:
                import json
                json.dump(payload(), fh, indent=2)
                fh.write("\n")
            return code
    except Exception as exc:
        code = next((EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

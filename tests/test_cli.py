import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import cmtrace
from cmtrace import cli, experiments, finite, modparam
from cmtrace.cli import EXIT_CODES, main
from cmtrace.curves import curve_model
from cmtrace.embeddings import FiberStructureError
from cmtrace.errors import AlConstantError, CmtraceError, FiberPairingError, InputError
from cmtrace.experiments import trace_point
from cmtrace.finite import ExperimentSpec
from cmtrace.fp import HypothesisError


def test_finite_check(capsys, tmp_path):
    out = tmp_path / "finite.json"
    code = main(["finite-check", "--p", "5", "--dk", "-7", "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "3 fibers of size 2" in text
    payload = json.loads(out.read_text())
    assert payload["passed"] and payload["fiber_count"] == 3


def test_classgroup(capsys, tmp_path):
    out = tmp_path / "cg.json"
    code = main(["classgroup", "--disc", "-23", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["h"] == 3
    assert [1, 1, 6] in payload["forms"]


def test_heegner_success_and_failure(capsys, tmp_path):
    out = tmp_path / "h.json"
    code = main(["heegner", "--n", "49", "--dk", "-11", "--c", "7", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["form"] == [49, 49, 15]
    code = main(["heegner", "--n", "49", "--dk", "-11", "--c", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_heegner_rejects_non_fundamental_dk(capsys):
    code = main(["heegner", "--n", "49", "--dk", "-12", "--c", "7"])
    assert code == 1
    captured = capsys.readouterr()
    assert "dK = -12 is not a fundamental discriminant" in captured.err
    assert captured.out == ""


def test_sign(capsys):
    code = main(["sign", "--curve", "1,-1,0,-2,-1", "--q", "49"])
    assert code == 0
    assert "w_49 = -1" in capsys.readouterr().out
    code = main(["sign", "--curve", "0,0,0,0,1", "--q", "9"])
    assert code == 0                       # additive at 3: the numerical route
    assert "w_9 = +1" in capsys.readouterr().out


@pytest.mark.parametrize("curve,q,line", [
    ("0,-1,1,-10,-20", "11", "w_11 = -1 for curve [0, -1, 1, -10, -20] (N = 11)"),   # 11a1
    ("0,0,1,-1,0", "37", "w_37 = +1 for curve [0, 0, 1, -1, 0] (N = 37)"),          # 37a1
])
def test_sign_of_a_curve_without_a_square_level(capsys, curve, q, line):
    # no odd p with p^2 || N: sign reads only the minimal model and N
    code = main(["sign", "--curve", curve, "--q", q])
    assert code == 0
    assert line in capsys.readouterr().out


def test_trace_run(capsys, tmp_path):
    out = tmp_path / "trace.json"
    code = main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--f", "1",
                 "--digits", "40", "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict: torsion" in text
    # w_p = -1: each fiber sums to K_49 + lam, and no series runs at 40 digits
    assert "orbit of 8 points in 4 fibers, 0 series at 40 digits, 4 at 5 digits;" in text
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "torsion"
    assert payload["wp"] == -1
    assert payload["finite_shadow"]["passed"]
    assert len(payload["orbit"]) == 8
    # every value is known to LAMBDA_DIGITS = 5 digits, and printed to those
    assert {e["digits"] for e in payload["orbit"]} == {5}
    assert all(len(e["z"][0].lstrip("-").replace(".", "").lstrip("0")) <= 5
               for e in payload["orbit"])
    sources = [e["source"] for e in payload["orbit"]]
    assert sources.count("series") == 4
    # each reused value names an entry that evaluated its series
    assert all(payload["orbit"][int(s.split(":")[1])]["source"] == "series"
               for s in sources if s != "series")


def test_trace_hypothesis_error(capsys):
    code = main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-19", "--digits", "30"])
    assert code == 1


def test_bad_curve_argument():
    with pytest.raises(SystemExit) as exc:
        main(["sign", "--curve", "1,2,3", "--q", "49"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv,message", [
    (["trace", "--curve", "1,-1,0,-2,-1", "--dk", "abc"], "argument --dk: invalid int value"),
    (["trace", "--dk", "-11"], "required: --curve"),
    (["trace", "--curve", "1,2", "--dk", "-11"], "curve needs five integers"),
    (["bogus"], "invalid choice: 'bogus'"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1            # 2 is reserved for an undecided trace
    assert message in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--help"])
    assert exc.value.code == 0
    assert "--curve" in capsys.readouterr().out


def test_sign_rejects_q_zero(capsys):
    code = main(["sign", "--curve", "1,-1,0,-2,-1", "--q", "0"])
    assert code == 1
    assert "Q must be a positive divisor of N = 49, got Q = 0" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["-1", "0"])
def test_finite_check_rejects_level_below_one(capsys, m):
    # the level is the curve's M (1 without a curve); --m is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["finite-check", "--p", "5", "--dk", "-7", "--m", m])
    assert exc.value.code == 1
    assert f"unrecognized arguments: --m {m}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["finite-check", "--p", "5", "--dk", "-7", "--eps", "3"],
    ["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--torsion-bound", "24"],
    ["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--mode", "signo_minus"],
    ["sign", "--curve", "0,0,0,0,1", "--q", "9", "--p", "3"],
], ids=["finite-eps", "trace-torsion-bound", "trace-mode", "sign-p"])
def test_finite_layer_and_torsion_knobs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classgroup", "--disc", "-23"],
    ["heegner", "--n", "49", "--dk", "-11", "--c", "7"],
    ["finite-check", "--p", "5", "--dk", "-7"],
], ids=lambda argv: argv[0])
def test_unwritable_json_path_exits_1(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.json"
    code = main([*argv, "--json", str(path)])
    assert code == 1
    assert f"error: [Errno 2] No such file or directory: '{path}'" in capsys.readouterr().err


def test_trace_json_path_is_checked_before_the_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr("cmtrace.experiments.trace_point", _no_work)
    path = tmp_path / "missing" / "t.json"
    code = main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--json", str(path)])
    assert code == 1
    assert f"error: [Errno 2] No such file or directory: '{path}'" in capsys.readouterr().err


def test_digits_default_ignores_the_environment(monkeypatch, capsys):
    # the precision comes from --digits alone: no environment variable sets it
    monkeypatch.setenv("CMTRACE_DIGITS", "abc")
    assert main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11"]) == 0
    assert "digits = 60" in capsys.readouterr().out


def test_trace_undecided_exit_code(tmp_path):
    out = tmp_path / "undecided.json"
    code = main(["trace", "--curve", "0,-1,1,-7,10", "--dk", "-67", "--f", "2",
                 "--digits", "40", "--json", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "undecided"


def _no_work(*args, **kwargs):
    raise AssertionError("input should have been rejected before any work")


@pytest.mark.parametrize("argv,bound", [
    (["trace", "--digits", "0"], "between 1 and 200"),
    (["trace", "--digits", "250"], "between 1 and 200"),
    (["trace", "--digits", "-1"], "between 1 and 200"),
])
def test_bad_precision_and_torsion_bound_rejected(monkeypatch, capsys, argv, bound):
    monkeypatch.setattr("cmtrace.experiments.atkin_lehner_sign", _no_work)
    code = main([argv[0], "--curve", "1,-1,0,-2,-1", "--dk", "-11", *argv[1:]])
    assert code == 1                  # an uncaught error would fail the test instead
    assert bound in capsys.readouterr().err


def test_sign_has_no_digits_option(monkeypatch, capsys):
    # a sign is read at modparam.LAMBDA_DIGITS, so no caller sets a precision
    monkeypatch.setattr("cmtrace.modparam.atkin_lehner_sign", _no_work)
    with pytest.raises(SystemExit) as exc:
        main(["sign", "--curve", "1,-1,0,-2,-1", "--q", "49", "--digits", "30"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --digits 30" in capsys.readouterr().err


@pytest.mark.parametrize("digits", ["1", "3", "8", "14"])
def test_trace_below_the_precision_floor_rejected(monkeypatch, capsys, digits):
    monkeypatch.setattr("cmtrace.experiments.atkin_lehner_sign", _no_work)
    code = main(["trace", "--curve", "0,-1,1,-7,10", "--dk", "-67", "--digits", digits])
    assert code == 1
    assert f"a trace needs at least 15 digits, got {digits}" in capsys.readouterr().err


def test_series_budget_error_exits_1(capsys):
    # the W_9 sample points of this conductor need far more than NMAX_CAP terms
    code = main(["sign", "--curve", "0,0,0,0,1003003001", "--q", "9"])
    assert code == 1
    assert "above the cap" in capsys.readouterr().err


def test_precision_error_exits_1(monkeypatch, capsys):
    # the period lattice checks its precision with the spec's own check
    lattice = experiments.period_lattice
    monkeypatch.setattr("cmtrace.experiments.period_lattice",
                        lambda curve, digits: lattice(curve, 250))
    code = main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--digits", "20"])
    assert code == 1
    assert "error: digits must be between 1 and 200, got 250" in capsys.readouterr().err


@pytest.mark.parametrize("n,c", [("0", "7"), ("-49", "7"), ("49", "0"), ("49", "-7")])
def test_heegner_rejects_nonpositive_level_and_conductor(capsys, n, c):
    code = main(["heegner", "--n", n, "--dk", "-11", "--c", c])
    assert code == 1
    assert "must be positive" in capsys.readouterr().err


def test_factorisation_bound_exits_1_at_once(capsys):
    # b = 1000003 * 1000033, so disc = -432 b^2 has a composite cofactor b
    # with no prime factor up to the trial-division bound 10^6
    code = main(["sign", "--curve", "0,0,0,0,1000036000099", "--q", "9"])
    assert code == 1
    err = capsys.readouterr().err
    assert "composite factor 1000036000099" in err and "trial-division bound 1000000" in err


def test_primality_bound_exits_1_at_once(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the finite layer ran past the primality bound")

    monkeypatch.setattr("cmtrace.finite.build_embedding", no_work)
    code = main(["finite-check", "--p", "3317044064679887385961981", "--dk", "-7"])
    assert code == 1
    assert "decided exactly only below 3317044064679887385961981" in capsys.readouterr().err


def test_a_p_above_the_cap_exits_1_at_once(monkeypatch, capsys):
    # the finite layer builds O(p) lists, so p is capped after its primality
    # test; 1000033 is prime and inert in Q(sqrt -7)
    def no_work(*args, **kwargs):
        raise AssertionError("the finite layer ran past the cap on p")

    monkeypatch.setattr("cmtrace.finite.build_embedding", no_work)
    assert main(["finite-check", "--p", "1000033", "--dk", "-7"]) == 1
    assert "p = 1000033 is above the cap 1000000" in capsys.readouterr().err
    with pytest.raises(InputError, match="above the cap"):
        ExperimentSpec(dK=-7, f=1, p=1000033, mode="finite_only").validate()


def _python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's cmtrace."""
    src = str(Path(cmtrace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)


def test_import_leaves_sympy_out():
    proc = _python("import sys, cmtrace.cli; print(sorted(m for m in sys.modules "
                   "if m.split('.')[0] == 'sympy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runs_with_sympy_blocked():
    # a None entry in sys.modules makes every import of sympy fail
    proc = _python(
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from cmtrace.cli import main\n"
        "assert main(['finite-check', '--p', '5', '--dk', '-7']) == 0\n"
        "sys.exit(main(['trace', '--curve', '0,-1,1,-7,10', '--dk', '-67', '--digits', '30']))\n")
    assert proc.returncode == 0, proc.stderr
    assert "3 fibers of size 2" in proc.stdout
    assert "verdict: non_torsion" in proc.stdout


def test_import_leaves_numpy_out():
    proc = _python("import sys, cmtrace, cmtrace.cli; print(sorted(m for m in sys.modules "
                   "if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sieve_runs_with_numpy_blocked():
    # 50b1 has no CM: every good a_ell up to 12,000 is point-counted
    proc = _python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from cmtrace.curves import Curve, an_coefficients\n"
        "a = an_coefficients(Curve(1, 1, 1, -3, 1), 12000)\n"
        "print(len(a), a[11987])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["12001", "-57"]     # a_11987 by tests/oracles.py's char sum


def test_finite_path_leaves_mpmath_out():
    proc = _python(
        "import sys, cmtrace\n"
        "from cmtrace.cli import main\n"
        "assert main(['finite-check', '--p', '101', '--dk', '-7']) == 0\n"
        "assert main(['classgroup', '--disc', '-23']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# prints which of curves, the sieve and mpmath's modules the process has loaded
_LOADED = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'\n"
           "             or m in ('cmtrace.curves', 'cmtrace.sieve')))\n")


# prints the package's loaded submodules
_PACKAGE = "print(sorted(m for m in sys.modules if m.startswith('cmtrace.')))\n"


def test_finite_path_leaves_curves_and_sieve_out():
    # import cmtrace and finite-check load the finite layer only, with no
    # binary-form code (the order names are fp's); classgroup adds quadforms
    # and nothing analytic
    proc = _python(
        "import sys, cmtrace\n"
        "assert type(cmtrace.order_data(-91, 1)) is cmtrace.QuadOrder\n"
        + _PACKAGE +
        "spec = cmtrace.ExperimentSpec(dK=-91, f=1, p=199, mode='finite_only')\n"
        "assert cmtrace.experiment_finite(spec).all_passed\n"
        "from cmtrace.cli import main\n"
        "assert main(['finite-check', '--p', '101', '--dk', '-7']) == 0\n"
        + _PACKAGE + _LOADED +
        "assert main(['classgroup', '--disc', '-23']) == 0\n"
        + _PACKAGE + _LOADED)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    finite_layer = ["cmtrace.embeddings", "cmtrace.errors", "cmtrace.finite", "cmtrace.fp"]
    assert lines[0] == str(finite_layer)
    assert lines[1] == str(sorted(["cmtrace.cli", *finite_layer]))
    assert lines[3] == str(sorted(["cmtrace.cli", "cmtrace.quadforms", *finite_layer]))
    assert lines[2] == lines[4] == "[]"


def test_curve_models_leave_the_sieve_out():
    # the five benchmark curves (49a1, 121b1, 50a1, 50b1, 36a1): their models
    # need Tate's algorithm, not the a_n
    catalogue = [(1, -1, 0, -2, -1), (0, -1, 1, -7, 10), (1, 0, 1, -1, -2), (1, 1, 1, -3, 1),
                 (0, 0, 0, 0, 1)]
    proc = _python(
        "import sys, cmtrace\n"
        f"for ainvs in {catalogue!r}:\n"
        "    cmtrace.curve_model(ainvs)\n"
        + _LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['cmtrace.curves']"


def test_the_analytic_layer_loads_the_sieve():
    # a forked op (the trace-deep workload) finds the sieve compiled already
    proc = _python("import sys, cmtrace.modparam\nprint('cmtrace.sieve' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_a_curve_of_another_type_is_refused_before_curves_loads():
    proc = _python(
        "import sys, cmtrace\n"
        "assert 'cmtrace.curves' not in sys.modules\n"
        "try:\n"
        "    cmtrace.ExperimentSpec(dK=-7, f=1, curve=object(), p=101)\n"
        "except cmtrace.InputError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "curve must be a CurveModel, got object"


def test_finite_commands_run_with_curves_blocked():
    for args, line in ((["finite-check", "--p", "10009", "--dk", "-7"], "5005 fibers of size 2"),
                       (["classgroup", "--disc", "-23"], "h = 3")):
        proc = _python(
            "import sys\n"
            "sys.modules['cmtrace.curves'] = None\n"
            "from cmtrace.cli import main\n"
            f"sys.exit(main({args!r}))\n")
        assert proc.returncode == 0, proc.stderr
        assert line in proc.stdout


def test_finite_check_runs_with_mpmath_blocked():
    proc = _python(
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from cmtrace.cli import main\n"
        "sys.exit(main(['finite-check', '--p', '10009', '--dk', '-7']))\n")
    assert proc.returncode == 0, proc.stderr
    assert "5005 fibers of size 2" in proc.stdout


def test_heegner_runs_with_mpmath_blocked():
    # the Heegner forms, the kernel orbit and the Atkin-Lehner moves are all
    # integer arithmetic: the headline 121b1/-67 orbit and the W_121 move of
    # its point 1, by translation and by the coset search
    proc = _python(
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from cmtrace.heegner import al_move, coset_move, galois_orbit, heegner_form\n"
        "from cmtrace.fp import order_data\n"
        "from cmtrace.quadforms import kernel_classes\n"
        "base = heegner_form(121, -67, 11)\n"
        "kernel = kernel_classes(order_data(-67, 1), 11)\n"
        "orbit = galois_orbit(base, 121, [kc.form for kc in kernel])\n"
        "print(tuple(base), len(orbit))\n"
        "print(tuple(al_move(orbit[1], 121, 121)))\n"
        "translation, form = coset_move(orbit[1], 121, 121)\n"
        "print(translation, tuple(form))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["(121, 121, 47) 12", "(2057, 363, 17)",
                                        "True (2057, 363, 17)"]


def test_runs_without_json_leave_json_out():
    # only a --json run writes JSON, so only it imports json
    proc = _python(
        "import sys, cmtrace.cli\n"
        "assert cmtrace.cli.main(['finite-check', '--p', '101', '--dk', '-7']) == 0\n"
        "print('json' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_import_and_runs_leave_dataclasses_out():
    # the records are named tuples, so no module imports dataclasses
    proc = _python("import sys, cmtrace, cmtrace.cli, cmtrace.experiments\n"
                   "print('dataclasses' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    proc = _python(
        "import sys\n"
        "sys.modules['dataclasses'] = None\n"
        "from cmtrace.cli import main\n"
        "assert main(['finite-check', '--p', '199', '--dk', '-91']) == 0\n"
        "sys.exit(main(['trace', '--curve', '0,-1,1,-7,10', '--dk', '-67', '--digits', '30']))\n")
    assert proc.returncode == 0, proc.stderr
    assert "100 fibers of size 2" in proc.stdout
    assert "verdict: non_torsion" in proc.stdout


# the package's names before its analytic half became lazy, less the orbit
# point record, whose points are now plain Heegner forms
EXPORTS = (
    "Curve", "CurveModel", "an_coefficients", "conductor", "curve_model", "minimal_model",
    "EmbeddingData", "build_embedding", "find_common_norm_element", "lemma_converse_check",
    "signo_pairing_check", "two_to_one_check", "verify_optimal", "CmtraceError",
    "InputError", "ExperimentSpec", "FiniteReport", "TraceReport", "experiment_finite",
    "trace_point", "ArithmeticBoundError", "index_ns_plus", "NoHeegnerPoint",
    "galois_orbit", "heegner_form", "atkin_lehner_sign", "eval_phi", "PeriodLattice",
    "elliptic_exp", "is_torsion", "period_lattice", "BinaryForm", "QuadOrder",
    "class_number", "kernel_classes", "order_data", "reduce_form", "reduced_forms",
    "AlgebraicNumber", "recognize_in_quadratic", "recognize_rational",
)


def test_every_export_resolves_to_its_defining_modules_object():
    # in a fresh interpreter, so that each analytic name resolves lazily
    proc = _python(
        "import sys, cmtrace\n"
        f"for name in {EXPORTS + ('locate',)!r}:\n"
        "    obj = getattr(cmtrace, name)\n"
        "    assert vars(sys.modules[obj.__module__])[name] is obj, name\n"
        "    assert name in dir(cmtrace), name\n"
        "assert getattr(cmtrace, 'modparam') is sys.modules['cmtrace.modparam']\n"
        "try:\n"
        "    cmtrace.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "module 'cmtrace' has no attribute 'no_such_name'"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_package_error_class_has_an_exit_code():
    for info in pkgutil.iter_modules(cmtrace.__path__):
        importlib.import_module(f"cmtrace.{info.name}")
    classes = {cls for cls in _subclasses(CmtraceError) if cls.__module__.startswith("cmtrace.")}
    failed_checks = {FiberStructureError, AlConstantError, FiberPairingError}
    assert failed_checks | {InputError, HypothesisError} <= classes
    assert not {"EmbeddingError", "PrecisionError"} & {cls.__name__ for cls in classes}
    for cls in classes:
        code = next(EXIT_CODES[c] for c in cls.__mro__ if c in EXIT_CODES)
        assert code == (3 if cls in failed_checks else 1), cls
    assert issubclass(InputError, ValueError)


def test_fiber_structure_error_exits_3_without_a_traceback(monkeypatch, capsys):
    def broken(spec):
        raise FiberStructureError("fiber of (1, 0) has size 3")

    monkeypatch.setattr(cli, "experiment_finite", broken)
    assert main(["finite-check", "--p", "5", "--dk", "-7"]) == 3
    err = capsys.readouterr().err
    assert err == "error: fiber of (1, 0) has size 3\n"


def test_a_failed_finite_check_exits_3(monkeypatch, capsys, tmp_path):
    # a shadow check that reads false is a failed check of the theory, in
    # finite-check and in the shadow of a trace alike, and the report says so
    monkeypatch.setattr(finite, "verify_optimal", lambda emb: False)
    out = tmp_path / "finite.json"
    assert main(["finite-check", "--p", "5", "--dk", "-7", "--json", str(out)]) == 3
    assert "optimal_embedding: FAILED" in capsys.readouterr().out
    assert json.loads(out.read_text())["passed"] is False
    out = tmp_path / "trace.json"
    code = main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--digits", "30",
                 "--json", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "torsion" and payload["finite_shadow"]["passed"] is False


def test_a_constant_off_the_lattice_exits_3(monkeypatch, capsys):
    # a K_Q point's value moved by 10^-12: 2520 K_Q misses the lattice by
    # more than the budget, so no torsion point of Mazur's list fits it
    exact = modparam.eval_phi

    def perturbed(model, tau, digits):
        z = exact(model, tau, digits)
        return z + mp.mpf(10) ** -12 if digits == modparam.LAMBDA_DIGITS else z

    monkeypatch.setattr(modparam, "eval_phi", perturbed)
    modparam.al_constant.cache_clear()
    spec = ExperimentSpec(dK=-11, f=1, curve=curve_model((1, -1, 0, -2, -1)), digits=30)
    with pytest.raises(AlConstantError, match="K_49"):
        trace_point(spec)
    assert main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--digits", "30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: K_49 = ") and "Traceback" not in err


def _read_off(module, monkeypatch):
    # each value the module reads a lattice vector off, moved by 10^-6: above
    # LAMBDA_BUDGET and below |b1| / 2, as an evaluation that broke its bound
    read = module.read_vector
    monkeypatch.setattr(module, "read_vector",
                        lambda lat, z, *args: read(lat, z + mp.mpf(10) ** -6, *args))


def test_a_fiber_mate_off_by_a_period_exits_3(monkeypatch, capsys):
    # a mate's LAMBDA_DIGITS value 10^-6 off: the read of its lam misses the
    # lattice by more than the budget
    _read_off(experiments, monkeypatch)
    assert main(["trace", "--curve", "0,-1,1,-7,10", "--dk", "-67", "--digits", "30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: orbit points ") and "Traceback" not in err


def test_a_constant_read_a_period_off_exits_3(monkeypatch, capsys):
    # 2520 K_Q's value 10^-6 off misses the lattice by more than the budget
    _read_off(modparam, monkeypatch)
    modparam.al_constant.cache_clear()
    spec = ExperimentSpec(dK=-11, f=1, curve=curve_model((1, -1, 0, -2, -1)), digits=30)
    with pytest.raises(AlConstantError, match="K_49"):
        trace_point(spec)
    assert main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--digits", "30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: K_49 = ") and "Traceback" not in err


def test_a_bugs_value_error_is_not_an_input_error(monkeypatch):
    def buggy(disc):
        return int("not a number")              # a ValueError the package never meant

    monkeypatch.setattr("cmtrace.quadforms.reduced_forms", buggy)
    with pytest.raises(ValueError, match="invalid literal"):
        main(["classgroup", "--disc", "-23"])

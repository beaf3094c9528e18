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
from cmtrace.periods import PrecisionError


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
    code = main(["sign", "--curve", "1,-1,0,-2,-1", "--q", "49", "--digits", "30"])
    assert code == 0
    assert "w_49 = -1" in capsys.readouterr().out
    code = main(["sign", "--curve", "0,0,0,0,1", "--q", "9", "--digits", "30"])
    assert code == 0                       # additive at 3: the numerical route
    assert "w_9 = +1" in capsys.readouterr().out


@pytest.mark.parametrize("curve,q,line", [
    ("0,-1,1,-10,-20", "11", "w_11 = -1 for curve [0, -1, 1, -10, -20] (N = 11)"),   # 11a1
    ("0,0,1,-1,0", "37", "w_37 = +1 for curve [0, 0, 1, -1, 0] (N = 37)"),          # 37a1
])
def test_sign_of_a_curve_without_a_square_level(capsys, curve, q, line):
    # no odd p with p^2 || N: sign reads only the minimal model and N
    code = main(["sign", "--curve", curve, "--q", q, "--digits", "30"])
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
    (["sign", "--digits", "0"], "between 1 and 200"),
])
def test_bad_precision_and_torsion_bound_rejected(monkeypatch, capsys, argv, bound):
    monkeypatch.setattr("cmtrace.experiments.atkin_lehner_sign", _no_work)
    monkeypatch.setattr("cmtrace.modparam.atkin_lehner_sign", _no_work)
    extra = ["--q", "49"] if argv[0] == "sign" else ["--dk", "-11"]
    code = main([argv[0], "--curve", "1,-1,0,-2,-1", *extra, *argv[1:]])
    assert code == 1                  # an uncaught error would fail the test instead
    assert bound in capsys.readouterr().err


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
    def capped(*args, **kwargs):
        raise PrecisionError("precision capped at 200 digits")

    monkeypatch.setattr("cmtrace.experiments.period_lattice", capped)
    code = main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--digits", "20"])
    assert code == 1
    assert "error: precision capped" in capsys.readouterr().err


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


def test_finite_check_runs_with_mpmath_blocked():
    proc = _python(
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from cmtrace.cli import main\n"
        "sys.exit(main(['finite-check', '--p', '10009', '--dk', '-7']))\n")
    assert proc.returncode == 0, proc.stderr
    assert "5005 fibers of size 2" in proc.stdout


# the package's names before its analytic half became lazy
EXPORTS = (
    "Curve", "CurveModel", "an_coefficients", "conductor", "curve_model", "minimal_model",
    "EmbeddingData", "build_embedding", "find_common_norm_element", "lemma_converse_check",
    "signo_pairing_check", "two_to_one_check", "verify_optimal", "CmtraceError",
    "InputError", "ExperimentSpec", "FiniteReport", "TraceReport", "experiment_finite",
    "trace_point", "ArithmeticBoundError", "index_ns_plus", "HeegnerTau", "NoHeegnerPoint",
    "galois_orbit", "heegner_form", "atkin_lehner_sign", "eval_phi", "PeriodLattice",
    "elliptic_exp", "is_torsion", "period_lattice", "BinaryForm", "QuadOrder",
    "class_number", "kernel_classes", "order_data", "reduce_form", "reduced_forms",
    "AlgebraicNumber", "recognize_in_quadratic", "recognize_rational",
)


def test_every_export_resolves_to_its_defining_modules_object():
    # in a fresh interpreter, so that each analytic name resolves lazily
    proc = _python(
        "import sys, cmtrace\n"
        f"for name in {EXPORTS!r}:\n"
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
    assert failed_checks | {InputError, PrecisionError} <= classes
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
    # a K_Q point's value moved by 10^-12: 2520 K_Q misses the lattice by far
    # more than the budget, so no torsion point of Mazur's list fits it
    exact = modparam.eval_phi

    def perturbed(model, tau, digits):
        z = exact(model, tau, digits)
        return z + mp.mpf(10) ** -12 if digits == modparam.K_DIGITS else z

    monkeypatch.setattr(modparam, "eval_phi", perturbed)
    modparam.al_constant.cache_clear()
    spec = ExperimentSpec(dK=-11, f=1, curve=curve_model((1, -1, 0, -2, -1)), digits=30)
    with pytest.raises(AlConstantError, match="K_49"):
        trace_point(spec)
    assert main(["trace", "--curve", "1,-1,0,-2,-1", "--dk", "-11", "--digits", "30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: K_49 = ") and "Traceback" not in err


def _one_period_off(module, monkeypatch):
    nearest = module.nearest_vector
    monkeypatch.setattr(module, "nearest_vector",
                        lambda lat, z: (nearest(lat, z)[0] + 1, nearest(lat, z)[1]))


def test_a_fiber_mate_off_by_a_period_exits_3(monkeypatch, capsys):
    # a lattice vector one period off: the mate's value misses its
    # LAMBDA_DIGITS evaluation by a period, far above the budget
    _one_period_off(experiments, monkeypatch)
    assert main(["trace", "--curve", "0,-1,1,-7,10", "--dk", "-67", "--digits", "30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: orbit points ") and "Traceback" not in err


def test_a_constant_read_a_period_off_exits_3(monkeypatch, capsys):
    # 2520 K_Q read one period off the nearest vector misses its value by a
    # period, far above the budget
    _one_period_off(modparam, monkeypatch)
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

    monkeypatch.setattr(cli, "reduced_forms", buggy)
    with pytest.raises(ValueError, match="invalid literal"):
        main(["classgroup", "--disc", "-23"])

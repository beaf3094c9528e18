"""The catalogue replays its record (record_catalogue.py, catalogue.json):
every verdict, w_p, orbit size, constant, recognised point and residual
exactly, and the class of traceZ mod the period lattice within
10^-(digits-5) in each coordinate of the reduced basis, mod 1.  A residual
below 10^-(digits-5) is rounding noise, which a lattice vector added to
traceZ moves: there the replay asks only that it stay below."""

import json
from fractions import Fraction

import mpmath

from cmtrace import modparam, periods
from record_catalogue import RECORD, cases, key, summary


def _mod1_distance(a: str, b: str) -> Fraction:
    d = (Fraction(a) - Fraction(b)) % 1
    return min(d, 1 - d)


def _replays(record: dict, case) -> None:
    """The trace of case says what record holds for it (module docstring)."""
    want, got = record[key(case)], summary(case)
    digits = case[3]
    noise = 10.0 ** (5 - digits)
    if float(want["residual"]) < noise:
        assert float(got.pop("residual")) < noise, key(case)
        want.pop("residual")
    for a, b in zip(want.pop("traceZ"), got.pop("traceZ")):
        assert _mod1_distance(a, b) <= Fraction(1, 10 ** (digits - 5)), (key(case), a, b)
    assert got == want, key(case)


def test_the_catalogue_replays_its_record():
    record = json.loads(RECORD.read_text())
    todo = cases()
    assert len(todo) == len(record) == 272
    for case in todo:
        _replays(record, case)


def test_a_trace_replays_with_mpmaths_agm_newton_and_complex_exp_blocked(monkeypatch):
    # the periods come from integers (no mpmath.agm, no mpf Newton steps) and
    # so does each q (no mpc_exp, which modparam no longer imports): 121b1/-67
    # at 60 and 200 digits and 50b1/-7/3 at 200, with cold lattices, still
    # give their record.  50b1/-7/3 recognises no point, so it runs with
    # libmp's exp, cos-sin and pi blocked too, periods' own mpf_pi included:
    # every q and the lattice's pi come from cmtrace.elementary.  121b1/-67 recognises a point through
    # periods._wp_pair, whose theta series still take them from mpmath.
    def blocked(*args, **kwargs):
        raise AssertionError("the trace took an mpmath route it should not")

    assert not hasattr(modparam, "mpc_exp")
    for module, name in ((mpmath, "agm"), (mpmath.libmp, "mpc_exp"),
                         (mpmath.libmp.libmpc, "mpc_exp")):
        monkeypatch.setattr(module, name, blocked)
    periods.period_lattice.cache_clear()
    modparam.al_constant.cache_clear()
    record = json.loads(RECORD.read_text())
    todo = {key(case): case for case in cases()}
    for name in ("0,-1,1,-7,10/-67/1@60", "0,-1,1,-7,10/-67/1@200"):
        _replays(record, todo[name])
    for module in (mpmath.libmp, mpmath.libmp.libelefun):
        for name in ("mpf_exp", "mpf_cos_sin", "mpf_pi"):
            monkeypatch.setattr(module, name, blocked)
    monkeypatch.setattr(periods, "mpf_pi", blocked)             # _wp_pair's, imported by name
    _replays(record, todo["1,1,1,-3,1/-7/3@200"])

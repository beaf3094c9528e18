"""The catalogue replays its record (record_catalogue.py, catalogue.json):
every verdict, w_p, orbit size, constant, recognised point and residual
exactly, and the class of traceZ mod the period lattice within
10^-(digits-5) in each coordinate of the reduced basis, mod 1.  A residual
below 10^-(digits-5) is rounding noise, which a lattice vector added to
traceZ moves: there the replay asks only that it stay below."""

import json
from fractions import Fraction

from record_catalogue import RECORD, cases, key, summary


def _mod1_distance(a: str, b: str) -> Fraction:
    d = (Fraction(a) - Fraction(b)) % 1
    return min(d, 1 - d)


def test_the_catalogue_replays_its_record():
    record = json.loads(RECORD.read_text())
    todo = cases()
    assert len(todo) == len(record) == 272
    for case in todo:
        want, got = record[key(case)], summary(case)
        digits = case[3]
        noise = 10.0 ** (5 - digits)
        if float(want["residual"]) < noise:
            assert float(got.pop("residual")) < noise, key(case)
            want.pop("residual")
        for a, b in zip(want.pop("traceZ"), got.pop("traceZ")):
            assert _mod1_distance(a, b) <= Fraction(1, 10 ** (digits - 5)), (key(case), a, b)
        assert got == want, key(case)

"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  Tolerances are fixed here, not tuned elsewhere.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time

import mpmath as mp
import pytest
from sympy import primerange

from cmtrace.curves import curve_model
from cmtrace.embeddings import build_embedding, find_common_norm_element, two_to_one_check, verify_optimal
from cmtrace.experiments import ExperimentSpec, trace_point
from cmtrace.fp import FpParams, index_ns_plus, kronecker
from cmtrace.heegner import NoHeegnerPoint, heegner_form
from cmtrace.periods import period_lattice
from cmtrace.projline import ProjParams, involution_class, proj_class, proj_elements, proj_mul
from cmtrace.quadforms import (BinaryForm, is_fundamental_discriminant, kernel_classes, order_data,
                               proj_params)
from oracles import index_ns_plus_by_enumeration, lattice_distance

CURVE_RANK0_49 = (1, -1, 0, -2, -1)
CURVE_RANK1_121 = (0, -1, 1, -7, 10)


@pytest.fixture(scope="module")
def trace_reports():
    """Criteria 5, 6 and 9 share these four runs."""
    m49 = curve_model(CURVE_RANK0_49)
    m121 = curve_model(CURVE_RANK1_121)
    out = {}
    t0 = time.perf_counter()
    out["49@60"] = trace_point(ExperimentSpec(dK=-11, f=1, curve=m49, digits=60,
                                              mode="signo_minus"))
    out["t49"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    out["121@60"] = trace_point(ExperimentSpec(dK=-67, f=1, curve=m121, digits=60,
                                               mode="main_plus"))
    out["t121"] = time.perf_counter() - t0
    out["49@120"] = trace_point(ExperimentSpec(dK=-11, f=1, curve=m49, digits=120,
                                               mode="signo_minus"))
    out["121@120"] = trace_point(ExperimentSpec(dK=-67, f=1, curve=m121, digits=120,
                                                mode="main_plus"))
    return out


def test_criterion_1_projective_group_law():
    start = time.perf_counter()
    rng = random.Random(20260809)
    for p in primerange(3, 98):
        seen = 0
        while seen < 20:
            t, n = rng.randrange(p), rng.randrange(p)
            if kronecker(t * t - 4 * n, p) != -1:
                continue
            seen += 1
            params = ProjParams(p, t, n)
            els = proj_elements(p)
            index = {u: i for i, u in enumerate(els)}
            table = {}
            # exhaustive match against multiplication in F_p[X]/(X^2 - tX + n),
            # which proves the group axioms outright
            for u in els:
                for v in els:
                    w = proj_mul(params, u, v)
                    z1 = (u.x1 * v.x1 - n * u.x2 * v.x2) % p
                    z2 = (u.x1 * v.x2 + u.x2 * v.x1 + t * u.x2 * v.x2) % p
                    assert w == proj_class(p, z1, z2)
                    table[index[u], index[v]] = index[w]
            # element-order census: cyclic of order p+1, single involution
            one = index[proj_class(p, 1, 0)]
            orders = []
            for i in range(len(els)):
                k, j = 1, i
                while j != one:
                    j = table[j, i]
                    k += 1
                orders.append(k)
            assert len(els) == p + 1
            assert max(orders) == p + 1
            twos = [els[i] for i, o in enumerate(orders) if o == 2]
            assert twos == [involution_class(params, t * pow(2, -1, p) % p)]
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"\nPASS criterion 1: P^1(F_p) group law exhaustive for p <= 97, "
          f"20 random (t, n) each; cyclic of order p+1, unique involution "
          f"[-a : 1]  ({elapsed:.1f}s)")


def test_criterion_2_index_formula():
    start = time.perf_counter()
    for p in (5, 7, 11, 13, 17, 19):
        assert index_ns_plus_by_enumeration(FpParams(p)) == (p + 1) // 2
        assert index_ns_plus(FpParams(p)) == (p + 1) // 2
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"\nPASS criterion 2: [C_ns+ : C_ns+ cap C_s+] = (p+1)/2 for "
          f"p in 5..19 by enumeration  ({elapsed:.1f}s)")


def test_criterion_3_optimal_embeddings():
    rng = random.Random(31337)
    fundamentals = [d for d in range(-150, -4) if is_fundamental_discriminant(d)]
    primes = list(primerange(3, 32))
    done = 0
    while done < 20:
        dK = rng.choice(fundamentals)
        f = rng.choice([1, 1, 2, 3, 5])
        p = rng.choice(primes)
        if kronecker(dK, p) != -1 or f % p == 0:
            continue
        order = order_data(dK, f)
        emb = build_embedding(FpParams(p), order)
        assert verify_optimal(emb)
        assert emb.iota_omega.charpoly_coeffs() == (order.t % p, order.n % p)
        done += 1
    print("\nPASS criterion 3: verify_optimal and exact charpoly for 20 random "
          "inert (dK, f, p), p <= 31")


def test_criterion_4_two_to_one():
    start = time.perf_counter()
    cases = {5: (-7, -23, -43), 7: (-11, -15, -23), 11: (-67, -20, -23), 13: (-7, -11, -19)}
    for p, dks in cases.items():
        params = FpParams(p)
        for dK in dks:
            order = order_data(dK, 1)
            emb = build_embedding(params, order)
            kernel = kernel_classes(order, p)
            fibers = two_to_one_check(emb, kernel)
            assert len(fibers) == (p + 1) // 2
            assert all(len(v) == 2 for v in fibers.values())
            pp = proj_params(order, p)
            invol = involution_class(pp, emb.iota_omega.a)
            for u, v in fibers.values():
                assert proj_mul(pp, u, invol) == v
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"\nPASS criterion 4: (p+1)/2 fibers of size 2 paired by the "
          f"involution, p in 5,7,11,13 x 3 orders  ({elapsed:.1f}s)")


def test_criterion_5_sign_minus_vanishing(trace_reports):
    rep = trace_reports["49@60"]
    assert rep.wp == -1
    assert rep.spec.curve.n == 49
    assert len(rep.orbit) == 8
    assert rep.verdict == "torsion"
    assert rep.residual < mp.mpf(10) ** -30
    assert trace_reports["t49"] < 120
    print(f"\nPASS criterion 5: conductor-49 rank-0 curve, K = Q(sqrt(-11)), "
          f"w_p = -1; 8-point trace torsion, residual {mp.nstr(rep.residual, 3)} "
          f"< 1e-30  ({trace_reports['t49']:.1f}s)")


def test_criterion_6_sign_plus_nonvanishing(trace_reports):
    rep = trace_reports["121@60"]
    assert rep.wp == 1
    assert rep.spec.curve.n == 121
    assert len(rep.orbit) == 12
    assert rep.verdict == "non_torsion"
    rx, ry = rep.recognized
    assert rx.field_disc == -67 and ry.field_disc == -67
    # exact coordinates, exactly on the curve (checked inside trace_point too)
    assert (rx.nu, rx.mu, rx.den) == (-2, 0, 1)
    assert (ry.nu, ry.mu, ry.den) == (3, 0, 1)
    # stability under precision doubling
    rep2 = trace_reports["121@120"]
    assert rep2.verdict == "non_torsion"
    assert rep2.recognized == (rx, ry)
    assert trace_reports["t121"] < 300
    print(f"\nPASS criterion 6: conductor-121 rank-1 curve, K = Q(sqrt(-67)), "
          f"w_p = +1; 12-point trace non-torsion, recognized exactly as "
          f"({rx.nu}, {ry.nu}) in E(Q(sqrt(-67))), stable at 120 digits "
          f"({trace_reports['t121']:.1f}s)")


def test_criterion_7_conductor_one_obstruction():
    with pytest.raises(NoHeegnerPoint):
        heegner_form(49, -11, 1)
    form = heegner_form(49, -11, 7)
    assert form == BinaryForm(49, 49, 15)
    assert form.a == 49 and form.disc() == -539 and form.is_primitive()
    print("\nPASS criterion 7: no conductor-1 form at level 49 for dK = -11; "
          "conductor-7 form exists")


def test_criterion_8_common_norm_elements():
    start = time.perf_counter()
    for p in primerange(3, 98):
        params = FpParams(p)
        for ell in range(1, p):
            m = find_common_norm_element(params, ell)
            assert m.det() == ell
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    print(f"\nPASS criterion 8: common-norm element exists for every unit "
          f"determinant, all p <= 97  ({elapsed:.1f}s)")


def test_criterion_9_precision_stability(trace_reports):
    tol = mp.mpf(10) ** -30
    for label, curve_ai in (("49", CURVE_RANK0_49), ("121", CURVE_RANK1_121)):
        lo = trace_reports[f"{label}@60"]
        hi = trace_reports[f"{label}@120"]
        assert lo.wp == hi.wp
        assert lo.verdict == hi.verdict
        model = curve_model(curve_ai)
        lat = period_lattice(model.minimal, 120)
        lat_lo = period_lattice(model.minimal, 60)
        with mp.workdps(140):
            assert abs(mp.mpc(lat_lo.w1) - mp.mpc(lat.w1)) < tol
            assert abs(mp.mpc(lat_lo.w2) - mp.mpc(lat.w2)) < tol
            assert lattice_distance(lat, mp.mpc(hi.trace_z) - mp.mpc(lo.trace_z)) < tol
        assert abs(mp.mpf(hi.residual) - mp.mpf(lo.residual)) < tol or (
            lo.verdict == "non_torsion")
    print("\nPASS criterion 9: signs, periods, traces and residuals of "
          "criteria 5-6 reproduce at 120 digits within 1e-30")

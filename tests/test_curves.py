import random
from collections import Counter
from math import isqrt

import numpy as np
import pytest
from sympy import factorint, primerange

from cmtrace import curves, sieve
from cmtrace.curves import (AN_BOUND, Curve, an_coefficients, coefficient_tables, conductor,
                            curve_from_c4c6, curve_model, minimal_model, tate_local, transform)
from cmtrace.sieve import ap_good
from cmtrace.fp import kronecker
from oracles import ap_char_sum_reduced, walk_unit_rows_by_term

# 49a1, 121b1, 50a1, 50b1 and 36a1: the curves of the benchmark catalogue.
CATALOGUE_CURVES = [Curve(1, -1, 0, -2, -1), Curve(0, -1, 1, -7, 10), Curve(1, 0, 1, -1, -2),
                    Curve(1, 1, 1, -3, 1), Curve(0, 0, 0, 0, 1)]


def brute_count(cur: Curve, ell: int) -> int:
    """#E(F_ell): the point at infinity plus every (x, y) on the long model."""
    a1, a2, a3, a4, a6 = (a % ell for a in cur.ainvs)
    x = np.arange(ell, dtype=np.int64)[:, None]
    y = np.arange(ell, dtype=np.int64)[None, :]
    lhs = y * y + a1 * x * y + a3 * y
    rhs = ((x + a2) * x + a4) * x + a6
    return 1 + int(((lhs - rhs) % ell == 0).sum())


def smooth_count(cur: Curve, ell: int) -> int:
    """Points of the reduced curve minus singular points (bad reduction oracle)."""
    a1, a2, a3, a4, a6 = cur.ainvs
    count = 1
    for x in range(ell):
        for y in range(ell):
            on = (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % ell == 0
            if not on:
                continue
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % ell == 0
            fy = (2 * y + a1 * x + a3) % ell == 0
            if not (fx and fy):
                count += 1
    return count


def test_invariant_identities():
    rng = random.Random(3)
    for _ in range(200):
        try:
            cur = Curve(rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4),
                        rng.randrange(-8, 9), rng.randrange(-8, 9))
        except ValueError:
            continue
        assert 1728 * cur.disc == cur.c4 ** 3 - cur.c6 ** 2
        assert 4 * cur.b8 == cur.b2 * cur.b6 - cur.b4 ** 2


def test_transform_preserves_invariants():
    rng = random.Random(4)
    cur = Curve(1, -1, 0, -2, -1)
    for _ in range(50):
        r, s, t = rng.randrange(-4, 5), rng.randrange(-4, 5), rng.randrange(-4, 5)
        out = transform(cur, r, s, t)
        assert (out.c4, out.c6, out.disc) == (cur.c4, cur.c6, cur.disc)


def test_curve_from_c4c6_roundtrip():
    for ai in [(0, 0, 1, -1, 0), (1, -1, 0, -2, -1), (0, -1, 1, -7, 10), (0, 0, 0, -1, 0)]:
        cur = Curve(*ai)
        back = curve_from_c4c6(cur.c4, cur.c6)
        assert back is not None and back.ainvs == ai


def test_minimal_model_battery():
    minimal_curves = [(0, 0, 1, -1, 0), (0, -1, 1, -10, -20), (1, -1, 0, -2, -1),
                      (0, -1, 1, -7, 10), (0, 0, 0, -1, 0)]
    for ai in minimal_curves:
        assert minimal_model(Curve(*ai)).ainvs == ai
    # u = 2 and u = 6 rescalings come back down
    base = Curve(0, 0, 0, -1, 0)
    assert minimal_model(Curve(0, 0, 0, -16, 0)).ainvs == base.ainvs
    assert minimal_model(Curve(0, 0, 0, -1 * 6 ** 4, 0)).ainvs == base.ainvs


CONDUCTOR_BATTERY = [
    ((0, 0, 1, -1, 0), 37),
    ((0, -1, 1, -10, -20), 11),
    ((1, -1, 0, -2, -1), 49),
    ((0, 0, 0, -1, 0), 32),
    ((0, 0, 0, 4, 0), 32),
    ((0, 0, 0, 0, 1), 36),
    ((0, 0, 1, 0, -7), 27),
    ((0, -1, 1, -7, 10), 121),
    ((1, 0, 1, 4, -6), 14),
    ((1, 1, 1, -10, -10), 15),
    ((0, 0, 0, 0, 16), 27),
    ((0, 0, 0, 0, -1), 144),
    ((0, 0, 0, -16, 0), 32),       # non-minimal model of the 32 curve
]


@pytest.mark.parametrize("ai,n", CONDUCTOR_BATTERY)
def test_conductors(ai, n):
    assert conductor(Curve(*ai)) == n


def _components(kodaira: str) -> int:
    """The number m of components of the special fibre of a Kodaira type, the
    m of Ogg's formula f = v(disc) + 1 - m: I_n has n (I0 one), II, III and
    IV have 1, 2 and 3, I_n* has 5 + n, and IV*, III* and II* have 7, 8, 9."""
    fixed = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}
    if kodaira in fixed:
        return fixed[kodaira]
    n = int(kodaira[1:].rstrip("*"))
    return 5 + n if kodaira.endswith("*") else max(1, n)


def _assert_kodaira(ai, q, kodaira, v_disc, reduction):
    """Tate's data at q is that of the Kodaira type: f through Ogg's formula."""
    loc = tate_local(minimal_model(Curve(*ai)), q)
    assert (loc.v_disc, loc.f, loc.reduction) == (v_disc, v_disc + 1 - _components(kodaira),
                                                  reduction), (ai, q, kodaira)


def test_kodaira_types():
    _assert_kodaira((0, 0, 1, 0, -7), 3, "IV*", 9, "additive")
    _assert_kodaira((0, 0, 0, -1, 0), 2, "III", 6, "additive")
    _assert_kodaira((0, 0, 0, 4, 0), 2, "I3*", 12, "additive")
    _assert_kodaira((0, 0, 0, 0, 1), 2, "IV", 4, "additive")
    _assert_kodaira((0, 0, 0, 0, 1), 3, "III", 3, "additive")
    _assert_kodaira((1, -1, 0, -2, -1), 7, "III", 3, "additive")
    _assert_kodaira((0, -1, 1, -10, -20), 11, "I5", 5, "split")
    _assert_kodaira((0, 0, 1, -1, 0), 5, "I0", 0, "good")


@pytest.mark.parametrize("ai,kodaira", [
    ((1, 0, 1, -1, -2), "IV"),                # 50a1: v(c4) = 2, v(disc) = 4, potentially good
    ((1, 0, 1, -251, -727), "I4*"),           # 15a1 twisted by 5: v(c4) = 2, v(disc) = 10
])
def test_tame_kodaira_at_five_reads_v_c4_against_v_disc(ai, kodaira):
    # tame additive reduction has f = 2 whichever the type: Ogg's formula
    # gives it from v(disc) = 4 with IV's 3 components and from 10 with I4*'s 9
    _assert_kodaira(ai, 5, kodaira, {"IV": 4, "I4*": 10}[kodaira], "additive")


def test_bad_reduction_split_oracle():
    # split <=> ell - 1 smooth points, nonsplit <=> ell + 1, additive <=> ell
    for ai in [(0, -1, 1, -10, -20), (1, 0, 1, 4, -6), (1, 1, 1, -10, -10)]:
        cur = minimal_model(Curve(*ai))
        for ell in primerange(2, 40):
            if cur.disc % ell:
                continue
            loc = tate_local(cur, ell)
            sm = smooth_count(cur, ell)
            expected = {"split": ell - 1, "nonsplit": ell + 1, "additive": ell}
            assert sm == expected[loc.reduction], (ai, ell, loc)


def test_ap_matches_brute_force():
    for cur in [Curve(0, 0, 1, -1, 0)] + CATALOGUE_CURVES:
        for ell in primerange(2, 108):
            if cur.disc % ell == 0:
                continue
            assert ap_good(cur, ell) == ell + 1 - brute_count(cur, ell), (cur, ell)


def test_ap_matches_reduced_char_sum():
    rng = random.Random(8)
    primes = list(primerange(60, 2 * 10 ** 5))
    # The two largest primes below AN_BOUND test int64 exactness at the cap.
    ells = rng.sample(primes, 50) + [999979, 999983]
    for cur in CATALOGUE_CURVES:
        for ell in ells:
            if cur.disc % ell:
                assert ap_good(cur, ell) == ap_char_sum_reduced(cur, ell), (cur, ell)


@pytest.mark.parametrize("bound", [5000, 71 ** 2])
def test_smallest_prime_factors(bound):
    spf = sieve._smallest_prime_factors(bound)
    assert spf[:2] == [0, 1]
    assert all(spf[n] == min(factorint(n)) for n in range(2, bound + 1))


def test_an_coefficients_structure():
    cur = Curve(0, 0, 0, -1, 0)
    a = an_coefficients(cur, 100)
    assert a[1] == 1
    assert a[5] == -2                       # 8 points over F_5
    cur37 = Curve(0, 0, 1, -1, 0)
    a37 = an_coefficients(cur37, 200)
    assert a37[2] == -2 and a37[3] == -3 and a37[5] == -2 and a37[7] == -1
    assert a37[37] == -1                    # nonsplit multiplicative (38 smooth points)
    # Hecke multiplicativity and the prime-power recursion
    assert a37[6] == a37[2] * a37[3]
    assert a37[4] == a37[2] ** 2 - 2
    assert a37[8] == a37[2] * a37[4] - 2 * a37[2]
    assert a37[45] == a37[9] * a37[5]
    a11 = an_coefficients(Curve(0, -1, 1, -10, -20), 130)
    assert a11[11] == 1 and a11[121] == 1   # split: a_{p^k} = 1


def test_hasse_bound():
    cur = minimal_model(Curve(1, -1, 0, -2, -1))
    a = an_coefficients(cur, 10 ** 4)
    for ell in primerange(2, 10 ** 4 + 1):
        if 49 % ell == 0:
            continue
        assert a[ell] ** 2 <= 4 * ell


def test_an_bound_cap():
    with pytest.raises(ValueError):
        an_coefficients(Curve(0, 0, 1, -1, 0), AN_BOUND + 1)
    with pytest.raises(ValueError):
        ap_good(Curve(0, 0, 1, -1, 0), 1000003)       # first prime above the cap


def test_curve_model():
    m = curve_model((1, -1, 0, -2, -1))
    assert (m.n, m.p, m.m) == (49, 7, 1)
    m = curve_model((0, -1, 1, -7, 10))
    assert (m.n, m.p, m.m) == (121, 11, 1)
    with pytest.raises(ValueError):
        curve_model((0, 0, 1, -1, 0))           # conductor 37 has no odd square
    with pytest.raises(ValueError):
        curve_model((1, -1, 0, -2, -1), p=5)


@pytest.mark.parametrize("bounds", [
    (8, 120, 3000),                        # ascending; 9 and 121 start extensions
    (3000, 200, 10),                       # descending
    (50, 2000, 7, 900, 2186, 120, 3000),   # interleaved; 3^7 starts one
    (24, 26, 124, 126, 624, 626),          # each side of 25, 125 and 625
])
def test_an_cache_extension_matches_fresh_sieve(monkeypatch, bounds):
    # 121b1 (a_n from the Hecke character) and 50a1 (point-counted, bad at 2
    # and 5): each extension starts the one pass at a prime power or past one
    for ainvs in ((0, -1, 1, -7, 10), (1, 0, 1, -1, -2)):
        cur = minimal_model(Curve(*ainvs))
        monkeypatch.setattr(curves, "_an_cache", {})
        fresh = an_coefficients(cur, max(bounds))
        monkeypatch.setattr(curves, "_an_cache", {})
        for bound in bounds:
            assert an_coefficients(cur, bound) == fresh[: bound + 1]
        assert an_coefficients(cur, max(bounds)) == fresh


@pytest.mark.parametrize("ai", [(0, -1, 1, -7, 10), (1, 1, 1, -3, 1), (0, 0, 0, 0, 1)])
def test_tables_extended_with_the_list_equal_one_fresh_build(monkeypatch, ai):
    # 121b1 (sparse), 50b1 (dense) and 36a1: the pairs of the n with a_n != 0
    # from n = 1 up, each (a_n1 n2, a_n2 n1, n1 n2), an odd count's last n as
    # the half pair (a_n, 0, n), and a_n / n by n, whether the list grew
    # 500 -> 5000 -> 15000 or was built at once
    cur = minimal_model(Curve(*ai))
    monkeypatch.setattr(curves, "_an_cache", {})
    a = an_coefficients(cur, 15000)
    fresh = [table.tolist() for table in coefficient_tables(cur)]
    nonzero = [n for n in range(1, 15001) if a[n]]
    pairs = [x for n1, n2 in zip(nonzero[::2], nonzero[1::2])
             for x in (a[n1] * n2, a[n2] * n1, n1 * n2)]
    if len(nonzero) % 2:
        pairs += [a[nonzero[-1]], 0, nonzero[-1]]
    assert fresh == [pairs, [a[n] / n for n in nonzero]]
    for bounds in ((500, 5000, 15000), (2, 3, 4, 5, 6, 7, 15000)):
        monkeypatch.setattr(curves, "_an_cache", {})
        for bound in bounds:
            an_coefficients(cur, bound)
        assert [table.tolist() for table in coefficient_tables(cur)] == fresh, bounds


def point_count_route(monkeypatch, cur: Curve, bound: int) -> list[int]:
    """a[0..bound] with the CM field hidden, so that every good a_ell is
    point-counted, each one from 5 on once by _ap_count; the a_n cache is
    left empty."""
    counted = []
    count = sieve._ap_count

    def counting(cur, ell):
        counted.append(ell)
        return count(cur, ell)

    monkeypatch.setattr(curves, "_an_cache", {})
    with monkeypatch.context() as patch:
        patch.setattr(curves.Curve, "cm_disc", 0)
        patch.setattr(sieve, "_ap_count", counting)
        m = minimal_model(cur)
        assert m.cm_disc == 0
        a = an_coefficients(cur, bound)
    monkeypatch.setattr(curves, "_an_cache", {})
    assert counted == [ell for ell in primerange(5, bound + 1) if m.disc % ell]
    return a


def test_ap_good_counted_once_per_prime(monkeypatch):
    counts = Counter()
    good, count = sieve.ap_good, sieve._ap_count

    def counting_good(cur, ell):
        counts["ap_good", cur.ainvs, ell] += 1
        return good(cur, ell)

    def counting_count(cur, ell):
        counts["count", cur.ainvs, ell] += 1
        return count(cur, ell)

    monkeypatch.setattr(sieve, "ap_good", counting_good)
    monkeypatch.setattr(sieve, "_ap_count", counting_count)
    monkeypatch.setattr(curves, "_an_cache", {})
    bounds = (100, 50, 1000, 999, 4000, 1000, 4001)
    # 49a1 and 121b1 have conductor d^2: no point count, the Hecke character
    for ai in ((1, -1, 0, -2, -1), (0, -1, 1, -7, 10)):
        for bound in bounds:
            an_coefficients(Curve(*ai), bound)
    assert not counts
    for ai in ((1, -1, 0, -2, -1), (0, -1, 1, -7, 10)):
        hecke = an_coefficients(Curve(*ai), 4001)
        assert hecke == point_count_route(monkeypatch, Curve(*ai), 4001)
    # 11a1 has no CM: every good prime is point-counted, once
    counts.clear()
    monkeypatch.setattr(curves, "_an_cache", {})
    cur = Curve(0, -1, 1, -10, -20)
    for bound in bounds:
        an_coefficients(cur, bound)
    assert sorted(ell for (kind, _, ell) in counts if kind == "ap_good") == [
        ell for ell in primerange(2, 4002) if ell != 11]
    assert sorted(ell for (kind, _, ell) in counts if kind == "count") == [
        ell for ell in primerange(5, 4002) if ell != 11]
    assert set(counts.values()) == {1}


def test_an_cache_hit_skips_minimal_model_and_models_share_one_list(monkeypatch):
    calls = []
    minimal = curves.minimal_model

    def counting(cur):
        calls.append(cur.ainvs)
        return minimal(cur)

    monkeypatch.setattr(curves, "minimal_model", counting)
    monkeypatch.setattr(curves, "_an_cache", {})
    base, scaled = Curve(0, 0, 0, -1, 0), Curve(0, 0, 0, -16, 0)     # scaled: u = 2
    a = an_coefficients(base, 300)
    for bound in (300, 50, 1000, 7):
        an_coefficients(base, bound)
    assert calls == [base.ainvs]
    assert an_coefficients(scaled, 1000) == an_coefficients(base, 1000)
    assert calls == [base.ainvs, scaled.ainvs]
    assert curves._an_cache[scaled.ainvs] is curves._an_cache[base.ainvs]
    an_coefficients(scaled, 2000)
    assert calls == [base.ainvs, scaled.ainvs]
    assert an_coefficients(base, 2000)[:301] == a


# One curve for each of the 13 rational CM j-invariants, by the fundamental
# discriminant of its CM field: 36a1, 36a2, 27a2 (j = 0, 54000, -12288000),
# 32a2, 32a3, 49a1, 49a2, 256a1, 121b1, 361a1, 1849a1, 4489a1 and 26569a1.
CM_CURVES = [
    ((0, 0, 0, 0, 1), -3), ((0, 0, 0, -15, 22), -3), ((0, 0, 1, -270, -1708), -3),
    ((0, 0, 0, -1, 0), -4), ((0, 0, 0, -11, -14), -4),
    ((1, -1, 0, -2, -1), -7), ((1, -1, 0, -37, -78), -7),
    ((0, 1, 0, -3, 1), -8),
    ((0, -1, 1, -7, 10), -11),
    ((0, 0, 1, -38, 90), -19),
    ((0, 0, 1, -860, 9707), -43),
    ((0, 0, 1, -7370, 243528), -67),
    ((0, 0, 1, -2174420, 1234136692), -163),
]


def quadratic_twist(cur: Curve, d: int) -> Curve:
    """Minimal model of the twist by Q(sqrt d): (c4, c6) -> (d^2 c4, d^3 c6)."""
    return minimal_model(Curve(0, 0, 0, -27 * d * d * cur.c4, -54 * d ** 3 * cur.c6))


CM_TWISTS = [(quadratic_twist(Curve(1, -1, 0, -2, -1), -1), -7),       # 49a1 by Q(i)
             (quadratic_twist(Curve(0, -1, 1, -7, 10), 5), -11)]       # 121b1 by Q(sqrt 5)
CM_CASES = [(Curve(*ai), d) for ai, d in CM_CURVES] + CM_TWISTS


def test_cm_disc_reads_the_cm_field_off_j():
    assert len({Curve(*ai).c4 ** 3 // Curve(*ai).disc for ai, _ in CM_CURVES}) == 13
    for cur, d in CM_CASES:
        assert cur.cm_disc == d, cur
    for ai in [(0, -1, 1, -10, -20), (0, 0, 1, -1, 0), (1, 0, 1, -1, -2), (1, 1, 1, -3, 1)]:
        assert Curve(*ai).cm_disc == 0, ai                     # 11a1, 37a1, 50a1, 50b1


@pytest.mark.parametrize("cur,d", CM_CASES)
def test_cm_shortcut_matches_point_counts(monkeypatch, cur, d):
    counted = []
    count = sieve._ap_count

    def counting(cur, ell):
        counted.append(ell)
        return count(cur, ell)

    monkeypatch.setattr(sieve, "_ap_count", counting)
    for ell in primerange(2, 300):
        if cur.disc % ell:
            assert ap_good(cur, ell) == ell + 1 - brute_count(cur, ell), (cur, ell)
    rng = random.Random(d)
    for ell in rng.sample(list(primerange(300, 2 * 10 ** 5)), 20):
        if cur.disc % ell:
            assert ap_good(cur, ell) == ap_char_sum_reduced(cur, ell), (cur, ell)
    # no count at a prime inert in the CM field, one at every other prime >= 5
    assert all(kronecker(d, ell) != -1 for ell in counted)
    assert [ell for ell in counted if ell < 300] == [
        ell for ell in primerange(5, 300) if cur.disc % ell and kronecker(d, ell) != -1]


@pytest.mark.parametrize("cur", CATALOGUE_CURVES)
def test_an_coefficients_unchanged_without_cm_shortcut(monkeypatch, cur):
    monkeypatch.setattr(curves, "_an_cache", {})
    fast = an_coefficients(cur, 20000)
    monkeypatch.setattr(curves, "_an_cache", {})
    monkeypatch.setattr(curves.Curve, "cm_disc", 0)
    assert minimal_model(cur).cm_disc == 0
    assert an_coefficients(cur, 20000) == fast


# The conductor-d^2 CM curves, d odd and below -3: 49a1, 49a2, 121b1, 361a1,
# 1849a1, 4489a1 and 26569a1.  Their a_n come from the walk with the
# Legendre symbol.
HECKE_CURVES = [(ai, d) for ai, d in CM_CURVES if d % 2 and d < -3]
# The curves whose units fill (O_K / f)^x: 36a1 (d = -3, f = 2 sqrt -3),
# 27a1 and 27a3 (d = -3, f = 3), 32a1 and 32a2 (d = -4, f = (1 + i)^3).
UNIT_CURVES = [((0, 0, 0, 0, 1), -3), ((0, 0, 1, 0, -7), -3), ((0, 0, 1, 0, 0), -3),
               ((0, 0, 0, 4, 0), -4), ((0, 0, 0, -1, 0), -4)]


def _walk_rows(cur: Curve):
    m = minimal_model(cur)
    return sieve._hecke_rows(m, {q: tate_local(m, q) for q in factorint(abs(m.disc))})


@pytest.mark.parametrize("ai,d", HECKE_CURVES + UNIT_CURVES)
def test_hecke_route_matches_char_sum_route(monkeypatch, ai, d):
    # the walk over O_K, cold and extended from a third of the bound, against
    # the point count of every good prime
    cur = Curve(*ai)
    assert minimal_model(cur).cm_disc == d and _walk_rows(cur)
    slow = ai not in ((1, -1, 0, -2, -1), (0, -1, 1, -7, 10)) and d < -4
    bound = 5000 if slow else 20000
    monkeypatch.setattr(curves, "_an_cache", {})
    hecke = an_coefficients(cur, bound)
    monkeypatch.setattr(curves, "_an_cache", {})
    an_coefficients(cur, bound // 3)
    assert an_coefficients(cur, bound) == hecke
    assert hecke == point_count_route(monkeypatch, cur, bound)


@pytest.mark.parametrize("ai,d", [c for c in UNIT_CURVES if c[0] != (0, 0, 0, 4, 0)])
def test_the_walk_reads_the_unit_rows_as_the_term_by_term_walk(ai, d):
    # the unit rows by slices of the tables of +t and -t, against the old
    # loop over each term, to 20,000 terms from a = [0, 1] in one extension
    # and in extensions split at 1, 700 and 9,000
    rows, bound = _walk_rows(Curve(*ai)), 20000
    want = [0, 1] + [0] * (bound - 1)
    walk_unit_rows_by_term(want, d, rows, 1, bound)
    got = [0, 1] + [0] * (bound - 1)
    sieve._walk(got, d, rows, 1, bound)
    assert got == want
    got = [0, 1]
    for old, new in ((1, 700), (700, 9000), (9000, bound)):
        got += [0] * (new - old)
        sieve._walk(got, d, rows, old, new)
    assert got == want


def test_hecke_route_not_taken(monkeypatch):
    e49 = Curve(1, -1, 0, -2, -1)
    twist = quadratic_twist(e49, 5)       # c4, c6 -> 25 c4, 125 c6, up to scaling
    assert (twist.cm_disc, conductor(twist)) == (-7, 1225)
    # 50a1 (no CM), the twist (conductor 5^2 7^2), y^2 = x^3 + x (d = -4 at
    # conductor 64, two characters) and y^2 = x^3 + 2 (d = -3 at 1728)
    others = (Curve(1, 0, 1, -1, -2), twist, Curve(0, 0, 0, 1, 0), Curve(0, 0, 0, 0, 2))
    assert [conductor(cur) for cur in others[2:]] == [64, 1728]
    for cur in others:
        assert _walk_rows(cur) is None
    counted = []
    good = sieve.ap_good

    def counting(cur, ell):
        counted.append(ell)
        return good(cur, ell)

    monkeypatch.setattr(sieve, "ap_good", counting)
    for cur in others[1:]:
        monkeypatch.setattr(curves, "_an_cache", {})
        del counted[:]
        a = an_coefficients(cur, 2000)
        bad = {q for q in (2, 3, 5, 7) if conductor(cur) % q == 0}
        assert counted == [ell for ell in primerange(2, 2001) if ell not in bad]
    monkeypatch.setattr(curves, "_an_cache", {})
    a = an_coefficients(twist, 2000)
    a49 = an_coefficients(e49, 2000)
    for ell in primerange(2, 2001):
        if ell not in (5, 7):
            assert a[ell] == kronecker(ell, 5) * a49[ell], ell


# 11a1, 37a1 and 5077a1 (rank 0, 1 and 3) beside the catalogue.
ORACLE_CURVES = CATALOGUE_CURVES + [Curve(0, -1, 1, -10, -20), Curve(0, 0, 1, -1, 0),
                                    Curve(0, 0, 1, -7, 6)]


@pytest.mark.parametrize("cur,bound,hide_cm", [(cur, 5000, False) for cur in ORACLE_CURVES] + [
    (Curve(1, 1, 1, -3, 1), 20000, False),          # 50b1
    (Curve(0, 0, 0, 0, 1), 20000, True),            # 36a1, its inert primes counted too
])
def test_ap_good_matches_char_sum_at_every_good_prime(monkeypatch, cur, bound, hide_cm):
    if hide_cm:
        monkeypatch.setattr(curves.Curve, "cm_disc", 0)
    for ell in primerange(3, bound):
        if cur.disc % ell:
            assert ap_good(cur, ell) == ap_char_sum_reduced(cur, ell), (cur, ell)


def test_a_search_that_never_accepts_still_counts_exactly(monkeypatch):
    # every point fails, so each prime above the crossover tries
    # SEARCH_POINTS points and the character sum decides
    tried = Counter()

    def refusing(ell, *args):
        tried[ell] += 1
        return 0

    monkeypatch.setattr(sieve, "_hasse_multiple", refusing)
    ells = list(primerange(sieve.MESTRE_BOUND - 20, 3000))
    for cur in ORACLE_CURVES:
        tried.clear()
        for ell in ells:
            if cur.disc % ell and not (cur.cm_disc and kronecker(cur.cm_disc, ell) == -1):
                assert ap_good(cur, ell) == ap_char_sum_reduced(cur, ell), (cur, ell)
        assert tried and set(tried.values()) == {sieve.SEARCH_POINTS}
        assert min(tried) > sieve.MESTRE_BOUND


def test_character_sum_fallbacks_over_the_catalogue_are_pinned(monkeypatch):
    # above the crossover the search decides every good prime of the
    # catalogue below 20,000 within SEARCH_POINTS points (module docstring)
    summed = []
    char_sum = sieve._ap_char_sum

    def counting(ell, a, b):
        summed.append(ell)
        return char_sum(ell, a, b)

    monkeypatch.setattr(sieve, "_ap_char_sum", counting)
    for cur in CATALOGUE_CURVES:
        for ell in primerange(2, 20000):
            if cur.disc % ell:
                ap_good(cur, ell)
    assert min(summed) == 5 and max(summed) == sieve.MESTRE_BOUND
    assert [ell for ell in summed if ell > sieve.MESTRE_BOUND] == []


@pytest.mark.parametrize("ell", [233, 239, 241, 251])
def test_mul_is_repeated_addition(ell):
    # 50b1's short model: k P by double-and-add against P + ... + P, on the
    # curve, through O at the group order, and 2 (r, 0) = O at a root r of f
    cur = Curve(1, 1, 1, -3, 1)
    a, b = -27 * cur.c4 % ell, -54 * cur.c6 % ell
    order = ell + 1 - ap_char_sum_reduced(cur, ell)
    x0 = next(x for x in range(1, ell) if kronecker((x ** 3 + a * x + b) % ell, ell) == 1)
    y0 = next(y for y in range(1, ell) if (y * y - x0 ** 3 - a * x0 - b) % ell == 0)
    pt, acc = (x0, y0), None
    for k in range(1, order + 3):
        acc = sieve._add(acc, pt, a, ell)
        assert sieve._mul(k, pt, a, ell) == acc, k
        assert acc is None or (acc[1] ** 2 - acc[0] ** 3 - a * acc[0] - b) % ell == 0
    assert sieve._mul(order, pt, a, ell) is None
    for r in range(ell):
        if (r ** 3 + a * r + b) % ell == 0:
            assert sieve._mul(2, (r, 0), a, ell) is None
            assert sieve._mul(3, (r, 0), a, ell) == (r, 0)


@pytest.mark.parametrize("ai,ell,x0s,on_giant", [
    ((1, 0, 1, -1, -2), 3323, range(1, 8), True),       # 50a1: Q_i = O, then Q_i+1 + G doubles
    ((0, -1, 1, -7, 10), 6469, (2, 3, 5, 6), False),    # 121b1: q (2m + 1) P = O at the start
    ((0, 0, 0, 0, 1), 397, (1, 2, 7), False),           # 36a1: likewise
])
def test_the_search_walks_through_o(ai, ell, x0s, on_giant):
    cur = Curve(*ai)
    a, b = -27 * cur.c4 % ell, -54 * cur.c6 % ell
    h = isqrt(4 * ell)
    m, low = isqrt(h), ell + 1 - h
    t = ap_char_sum_reduced(cur, ell)
    for x0 in x0s:
        v = ((x0 * x0 + a) * x0 + b) % ell
        order = ell + 1 - t * kronecker(v, ell)             # #E^v
        av, pt = a * v * v % ell, (x0 * v % ell, v * v % ell)
        g = sieve._mul(2 * m + 1, pt, av, ell)
        if on_giant:
            assert (order - low - m) % (2 * m + 1) == 0
        else:
            assert sieve._mul((low + 2 * m) // (2 * m + 1), g, av, ell) is None
        assert sieve._hasse_multiple(ell, av, *pt) == order, x0

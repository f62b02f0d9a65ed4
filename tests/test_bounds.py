"""Exclusion bound arithmetic and the m_max tables."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from oracles import sign_p_plus_s_sqrtq

import apnsurf.bounds as bounds
from apnsurf.bounds import (IRREDUCIBLE, ISOLATED, M_CAP, curve_exclusion,
                            excludes_irreducible, excludes_isolated,
                            hasse_weil_min, mmax, mmax_table)
from apnsurf.errors import ApnToolError, InvalidParameters

# frozen (d, published, exact, sufficient, quarter) per regime; None
# marks a form that excludes nothing in range
T_IRRED = [
    (7, 15, 15, 15, None), (9, 16, 16, 16, 16), (10, 17, 17, 17, 17),
    (12, 18, 18, 18, 18), (15, 19, 19, 19, 20), (17, 20, 20, 20, 20),
    (21, 21, 21, 21, 22), (23, 22, 22, 22, 22), (29, 23, 23, 23, 23),
    (36, 24, 25, 25, 25), (41, 25, 25, 25, 25), (49, 26, 26, 26, 27),
    (50, 27, 27, 27, 27), (70, 28, 28, 28, 29), (83, 29, 29, 29, 30),
]
T_ISOL = [
    (7, 6, 6, 6, None), (9, 9, 9, 9, None), (10, 10, 10, 10, 10),
    (12, 11, 11, 11, 12), (13, 12, 12, 12, 12), (15, 13, 13, 13, 13),
    (17, 14, 14, 14, 14), (20, 15, 15, 15, 16), (23, 16, 16, 16, 16),
    (26, 17, 17, 17, 17), (30, 18, 18, 18, 18), (36, 19, 19, 19, 20),
    (42, 20, 20, 20, 20), (49, 21, 21, 21, 21), (57, 22, 22, 22, 22),
]


def test_mmax_frozen_irreducible():
    for d, _, exact, suff, quarter in T_IRRED:
        assert mmax(d, IRREDUCIBLE, "exact") == exact
        assert mmax(d, IRREDUCIBLE, "sufficient") == suff
        assert mmax(d, IRREDUCIBLE, "quarter") == quarter


def test_mmax_frozen_isolated():
    for d, _, exact, suff, quarter in T_ISOL:
        assert mmax(d, ISOLATED, "exact") == exact
        assert mmax(d, ISOLATED, "sufficient") == suff
        assert mmax(d, ISOLATED, "quarter") == quarter


def test_mmax_scans_down_once(monkeypatch):
    # each m is asked once, from the cap down to the first m not excluded
    calls = []
    threshold = [10]

    def counting(d, m, form):
        calls.append(m)
        return m > threshold[0]
    monkeypatch.setitem(bounds._EXCLUDERS, IRREDUCIBLE, counting)
    assert mmax(7, IRREDUCIBLE) == 10
    assert calls == list(range(M_CAP, 9, -1))
    assert len(calls) == M_CAP - 10 + 1
    calls.clear()
    monkeypatch.setattr(bounds, "M_CAP", 8)
    assert mmax(7, IRREDUCIBLE) is None
    assert calls == [8]
    calls.clear()
    threshold[0] = 0
    monkeypatch.setattr(bounds, "M_CAP", 5)
    assert mmax(7, IRREDUCIBLE) == 0
    assert calls == [5, 4, 3, 2, 1]


def test_table_decreasing_mmax_raises(monkeypatch):
    monkeypatch.setattr(bounds, "mmax", lambda d, kind, form: 100 - d)
    with pytest.raises(ApnToolError, match="decreases"):
        mmax_table(IRREDUCIBLE)


def test_table_irreducible_single_discrepancy():
    table = mmax_table(IRREDUCIBLE)
    assert [r.d for r in table.rows] == [d for d, _, _, _, _ in T_IRRED]
    bad = table.discrepancies
    assert [(r.d, r.published, r.exact) for r in bad] == [(36, 24, 25)]
    for r in table.rows:
        if r.d != 36:
            assert "exact" in r.matched and "sufficient" in r.matched


def test_table_isolated_clean():
    table = mmax_table(ISOLATED)
    assert table.discrepancies == []
    assert [(r.d, r.published) for r in table.rows] == \
        [(d, pub) for d, pub, _, _, _ in T_ISOL]
    for r in table.rows:
        assert r.m_max == r.published


def test_table_csv_shape():
    csv = mmax_table(IRREDUCIBLE).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "d_max,m_max,form"
    assert len(lines) == 16
    assert "7,15,exact" in lines
    assert "36,25,none" in lines
    csv2 = mmax_table(ISOLATED).to_csv()
    assert "none" not in csv2
    assert "7,6,exact" in csv2


def test_exact_sign_against_high_precision():
    mpmath.mp.dps = 50
    for d in range(5, 42, 3):
        for m in range(1, 37):
            q = mpmath.mpf(2) ** m
            lhs = (q - (d - 4) * (d - 5) * mpmath.sqrt(q)
                   + (-18 * d ** 4 - 4 * d + 13) - mpmath.mpf(3) / q)
            assert (lhs > 0) == excludes_irreducible(d, m), (d, m)
            lhs = (q - (d * d - 9 * d + 20) * mpmath.sqrt(q)
                   + (-d ** 3 + 13 * d * d - 61 * d + 95)
                   - mpmath.mpf(2) / q)
            assert (lhs > 0) == excludes_isolated(d, m), (d, m)


def test_sign_matches_parity_split_oracle():
    rng = random.Random(5)

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-10 ** 6, 10 ** 6)
        if kind == 2:
            return rng.randint(-2 ** 90, 2 ** 90)
        return Fraction(rng.randint(-10 ** 30, 10 ** 30),
                        rng.randint(1, 10 ** 6))
    for m in range(1, 65):
        q = 1 << m
        cases = [(0, 0), (0, 1), (-1, 0), (0, Fraction(-1, 3))]
        cases += [(draw(), draw()) for _ in range(150)]
        for _ in range(20):
            # p next to -s*sqrt(q), where the two terms nearly cancel
            s = rng.choice([1, -1]) * rng.randint(1, 10 ** 9)
            r = -math.isqrt(s * s * q) if s > 0 else math.isqrt(s * s * q)
            cases += [(r + k, s) for k in (-1, 0, 1)]
            cases.append((Fraction(r, 7) + Fraction(1, 7), Fraction(s, 7)))
        for p, s in cases:
            assert bounds._sign_p_plus_s_sqrtq(p, s, q) == \
                sign_p_plus_s_sqrtq(p, s, m), (p, s, m)


def test_sufficient_sign_against_high_precision():
    mpmath.mp.dps = 50
    for d in range(5, 42, 4):
        for m in range(1, 37):
            q = mpmath.mpf(2) ** m
            rhs = mpmath.mpf("13.51") - 5 * d + mpmath.mpf("4.773") * d * d
            assert (mpmath.sqrt(q) > rhs) == \
                excludes_irreducible(d, m, "sufficient"), (d, m)


def test_weaker_forms_imply_exact():
    for d in range(5, 101):
        for m in range(1, 41):
            for form in ("sufficient", "quarter"):
                if excludes_irreducible(d, m, form):
                    assert excludes_irreducible(d, m), (d, m, form)
                if excludes_isolated(d, m, form):
                    assert excludes_isolated(d, m), (d, m, form)


def test_exclusion_monotone_in_m():
    for d, _, _, _, _ in T_IRRED:
        for kind in (IRREDUCIBLE, ISOLATED):
            fn = excludes_irreducible if kind == IRREDUCIBLE \
                else excludes_isolated
            seq = [fn(d, m) for m in range(1, 41)]
            assert seq == sorted(seq), (d, kind)


def test_isolated_bound_at_most_irreducible_bound():
    for d, _, _, _, _ in T_IRRED:
        assert mmax(d, ISOLATED) <= mmax(d, IRREDUCIBLE)


def test_binomial_degree13_mmax():
    assert mmax(13, IRREDUCIBLE) == 19
    assert excludes_irreducible(13, 20)
    assert not excludes_irreducible(13, 19)


def test_curve_exclusion_degree6():
    first = next(m for m in range(1, 30) if curve_exclusion(6, 1 << m))
    assert first == 9


def test_curve_exclusion_elliptic():
    first = next(m for m in range(1, 30) if curve_exclusion(3, 1 << m))
    assert first == 5
    assert not curve_exclusion(3, 16)
    assert curve_exclusion(3, 32)


def test_serre_and_hasse_weil():
    assert hasse_weil_min(16) == 9
    assert hasse_weil_min(32) == 23
    assert hasse_weil_min(32) > 4 * 3


def test_argument_validation():
    with pytest.raises(InvalidParameters):
        excludes_irreducible(4, 3)
    with pytest.raises(InvalidParameters):
        excludes_isolated(5, 0)
    with pytest.raises(InvalidParameters):
        excludes_irreducible(7, 3, form="bogus")
    with pytest.raises(InvalidParameters):
        mmax(7, kind="bogus")
    with pytest.raises(InvalidParameters):
        mmax_table("bogus")
    with pytest.raises(InvalidParameters):
        curve_exclusion(2, 16)
    with pytest.raises(InvalidParameters):
        curve_exclusion(6, 48)
    with pytest.raises(InvalidParameters):
        hasse_weil_min(1)


def test_quarter_form_inapplicable_below_degree_floor():
    assert mmax(7, IRREDUCIBLE, "quarter") is None
    assert mmax(9, ISOLATED, "quarter") is None
    assert not excludes_irreducible(8, 30, "quarter")
    assert not excludes_isolated(9, 30, "quarter")
    assert not excludes_isolated(5, 30, "sufficient")

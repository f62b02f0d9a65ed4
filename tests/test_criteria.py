"""Irreducibility and smoothness criteria, and singular point extraction."""

import hashlib

import pytest

from apnsurf import criteria, mvpoly
from apnsurf.criteria import (CriterionVerdict, SingularPoint, _extension,
                              absolutely_irreducible, binomial_criterion,
                              congruence_irreducible, congruence_smooth,
                              curve_singular_points, exponent_pair_criterion,
                              surface_irreducible)
from apnsurf.errors import (ApnToolError, DegreeCapExceeded,
                            DegreeOutOfRange, InvalidParameters)
from apnsurf.gf2m import Field
from apnsurf.mvpoly import TriPoly, bi_to_tri, extension
from apnsurf.polyfunc import PolyFunc
from apnsurf.surface import build_surface, infinity_curve
from oracles import binomial_criterion_py

F2 = Field(1)
F8 = Field(3)
F16 = Field(4)

CONG_IRRED_5_50 = [7, 11, 15, 19, 21, 23, 27, 29, 31, 35, 37, 39, 43, 45, 47]
SHARED_PAIRS = 66
PAIR_TABLE_SHA256 = ("ae1c7df1cfd5924c5eb6d6fa813b8aee"
                     "6d5379d183597aed25f069a4ab8a0e84")
INFINITY_CURVES_SHA256 = ("d799e8261e21552bd8505eb43bb06b1f"
                          "3853e2df90afaa622b4d508732cb821e")
CONG_SMOOTH_BELOW_100 = [7, 11, 19, 23, 27, 35, 39, 47, 51, 55, 59, 67, 75,
                         83, 87, 95]


def test_congruence_irreducible_frozen_set():
    got = [d for d in range(5, 51) if congruence_irreducible(d).established]
    assert got == CONG_IRRED_5_50
    assert congruence_irreducible(13).status == "unknown"
    assert congruence_irreducible(4).status == "unknown"


def test_congruence_smooth_frozen_set():
    got = [d for d in range(3, 100) if congruence_smooth(d).established]
    assert got == CONG_SMOOTH_BELOW_100
    assert congruence_smooth(13).status == "unknown"
    assert congruence_smooth(12).status == "unknown"


def test_congruence_criteria_reject_degrees_below_three():
    for check in (congruence_irreducible, congruence_smooth):
        for d in (-3, 0, 2):
            with pytest.raises(DegreeOutOfRange, match="below 3"):
                check(d)


def test_congruence_smooth_87_branch():
    # 2^7 = 128 = 3*43 - 1, so -1 is a power of two modulo 43
    v = congruence_smooth(87)
    assert v.established
    assert "43" in v.note


def test_absolutely_irreducible_smooth_curves():
    for d in (7, 11):
        v = absolutely_irreducible(infinity_curve(d))
        assert v.established, d


def test_absolutely_irreducible_refutations():
    v = absolutely_irreducible(infinity_curve(9))
    assert v.refuted
    assert "GF(2^1)" in v.note
    assert v.witness is not None and v.witness.total_degree == 3
    # conic splitting only over the quadratic extension
    v5 = absolutely_irreducible(infinity_curve(5))
    assert v5.refuted
    assert "GF(2^2)" in v5.note
    # triple-plane product of the degree-6 monomial splits over the base
    v6 = absolutely_irreducible(infinity_curve(6))
    assert v6.refuted
    # degenerate constant
    v3 = absolutely_irreducible(infinity_curve(3))
    assert v3.refuted and "constant" in v3.note
    # GF(2) and GF(4) have too few evaluation points for the d = 13 chart;
    # it stays irreducible over GF(8) and splits into quintics over GF(16)
    v13 = absolutely_irreducible(infinity_curve(13))
    assert v13.refuted and "GF(2^4)" in v13.note
    w = v13.witness.substitute_const(2, 1)
    assert w.field.m == 4 and w.total_degree == 5
    chart = infinity_curve(13).substitute_const(2, 1)
    quotient = TriPoly(w.field, dict(chart.terms)).exact_divide(w)
    assert quotient.total_degree == 5


def test_absolutely_irreducible_univariate_chart():
    # x0^2 + x0 x2 + x2^2: irreducible over GF(2), splits into conjugate
    # lines over GF(4); the same with x1, whose chart is univariate in x1
    for h in (TriPoly(F2, {(2, 0, 0): 1, (1, 0, 1): 1, (0, 0, 2): 1}),
              TriPoly(F2, {(0, 2, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1})):
        v = absolutely_irreducible(h)
        assert v.refuted and "GF(2^2)" in v.note


def test_refutation_witnesses_divide_their_curves():
    # a split or repeated-factor witness is a form in x0, x1, x2 that
    # divides the curve over the witness's field
    conic = TriPoly(F2, {(2, 0, 0): 1, (1, 0, 1): 1, (0, 0, 2): 1})
    curves = [infinity_curve(d) for d in range(5, 19) if d & (d - 1)]
    refuted = 0
    for curve in curves + [conic]:
        v = absolutely_irreducible(curve)
        if not v.refuted:
            continue
        w = v.witness
        assert w.is_homogeneous() and all(len(e) == 3 for e in w.terms)
        assert 0 < w.total_degree < curve.total_degree
        lifted = extension(curve.field, w.field.m // curve.field.m)
        lifted.map_tri(curve).exact_divide(w)
        refuted += 1
    assert refuted == 10


def test_each_field_is_factored_once(monkeypatch):
    # d = 7 and d = 15 have too few evaluation points over GF(2), so the
    # base-field pass already factors over GF(4) and the t = 2 pass is
    # skipped; for d = 15 the t = 3 pass moves on from GF(8) to GF(64)
    seen = []
    chart_factors = criteria._chart_factors

    def recording(chart, base):
        field, facs = chart_factors(chart, base)
        seen.append(field.m)
        return field, facs
    monkeypatch.setattr(criteria, "_chart_factors", recording)
    for d, fields in ((7, [2]), (15, [2, 6])):
        seen.clear()
        assert absolutely_irreducible(infinity_curve(d)).established
        assert seen == fields, d


def test_absolutely_irreducible_matches_exceptional_exponents():
    # Hernando and McGuire (J. Algebra 343, 2011): for odd d the curve at
    # infinity is absolutely irreducible unless d is a Gold exponent
    # 2^k + 1 or a Kasami exponent 2^(2k) - 2^k + 1
    odd = range(5, 24, 2)
    exceptional = {2 ** k + 1 for k in range(1, 5)} | {
        4 ** k - 2 ** k + 1 for k in range(1, 4)}
    refuted = []
    for d in odd:
        v = absolutely_irreducible(infinity_curve(d))
        assert v.status in ("established", "refuted"), (d, v)
        if v.refuted:
            refuted.append(d)
            assert not congruence_irreducible(d).established, d
            assert not congruence_smooth(d).established, d
    assert refuted == [d for d in odd if d in exceptional] == [5, 9, 13, 17]


def test_absolutely_irreducible_strange_conic():
    h = TriPoly(F2, {(1, 1, 0): 1, (0, 0, 2): 1})
    assert absolutely_irreducible(h).established
    assert curve_singular_points(h) == []


def test_chart_factor_counts_and_reconstruction():
    from apnsurf.criteria import _chart_factors
    expected = {5: 1, 6: 3, 7: 1, 9: 2, 11: 1, 13: 1}
    for d, n in expected.items():
        chart = infinity_curve(d).substitute_const(2, 1)
        fld, facs = _chart_factors(mvpoly._chart_rows(infinity_curve(d)), F2)
        assert len(facs) == n, d
        # factors may come back over an extension when the base field
        # runs out of good evaluation points (d = 13: over GF(8))
        assert all(p.field == fld for rows in facs for p in rows)
        forms = [bi_to_tri(rows, fld) for rows in facs]
        target = chart if fld.m == 1 else TriPoly(fld, dict(chart.terms))
        prod = TriPoly.const(fld, 1)
        for fp in forms:
            assert fp.total_degree >= 1
            prod = prod * fp
        unit = fld.div(target.lead_term()[1], prod.lead_term()[1])
        assert prod.scale(unit) == target
        assert sum(fp.total_degree for fp in forms) == chart.total_degree


def test_singular_points_cusp():
    h = TriPoly(F2, {(0, 2, 1): 1, (3, 0, 0): 1})
    pts = curve_singular_points(h)
    assert [p.point for p in pts] == [(0, 0, 1)]
    assert pts[0].m == 1


def test_singular_points_at_one_zero_zero():
    h = TriPoly(F2, {(1, 0, 2): 1, (0, 3, 0): 1})
    pts = curve_singular_points(h)
    assert [(p.m, p.point) for p in pts] == [(1, (1, 0, 0))]


def test_singular_points_three_lines():
    h = TriPoly(F2, {(2, 1, 0): 1, (1, 2, 0): 1})
    pts = curve_singular_points(h)
    assert [(p.m, p.point) for p in pts] == [(1, (0, 0, 1))]


def test_singular_points_x2_factor_rejected():
    # (x0^2 + x0 x1 + x1^2) * x2 contains the whole line x2 = 0
    h = TriPoly(F2, {(2, 0, 1): 1, (1, 1, 1): 1, (0, 2, 1): 1})
    with pytest.raises(InvalidParameters):
        curve_singular_points(h)


def test_singular_points_in_extension():
    # (x0^2 + x0 x1 + x1^2)(x0 + x2): the conjugate line pair meets the
    # third line in two points defined over GF(4)
    h = TriPoly(F2, {(3, 0, 0): 1, (2, 1, 0): 1, (1, 2, 0): 1,
                     (2, 0, 1): 1, (1, 1, 1): 1, (0, 2, 1): 1})
    pts = curve_singular_points(h)
    keyed = sorted((p.m, p.point) for p in pts)
    assert keyed == [(1, (0, 0, 1)), (2, (1, 2, 1)), (2, (1, 3, 1))]


def test_singular_points_partials_free_of_one_variable():
    # x0^2 x2 + x0 x1^2 + x1^3: on the chart x2 = 1 both partials are x1^2,
    # whose resultant in x0 is 1; the cusp at (0:0:1) must still be found,
    # on the curve and on its mirror image with x0 and x1 exchanged
    h = TriPoly(F2, {(2, 0, 1): 1, (1, 2, 0): 1, (0, 3, 0): 1})
    mirror = TriPoly(F2, {(e[1], e[0], e[2]): v
                          for e, v in h.terms.items()})
    for curve in (h, mirror):
        assert [(p.m, p.point) for p in curve_singular_points(curve)] == \
            [(1, (0, 0, 1))]


def test_singular_points_smooth_quotient_curves():
    for d in (7, 11):
        assert curve_singular_points(infinity_curve(d)) == []


def test_singular_points_degree9_diagonal():
    pts = curve_singular_points(infinity_curve(9))
    keys = [(p.m, p.point) for p in pts]
    assert (1, (1, 1, 1)) in keys


def test_criteria_reject_non_plane_forms():
    h = TriPoly(F2, {(1, 0, 0): 1, (0, 0, 0): 1})
    for check in (absolutely_irreducible, curve_singular_points):
        with pytest.raises(InvalidParameters, match="homogeneous form"):
            check(h)


def test_extension_shares_the_embedding_cache():
    assert _extension(F2, 4) is extension(F2, 4)
    with pytest.raises(DegreeCapExceeded, match="above the cap 32"):
        _extension(F16, 9)


def test_singular_points_reject_squares():
    h = TriPoly(F2, {(2, 0, 0): 1, (0, 2, 0): 1})
    with pytest.raises(InvalidParameters):
        curve_singular_points(h)


def test_binomial_criterion():
    v = binomial_criterion(13, 7)
    assert v.established
    assert binomial_criterion(13, 3).status == "unknown"
    assert binomial_criterion(12, 8).status == "unknown"
    with pytest.raises(InvalidParameters):
        binomial_criterion(7, 13)


def test_binomial_criterion_matches_oracle_on_pair_table():
    # every pair 6 <= d <= 33, 3 <= r < d against the definition through
    # bi_squarefree; a shared component divides both charts exactly
    shared = 0
    for d in range(6, 34):
        for r in range(3, d):
            got, want = binomial_criterion(d, r), binomial_criterion_py(d, r)
            assert (got.status, got.note, repr(got.witness)) == \
                (want.status, want.note, repr(want.witness)), (d, r)
            if got.note == "curves share a component":
                for e in (d, r):
                    infinity_curve(e).dehomogenize().exact_divide(got.witness)
                shared += 1
    assert shared == SHARED_PAIRS


def test_binomial_pair_table_digest():
    # the pair table 6 <= d <= 35, 3 <= r < d pinned by a digest, one
    # line "d<TAB>r<TAB>status<TAB>note<TAB>repr(witness)" per pair,
    # recorded before the gcd chain moved onto rows: the oracle above
    # calls bi_gcd, and the digest depends on none of the code it checks
    lines = []
    for d in range(6, 36):
        for r in range(3, d):
            v = binomial_criterion(d, r)
            lines.append(f"{d}\t{r}\t{v.status}\t{v.note}\t{v.witness!r}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == \
        PAIR_TABLE_SHA256


def test_binomial_criterion_builds_each_chart_once(monkeypatch):
    # one call builds the rows of each chart once, never converts a
    # TriPoly chart, and maps only the two leading rows of each
    # certified pair into the evaluation field
    def fail(*args):
        raise AssertionError("chart converted again")
    counts = {"rows": 0, "maps": 0, "certificates": 0}

    def counter(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted
    rows = counter("rows", mvpoly._chart_rows)
    monkeypatch.setattr(mvpoly, "_chart_rows", rows)
    monkeypatch.setattr(criteria, "_chart_rows", rows)
    monkeypatch.setattr(mvpoly.Embedding, "map_uni",
                        counter("maps", mvpoly.Embedding.map_uni))
    monkeypatch.setattr(mvpoly, "_bl_coprime_at_point",
                        counter("certificates", mvpoly._bl_coprime_at_point))
    monkeypatch.setattr(TriPoly, "dehomogenize", fail)
    assert binomial_criterion(12, 5).established
    assert counts == {"rows": 2, "maps": 2, "certificates": 1}
    for d, r in ((13, 7), (14, 9), (21, 11), (22, 12)):
        counts.update(rows=0, maps=0, certificates=0)
        binomial_criterion(d, r)
        assert counts["rows"] == 2, (d, r)
        assert counts["maps"] == 2 * counts["certificates"] > 0, (d, r)


@pytest.mark.parametrize("d", [9, 13, 15])
def test_curve_criteria_build_the_chart_once(monkeypatch, d):
    # absolutely_irreducible and curve_singular_points each build the
    # chart's rows once and work on rows from there: no TriPoly chart, no
    # TriPoly division, no TriPoly mapped into an extension field
    def fail(*args):
        raise AssertionError("TriPoly work on the chart")
    calls = []
    real = mvpoly._chart_rows

    def rows(p):
        calls.append(p)
        return real(p)
    monkeypatch.setattr(criteria, "_chart_rows", rows)
    for name in ("dehomogenize", "exact_divide", "substitute_const"):
        monkeypatch.setattr(TriPoly, name, fail)
    monkeypatch.setattr(mvpoly.Embedding, "map_tri", fail)
    curve = infinity_curve(d)
    for check in (absolutely_irreducible, curve_singular_points):
        calls.clear()
        check(curve)
        assert calls == [curve], check.__name__


def test_infinity_curve_digest():
    # absolutely_irreducible and curve_singular_points of every infinity
    # curve 5 <= d <= 35 that is not a power of two, one line
    # "d<TAB>status<TAB>note<TAB>repr(witness)<TAB>points" per degree,
    # pinned by a digest recorded before the criteria moved onto rows
    lines = []
    for d in range(5, 36):
        if d & (d - 1) == 0:
            continue
        curve = infinity_curve(d)
        v = absolutely_irreducible(curve)
        try:
            pts = repr(curve_singular_points(curve))
        except ApnToolError as e:
            pts = f"{type(e).__name__}: {e}"
        lines.append(f"{d}\t{v.status}\t{v.note}\t{v.witness!r}\t{pts}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == \
        INFINITY_CURVES_SHA256


def test_exponent_pair_criterion():
    assert exponent_pair_criterion(5, 3).established
    assert exponent_pair_criterion(9, 6).established
    v = exponent_pair_criterion(13, 7)
    assert v.status == "unknown" and "6" in v.note
    assert exponent_pair_criterion(10, 6).status == "unknown"
    assert exponent_pair_criterion(12, 5).status == "unknown"


def test_surface_irreducible_chain():
    s7 = build_surface(PolyFunc(F16, [(7, 1)]))
    v = surface_irreducible(s7)
    assert v.established

    s13 = build_surface(PolyFunc(F16, [(13, 1), (7, 5)]))
    v13 = surface_irreducible(s13)
    assert v13.established

    s5 = build_surface(PolyFunc(F8, [(5, 1)]))
    v5 = surface_irreducible(s5)
    assert v5.status == "unknown"

    a5 = 3
    s6 = build_surface(PolyFunc(F8, [(6, 1), (5, a5), (3, F8.pow_(a5, 3))]))
    v6 = surface_irreducible(s6)
    assert v6.status == "unknown"


def test_verdict_repr_and_bool():
    v = CriterionVerdict("established", "t", note="n")
    assert bool(v) and "t" in repr(v)
    assert not CriterionVerdict("unknown", "t")

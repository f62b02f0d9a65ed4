"""Quotient surface construction, identities, and point counts."""

import random

import pytest
from oracles import (brute_count, diagonal_infinity_singular_ref,
                     four_point_sum)

from apnsurf.differential import differential_spectrum, is_apn
from apnsurf.errors import (DegreeOutOfRange, DegreeTooSmall,
                            DiagonalNotConstant, FieldMismatch, FieldTooLarge,
                            InvalidParameters, QAffineInput)
from apnsurf.gf2m import Field
from apnsurf.mvpoly import TriPoly
from apnsurf.polyfunc import PolyFunc, is_q_affine, normalize
from apnsurf.surface import (Surface, build_surface, count_points,
                             derivative_divisibility,
                             diagonal_infinity_singular, infinity_curve,
                             projective_plane_zeros, triple_locus_product)

F8 = Field(3)
F16 = Field(4)
F32 = Field(5)


def rand_map(field, rng, dmin=3):
    while True:
        terms = [(rng.randrange(dmin, 3 * field.m), rng.randrange(field.q))
                 for _ in range(rng.randrange(1, 4))]
        f = PolyFunc(field, terms)
        if not f.is_zero and f.degree >= dmin and f.degree.bit_count() > 1:
            return f


def test_reconstruction_identity():
    # exponents up to 3q fold back below q before the quotient is taken
    rng = random.Random(41)
    for m in range(1, 7):
        field = Field(m)
        for _ in range(10):
            f = PolyFunc(field, [(rng.randrange(3, 3 * field.q + 1),
                                  rng.randrange(1, field.q))
                                 for _ in range(rng.randrange(1, 5))])
            if f.is_zero or is_q_affine(f):
                with pytest.raises(QAffineInput):
                    build_surface(f)
                continue
            s = build_surface(f)
            assert s.source == normalize(f)
            assert s.poly * triple_locus_product(field) == four_point_sum(s.source)
            assert s.poly.total_degree == s.source.degree - 3


def test_returned_polys_do_not_share_cached_terms():
    f = PolyFunc(F16, [(9, 1), (6, 3), (5, 7)])
    curve = dict(infinity_curve(9).terms)
    poly = dict(build_surface(f).poly.terms)
    infinity_curve(9).terms.clear()
    build_surface(PolyFunc(F16, [(9, 1)])).poly.terms.clear()
    build_surface(f).poly.terms[(0, 0, 0)] = 5
    assert infinity_curve(9).terms == curve
    assert build_surface(f).poly.terms == poly
    assert build_surface(PolyFunc(F16, [(9, 1)])).poly.terms == curve


def test_cube_map_gives_constant_one():
    for field in (F8, F16):
        s = build_surface(PolyFunc(field, [(3, 1)]))
        assert s.poly == TriPoly.const(field, 1)
        assert s.degree == 0


def test_affine_inputs_rejected():
    with pytest.raises(QAffineInput):
        build_surface(PolyFunc(F8, [(4, 1), (2, 3), (0, 1)]))
    with pytest.raises(QAffineInput):
        build_surface(PolyFunc(F8, []))
    with pytest.raises(QAffineInput):
        infinity_curve(8)
    with pytest.raises(DegreeOutOfRange):
        infinity_curve(2)


def test_surface_ignores_affine_summands():
    f = PolyFunc(F16, [(6, 3), (5, 7), (3, 9)])
    g = PolyFunc(F16, [(6, 3), (5, 7), (3, 9), (4, 11), (1, 2), (0, 13)])
    assert build_surface(f).poly == build_surface(g).poly


def test_degree6_three_plane_decomposition():
    # x^6 + a5 x^5 + a3 x^3 splits into three planes exactly when a3 = a5^3
    for a5 in range(1, 8):
        a3 = F8.pow_(a5, 3)
        s = build_surface(PolyFunc(F8, [(6, 1), (5, a5), (3, a3)]))
        planes = TriPoly.const(F8, 1)
        for i, j in ((0, 2), (0, 1), (1, 2)):
            planes = planes * (TriPoly.var(F8, i) + TriPoly.var(F8, j)
                               + TriPoly.const(F8, a5))
        assert s.poly == planes
        bad = a3 ^ 1
        s2 = build_surface(PolyFunc(F8, [(6, 1), (5, a5), (3, bad)]))
        assert s2.poly != planes


def test_degree9_coupled_family_splits_into_two_cubics():
    def cubic(field, rows, a6):
        t = {e: 1 for e in rows}
        t[(0, 0, 0)] = a6
        return TriPoly(field, t)

    rows1 = [(3, 0, 0), (2, 1, 0), (0, 3, 0), (0, 2, 1),
             (1, 0, 2), (0, 0, 3)]
    rows2 = [(3, 0, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1),
             (0, 1, 2), (0, 0, 3)]
    for a6 in (1, 2, 3, 7, 31):
        a3 = F32.mul(a6, a6)
        s = build_surface(PolyFunc(F32, [(9, 1), (6, a6), (3, a3)]))
        assert s.poly == cubic(F32, rows1, a6) * cubic(F32, rows2, a6)


def test_degree9_section_at_zero_identity():
    # phi(x0, x1, 0) = B6 + a6 B3 + a5 B2 + a3 for x^9+a6x^6+a5x^5+a3x^3
    x0 = TriPoly.var(F16, 0)
    x1 = TriPoly.var(F16, 1)
    b6 = (x0.pow_(8) + x0 * x1.pow_(7)).exact_divide(x0 * (x0 + x1))
    b3 = x0 * x1 * (x0 + x1)
    b2 = x0 * x0 + x0 * x1 + x1 * x1
    for a6, a5, a3 in [(0, 0, 1), (1, 0, 0), (5, 3, 0), (1, 5, 7), (0, 3, 7)]:
        f = PolyFunc(F16, [(9, 1), (6, a6), (5, a5), (3, a3)])
        sec = build_surface(f).poly.substitute_const(2, 0)
        want = b6 + b3.scale(a6) + b2.scale(a5) + TriPoly.const(F16, a3)
        assert sec == want


def test_parametric_points_off_locus():
    # (1/(l(1+l)), l^3/(l(1+l)), 1) lies on the surface of x^6 + x^5 for
    # every l outside the prime field
    s = build_surface(PolyFunc(F8, [(6, 1), (5, 1)]))
    seen = set()
    for lam in range(2, 8):
        den = F8.mul(lam, lam ^ 1)
        x0 = F8.inv(den)
        x1 = F8.mul(F8.pow_(lam, 3), F8.inv(den))
        pt = (x0, x1, 1)
        assert s.poly.eval_at(pt) == 0
        assert x0 != x1 and x1 != 1 and x0 != 1
        seen.add(pt)
    assert len(seen) == 6
    assert count_points(s).affine_off_locus >= 6


def off_locus_free(f):
    """Uniformity two through the surface: every affine rational point
    lies on the triple locus."""
    return count_points(build_surface(f)).affine_off_locus == 0


def test_surface_test_agrees_with_direct_test():
    rng = random.Random(43)
    for field in (F8, F16):
        hits = 0
        for _ in range(12):
            f = rand_map(field, rng)
            direct = is_apn(f)
            hits += direct
            assert off_locus_free(f) == direct
    # known uniformity-two maps on both fields
    assert off_locus_free(PolyFunc(F8, [(5, 1)]))
    assert off_locus_free(PolyFunc(F16, [(3, 1), (0, 9)]))


def test_count_points_brute_force():
    f = PolyFunc(F8, [(5, 1), (3, 6)])
    s = build_surface(f)
    pc = count_points(s)
    affine = on_locus = 0
    for x0 in range(8):
        for x1 in range(8):
            for x2 in range(8):
                if s.poly.eval_at((x0, x1, x2)) == 0:
                    affine += 1
                    if x0 == x1 or x1 == x2 or x0 == x2:
                        on_locus += 1
    assert pc.affine == affine
    assert pc.affine_on_locus == on_locus
    assert pc.affine_off_locus == affine - on_locus
    h = s.infinity_part()
    inf = sum(h.eval_at((1, y, w)) == 0 for y in range(8) for w in range(8))
    inf += sum(h.eval_at((0, 1, w)) == 0 for w in range(8))
    inf += h.eval_at((0, 0, 1)) == 0
    assert pc.infinity == inf
    assert pc.projective == affine + inf


def random_map_terms(field, rng, shape):
    """Terms of a map whose normalization has exponents below min(q, 16), drawn
    by shape: "cubic" (degree 3), "no3mod4" (no exponent = 3 mod 4) or
    "any".  Each exponent may be written shifted up by a multiple of
    q - 1, which folds back to it, and an affine part is added that
    normalization strips."""
    q = field.q
    lows = [e for e in range(3, min(q, 16)) if e & (e - 1)]
    if shape == "cubic":
        exps = [3]
    else:
        if shape == "no3mod4":
            lows = [e for e in lows if e % 4 != 3]
        exps = rng.sample(lows, rng.randrange(1, min(4, len(lows)) + 1))
    terms = [(e + (q - 1) * rng.randrange(3), rng.randrange(1, q))
             for e in exps]
    terms += [(rng.choice((0, 1, 2, 4)), rng.randrange(q))
              for _ in range(rng.randrange(3))]
    return terms


def test_count_points_matches_brute_force_oracle():
    rng = random.Random(59)
    seen = {"apn": 0, "not": 0, "folded": 0}
    for m in (2, 3, 4, 5):
        field = Field(m)
        shapes = ("cubic", "any") if m == 2 else ("cubic", "no3mod4", "any")
        for shape in shapes:
            for _ in range(10):
                terms = random_map_terms(field, rng, shape)
                s = build_surface(PolyFunc(field, terms))
                exps = [e for e, _ in s.source.terms()]
                if shape == "cubic":
                    assert exps == [3]
                if shape == "no3mod4":
                    assert all(e % 4 != 3 for e in exps)
                pc = count_points(s)
                assert (pc.affine, pc.affine_on_locus) == brute_count(s), \
                    (m, terms)
                seen["apn" if pc.affine_off_locus == 0 else "not"] += 1
                seen["folded"] += max(e for e, _ in terms) >= field.q
    assert min(seen.values()) > 0, seen


def test_count_points_infinity_matches_projective_oracle():
    # count_points reads the points at infinity off the affine cone of the
    # curve; projective_plane_zeros evaluates the curve at every point
    rng = random.Random(61)
    degrees = set()
    for m in range(2, 8):
        field = Field(m)
        for _ in range(8):
            terms = [(rng.randrange(3, min(field.q, 34)),
                      rng.randrange(1, field.q))
                     for _ in range(rng.randrange(1, 4))]
            f = PolyFunc(field, terms)
            if is_q_affine(f):
                continue
            s = build_surface(f)
            degrees.add(s.source_degree)
            want = projective_plane_zeros(s.infinity_part(), field)
            assert count_points(s).infinity == want, (m, terms)
    assert 3 in degrees and len(degrees) > 10


def test_count_points_constant_surface():
    pc = count_points(build_surface(PolyFunc(F8, [(3, 1)])))
    assert pc.affine == 0
    assert pc.infinity == 0
    assert pc.projective == 0


def test_count_points_above_m10():
    field = Field(11)
    f = PolyFunc(field, [(5, 1)])
    c = count_points(build_surface(f))
    counts = differential_spectrum(f).counts
    assert c.affine_off_locus == sum(n * k * (k - 2) for k, n in counts.items())
    assert c.infinity == projective_plane_zeros(infinity_curve(5), field)


def test_count_points_size_gate():
    f = PolyFunc(Field(17), [(5, 1)])
    with pytest.raises(FieldTooLarge):
        count_points(build_surface(f))


def test_infinity_part_matches_degree_only_curve():
    c5 = infinity_curve(5)
    assert c5.is_homogeneous() and c5.total_degree == 2
    s = build_surface(PolyFunc(F8, [(5, 1)]))
    assert s.infinity_part().terms == c5.terms
    # lower-order terms do not touch the curve at infinity
    s2 = build_surface(PolyFunc(F8, [(5, 1), (3, 7)]))
    assert s2.infinity_part().terms == c5.terms
    assert infinity_curve(3) == TriPoly.const(Field(1), 1)


def test_even_infinity_curve_is_triple_lines_times_a_square():
    # x^(2k) = (x^k)^2 in characteristic 2, so the quotient of degree 2k
    # is the three lines times the square of the degree-k quotient; for
    # 2k >= 10 the square is of positive degree and the curve is not
    # squarefree
    gf2 = Field(1)
    x0, x1, x2 = (TriPoly.var(gf2, i) for i in range(3))
    lines = (x0 + x1) * (x1 + x2) * (x0 + x2)
    for k in range(3, 18):
        if k & (k - 1):
            half = infinity_curve(k)
            assert infinity_curve(2 * k) == lines * half * half, k


def test_infinity_curves_share_one_field():
    assert infinity_curve(7).field is infinity_curve(9).field
    assert infinity_curve(7).field == Field(1)


def test_projective_plane_zeros_oracle():
    rng = random.Random(47)
    for _ in range(6):
        h = infinity_curve(rng.choice([5, 6, 7, 9]))
        got = projective_plane_zeros(h, F8)
        want = 0
        reps = [(1, y, w) for y in range(8) for w in range(8)]
        reps += [(0, 1, w) for w in range(8)]
        reps += [(0, 0, 1)]
        lifted = TriPoly(F8, dict(h.terms))
        for p in reps:
            want += lifted.eval_at(p) == 0
        assert got == want


def test_projective_plane_zeros_rejects_bad_input():
    # not homogeneous, then a curve over a field that is neither GF(2) nor
    # the target
    with pytest.raises(InvalidParameters, match="homogeneous form"):
        projective_plane_zeros(TriPoly(F8, {(1, 0, 0): 1, (0, 0, 0): 1}), F8)
    with pytest.raises(FieldMismatch):
        projective_plane_zeros(TriPoly(Field(2), {(1, 0, 0): 1}), F8)


def test_derivative_divisibility_always_holds():
    rng = random.Random(53)
    for field in (F8, F16):
        for _ in range(6):
            s = build_surface(rand_map(field, rng))
            quots = derivative_divisibility(s)
            assert quots is not None
            pairs = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
            for (var, i, j), quot in zip(pairs, quots):
                lin = TriPoly.var(field, i) + TriPoly.var(field, j)
                assert quot * lin == s.poly.partial(var)


def test_diagonal_point_at_infinity_singular():
    # degree-5 monomial: diagonal restriction is zero, the point is singular
    assert diagonal_infinity_singular(build_surface(PolyFunc(F8, [(5, 1)])))
    # three-plane surfaces: diagonal restriction is the nonzero constant a5^3
    s = build_surface(PolyFunc(F8, [(6, 1), (5, 3), (3, F8.pow_(3, 3))]))
    assert diagonal_infinity_singular(s)
    with pytest.raises(DegreeTooSmall):
        diagonal_infinity_singular(build_surface(PolyFunc(F8, [(3, 1)])))


def test_diagonal_nonconstant_carries_points():
    with pytest.raises(DiagonalNotConstant) as ei:
        diagonal_infinity_singular(build_surface(PolyFunc(F8, [(7, 1)])))
    assert ei.value.points == [(0, 0, 0)]
    with pytest.raises(DiagonalNotConstant) as ei:
        diagonal_infinity_singular(build_surface(PolyFunc(F8, [(7, 1), (3, 1)])))
    assert ei.value.points == [(1, 1, 1)]


def _random_quotient(field, rng, d):
    """A random polynomial in x0, x1, x2 of degree at most d - 3, with a
    constant diagonal restriction half of the time."""
    t = {}
    for _ in range(3 * d):
        e = [0, 0, 0]
        for _ in range(rng.randrange(d - 2)):
            e[rng.randrange(3)] += 1
        t[tuple(e)] = rng.randrange(field.q)
    if rng.randrange(2):
        # cancel phi_k(1,1,1), k >= 1, on the coefficient of x0^k
        sums = {}
        for e, v in t.items():
            sums[sum(e)] = sums.get(sum(e), 0) ^ v
        for k, v in sums.items():
            if k:
                t[(k, 0, 0)] = t.get((k, 0, 0), 0) ^ v
    return TriPoly(field, t)


def _diagonal_outcome(check, s):
    try:
        return check(s)
    except DiagonalNotConstant as e:
        return "DiagonalNotConstant", e.points
    except DegreeTooSmall:
        return "DegreeTooSmall", None


def test_diagonal_infinity_singular_matches_oracle():
    rng = random.Random(61)
    seen = set()
    for m in range(1, 7):
        field = Field(m)
        for _ in range(25):
            d = rng.randrange(3, 12)
            surfaces = [Surface(field, _random_quotient(field, rng, d),
                                None, d)]
            f = PolyFunc(field, [(rng.randrange(3, 16), rng.randrange(1, field.q))
                                 for _ in range(rng.randrange(1, 4))])
            if not (f.is_zero or is_q_affine(f)):
                surfaces.append(build_surface(f))
            for s in surfaces:
                got = _diagonal_outcome(diagonal_infinity_singular, s)
                assert got == _diagonal_outcome(
                    diagonal_infinity_singular_ref, s), s
                seen.add(got if isinstance(got, bool) else got[0])
    assert seen == {True, False, "DiagonalNotConstant", "DegreeTooSmall"}

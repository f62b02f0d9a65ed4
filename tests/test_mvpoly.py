"""Polynomial layer against independent oracles."""

import inspect
import random

import pytest

from apnsurf import mvpoly
from apnsurf.errors import (
    ApnToolError,
    DegreeCapExceeded,
    DivisionByZero,
    FieldMismatch,
    InvalidParameters,
    NoGoodEvaluationPoint,
    NotDivisible,
)
from apnsurf.criteria import absolutely_irreducible
from apnsurf.gf2m import Field
from apnsurf.mvpoly import (
    NEG_INF,
    Embedding,
    TriPoly,
    UniPoly,
    bi_factor,
    bi_gcd,
    bi_resultant,
    bi_squarefree,
    bi_to_tri,
    extension,
    tri_to_bi,
    uni_factor,
    uni_gcd,
    uni_gcd_many,
    uni_roots,
    uni_squarefree_part,
)
from apnsurf.polyfunc import PolyFunc, parse_family, parse_poly
from apnsurf.search import SearchJob
from apnsurf.surface import infinity_curve
from oracles import bi_is_irreducible, uni_is_irreducible

F2 = Field(1)
F4 = Field(2)
F8 = Field(3)
F16 = Field(4)


def rand_uni(field, deg, rng, monic=False):
    c = [rng.randrange(field.q) for _ in range(deg)]
    c.append(1 if monic else rng.randrange(1, field.q))
    return UniPoly(field, c)


def rand_tri(field, deg, rng, nvars=2):
    t = {}
    for _ in range(deg * 3):
        e = [0, 0, 0]
        budget = rng.randrange(deg + 1)
        for _ in range(budget):
            e[rng.randrange(nvars)] += 1
        t[tuple(e)] = rng.randrange(field.q)
    return TriPoly(field, {e: v for e, v in t.items() if v})


# ---------------------------------------------------------------- univariate

def test_uni_basic_shapes():
    p = UniPoly(F8, [1, 0, 3])
    assert p.degree == 2
    assert UniPoly.zero(F8).degree is NEG_INF
    assert UniPoly.zero(F8).is_zero
    assert UniPoly(F8, [0, 0, 0]).is_zero


def test_uni_ring_laws():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_uni(F8, rng.randrange(6), rng)
        b = rand_uni(F8, rng.randrange(6), rng)
        c = rand_uni(F8, rng.randrange(6), rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_uni_mul_gf2_fast_path_matches_generic():
    rng = random.Random(5)
    for _ in range(40):
        ca = [rng.randrange(2) for _ in range(rng.randrange(1, 40))]
        cb = [rng.randrange(2) for _ in range(rng.randrange(1, 40))]
        a, b = UniPoly(F2, ca), UniPoly(F2, cb)
        got = (a * b).c
        # oracle: naive convolution mod 2
        out = [0] * (len(ca) + len(cb))
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                out[i + j] ^= x & y
        while out and out[-1] == 0:
            out.pop()
        assert got == out


def test_uni_divmod_invariant():
    rng = random.Random(23)
    for _ in range(80):
        a = rand_uni(F16, rng.randrange(9), rng)
        b = rand_uni(F16, rng.randrange(5), rng)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree
    with pytest.raises(DivisionByZero):
        divmod(a, UniPoly.zero(F16))


def test_uni_gcd_properties():
    rng = random.Random(31)
    for _ in range(40):
        g = rand_uni(F8, rng.randrange(1, 4), rng)
        a = g * rand_uni(F8, rng.randrange(4), rng)
        b = g * rand_uni(F8, rng.randrange(4), rng)
        got = uni_gcd(a, b)
        assert (a % got).is_zero and (b % got).is_zero
        assert got.lead == 1
        assert got.degree >= g.degree


def test_uni_eval_and_shift():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_uni(F16, rng.randrange(7), rng)
        a = rng.randrange(16)
        shifted = p.taylor_shift(a)
        for _ in range(8):
            x = rng.randrange(16)
            assert shifted.eval_at(x) == p.eval_at(x ^ a)


def test_uni_derivative_char2():
    p = UniPoly(F8, [5, 3, 7, 2, 0, 6])  # 5 + 3x + 7x^2 + 2x^3 + 6x^5
    dp = p.derivative()
    assert dp == UniPoly(F8, [3, 0, 2, 0, 6])
    # squares have zero derivative
    rng = random.Random(9)
    for _ in range(20):
        a = rand_uni(F8, rng.randrange(5), rng)
        assert (a * a).derivative().is_zero


def test_uni_sqrt_even():
    rng = random.Random(17)
    for _ in range(30):
        a = rand_uni(F16, rng.randrange(6), rng)
        assert (a * a).sqrt_even() == a
    with pytest.raises(InvalidParameters):
        UniPoly(F16, [0, 1]).sqrt_even()


def test_uni_squarefree_part():
    rng = random.Random(41)
    x = UniPoly.x(F8)
    one = UniPoly.one(F8)
    a = x + UniPoly.const(F8, 3)
    b = x * x + x + one  # irreducible over GF(8)? verified by reconstruction below
    p = a * a * a * b
    sf = uni_squarefree_part(p)
    assert (sf % a).is_zero
    assert sf.degree == a.degree + (b.degree if uni_is_irreducible(b) else 1)
    # every root appears once
    q = a.scale(5) * a * (x + UniPoly.const(F8, 1)).pow_(4)
    sf2 = uni_squarefree_part(q)
    assert sf2.degree == 2


def independent_irred(p):
    """Oracle: p irreducible iff x^(q^n) = x mod p and for each prime r | n
    the power x^(q^(n/r)) - x is coprime to p."""
    f = p.field
    n = p.degree
    if n < 1:
        return False
    x = UniPoly.x(f)

    def frob_iter(k):
        r = x % p
        for _ in range(f.m * k):
            r = (r * r) % p
        return r

    if frob_iter(n) != x % p:
        return False
    primes = []
    t = n
    d = 2
    while d * d <= t:
        if t % d == 0:
            primes.append(d)
            while t % d == 0:
                t //= d
        d += 1
    if t > 1:
        primes.append(t)
    for r in primes:
        g = uni_gcd(frob_iter(n // r) + x % p, p)
        if g.degree != 0:
            return False
    return True


def test_uni_factor_reconstructs_and_is_irreducible():
    rng = random.Random(101)
    for field in (F2, F4, F8):
        for _ in range(25):
            p = rand_uni(field, rng.randrange(1, 9), rng)
            unit, facs = uni_factor(p)
            acc = UniPoly.const(field, unit)
            for f_, mult in facs:
                assert f_.lead == 1
                assert independent_irred(f_), f"{f_!r} not irreducible"
                acc = acc * f_.pow_(mult)
            assert acc == p


def test_uni_factor_deterministic():
    rng = random.Random(55)
    for _ in range(10):
        p = rand_uni(F16, 8, rng)
        unit, facs = uni_factor(p)
        assert uni_factor(p) == (unit, facs)
        # sorted factors: the order the random splits take never shows
        irreducibles = [f_ for f_, _ in facs]
        assert irreducibles == sorted(irreducibles, key=UniPoly.key)


def test_uni_roots():
    # (x + 3)(x + 5)(x^2 + x + const) over GF(16)
    x = UniPoly.x(F16)
    p = (x + UniPoly.const(F16, 3)) * (x + UniPoly.const(F16, 5))
    irr = None
    for c in range(2, 16):
        cand = x * x + x + UniPoly.const(F16, c)
        if not uni_roots(cand):
            irr = cand
            break
    assert irr is not None
    roots = uni_roots(p * irr)
    assert roots == [3, 5]


# ------------------------------------------------------------ field embedding

def test_embedding_is_ring_homomorphism():
    for small, big in ((F2, F8), (F4, F16), (F2, F16)):
        emb = Embedding(small, big)
        for a in small.elements():
            for b in small.elements():
                assert emb.map(a ^ b) == emb.map(a) ^ emb.map(b)
                assert emb.map(small.mul(a, b)) == big.mul(emb.map(a), emb.map(b))
        assert len({emb.map(a) for a in small.elements()}) == small.q


def test_embedding_without_root_raises(monkeypatch):
    monkeypatch.setattr(mvpoly, "uni_roots", lambda p: [])
    with pytest.raises(ApnToolError, match="no root"):
        Embedding(F4, F16)


def test_embedding_rejects_bad_pairs():
    with pytest.raises(InvalidParameters):
        Embedding(F8, F16)  # 3 does not divide 4
    emb = Embedding(F4, F16)
    with pytest.raises(FieldMismatch):
        emb.map_tri(TriPoly.var(F8, 0))
    with pytest.raises(FieldMismatch):
        emb.map_uni(UniPoly.x(F2))


# ---------------------------------------------------------------- trivariate

def test_tri_lead_term_grlex():
    p = TriPoly(F8, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 0, 3): 3})
    e, v = p.lead_term()
    assert e == (0, 0, 3) and v == 3  # higher total degree wins
    p2 = TriPoly(F8, {(2, 1, 0): 1, (1, 2, 0): 2})
    assert p2.lead_term()[0] == (2, 1, 0)  # ties broken by x0 first


def test_tri_ring_laws():
    rng = random.Random(77)
    for _ in range(25):
        a = rand_tri(F8, 3, rng)
        b = rand_tri(F8, 3, rng)
        c = rand_tri(F8, 3, rng)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_tri_eval_matches_expansion():
    rng = random.Random(13)
    for _ in range(20):
        a = rand_tri(F8, 3, rng, nvars=3)
        b = rand_tri(F8, 3, rng, nvars=3)
        pt = tuple(rng.randrange(8) for _ in range(3))
        assert (a * b).eval_at(pt) == F8.mul(a.eval_at(pt), b.eval_at(pt))
        assert (a + b).eval_at(pt) == a.eval_at(pt) ^ b.eval_at(pt)


def test_tri_pow_square_trick():
    rng = random.Random(19)
    p = rand_tri(F16, 3, rng, nvars=3)
    direct = p * p * p * p * p
    assert p.pow_(5) == direct


def test_tri_exact_divide_roundtrip():
    rng = random.Random(29)
    for _ in range(30):
        den = rand_tri(F8, 2, rng)
        if den.is_zero:
            continue
        quo = rand_tri(F8, 3, rng)
        if quo.is_zero:
            continue
        num = den * quo
        got = num.exact_divide(den)
        assert got == quo
    with pytest.raises(NotDivisible) as ei:
        (den * quo + TriPoly.const(F8, 1)).exact_divide(den)
    assert ei.value.remainder is not None


def reference_divide(num, den):
    """Division by repeated search for the grlex-largest remainder term:
    (quotient, None) when exact, else (None, remainder at the failure)."""
    def grlex(e):
        return (sum(e), e)
    f = num.field
    de = max(den.terms, key=grlex)
    dinv = f.inv(den.terms[de])
    rem = dict(num.terms)
    quo = {}
    while rem:
        e = max(rem, key=grlex)
        t = tuple(a - b for a, b in zip(e, de))
        if min(t) < 0:
            return None, TriPoly(f, rem)
        cv = f.mul(rem[e], dinv)
        quo[t] = cv
        for e2, v2 in den.terms.items():
            ne = tuple(a + b for a, b in zip(t, e2))
            w = rem.get(ne, 0) ^ f.mul(cv, v2)
            if w:
                rem[ne] = w
            else:
                del rem[ne]
    return TriPoly(f, quo), None


def test_tri_exact_divide_matches_reference():
    rng = random.Random(31)
    failed = 0
    for _ in range(40):
        a = rand_tri(F16, 4, rng, nvars=3)
        b = rand_tri(F16, 3, rng, nvars=3)
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).exact_divide(b) == a
        # a non-multiple fails with the remainder the reference reaches
        num = a * b + rand_tri(F16, 3, rng, nvars=3)
        quo, rem = reference_divide(num, b)
        if quo is not None:
            assert num.exact_divide(b) == quo
            continue
        with pytest.raises(NotDivisible) as ei:
            num.exact_divide(b)
        assert ei.value.remainder == rem
        failed += 1
    assert failed > 10


def test_tri_partial_product_rule():
    rng = random.Random(37)
    for _ in range(20):
        a = rand_tri(F8, 3, rng, nvars=3)
        b = rand_tri(F8, 3, rng, nvars=3)
        for var in range(3):
            lhs = (a * b).partial(var)
            rhs = a.partial(var) * b + a * b.partial(var)
            assert lhs == rhs
        assert (a * a).partial(0).is_zero


def test_tri_dehomogenize_is_chart_x2_one():
    rng = random.Random(43)
    for _ in range(20):
        d = rng.randrange(6)
        h = TriPoly(F8, {(i, j, d - i - j): rng.randrange(8)
                         for i in range(d + 1) for j in range(d + 1 - i)})
        c = h.dehomogenize()
        assert c == h.substitute_const(2, 1)
        assert c.degree_in(2) in (NEG_INF, 0)
        x0, x1 = rng.randrange(8), rng.randrange(8)
        assert c.eval_at((x0, x1, 0)) == h.eval_at((x0, x1, 1))


def test_tri_exponents_are_triples():
    for e in ((1, 0), (1, 0, 0, 0), (0, 0, 0, 1), ()):
        with pytest.raises(InvalidParameters, match="not a triple"):
            TriPoly(F8, {(1, 0, 0): 1, e: 1})
    with pytest.raises(IndexError):
        TriPoly.var(F8, 3)


def test_tri_homogeneous_components_sum():
    rng = random.Random(47)
    p = rand_tri(F8, 4, rng, nvars=3)
    total = TriPoly.zero(F8)
    top = int(p.total_degree) if not p.is_zero else 0
    for d in range(top + 1):
        total = total + p.homogeneous_component(d)
    assert total == p


def test_tri_substitute_const():
    rng = random.Random(53)
    for _ in range(20):
        p = rand_tri(F8, 3, rng, nvars=3)
        a = rng.randrange(8)
        s = p.substitute_const(2, a)
        assert s.degree_in(2) in (NEG_INF, 0)
        for _ in range(6):
            x0, x1 = rng.randrange(8), rng.randrange(8)
            assert s.eval_at((x0, x1, 0)) == p.eval_at((x0, x1, a))


# ------------------------------------------------------- bivariate operations

def sylvester_resultant(a, b, field):
    """Oracle: determinant of the Sylvester matrix of two UniPolys."""
    m_, n_ = a.degree, b.degree
    if m_ is NEG_INF or n_ is NEG_INF:
        return 0
    m_, n_ = int(m_), int(n_)
    if m_ == 0 and n_ == 0:
        return 1
    size = m_ + n_
    rows = []
    ac = list(reversed(a.c))
    bc = list(reversed(b.c))
    for i in range(n_):
        rows.append([0] * i + ac + [0] * (size - m_ - 1 - i))
    for i in range(m_):
        rows.append([0] * i + bc + [0] * (size - n_ - 1 - i))
    det = 1
    for col in range(size):
        piv = None
        for r in range(col, size):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        rows[col], rows[piv] = rows[piv], rows[col]
        det = field.mul(det, rows[col][col])
        inv = field.inv(rows[col][col])
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = field.mul(rows[r][col], inv)
                for cc in range(col, size):
                    rows[r][cc] ^= field.mul(factor, rows[col][cc])
    return det


def test_bi_resultant_vs_sylvester_specialization():
    rng = random.Random(61)
    checked = 0
    for _ in range(40):
        p1 = rand_tri(F8, 3, rng)
        p2 = rand_tri(F8, 3, rng)
        if p1.is_zero or p2.is_zero:
            continue
        rows1 = tri_to_bi(p1)
        rows2 = tri_to_bi(p2)
        if len(rows1) < 2 or len(rows2) < 2:
            continue
        res = bi_resultant(p1, p2)
        for c in range(8):
            if rows1[-1].eval_at(c) == 0 or rows2[-1].eval_at(c) == 0:
                continue  # degree drop changes the specialized resultant
            s1 = UniPoly(F8, [r.eval_at(c) for r in rows1])
            s2 = UniPoly(F8, [r.eval_at(c) for r in rows2])
            assert res.eval_at(c) == sylvester_resultant(s1, s2, F8)
            checked += 1
    assert checked > 30


def test_bi_resultant_zero_iff_common_factor():
    rng = random.Random(67)
    g = TriPoly(F8, {(1, 0, 0): 1, (0, 1, 0): 3, (0, 0, 0): 2})
    a = g * rand_tri(F8, 2, rng)
    b = g * rand_tri(F8, 2, rng)
    if not a.is_zero and not b.is_zero:
        assert bi_resultant(a, b).is_zero


def test_bi_resultant_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    u, v = sympy.symbols("u v")
    rng = random.Random(71)
    for _ in range(12):
        p1 = rand_tri(F2, 4, rng)
        p2 = rand_tri(F2, 4, rng)
        if p1.is_zero or p2.is_zero:
            continue
        s1 = sum(int(c) * u ** e[0] * v ** e[1] for e, c in p1.terms.items())
        s2 = sum(int(c) * u ** e[0] * v ** e[1] for e, c in p2.terms.items())
        if s1 == 0 or s2 == 0:
            continue
        want = sympy.Poly(sympy.resultant(s1, s2, u), v, modulus=2)
        got = bi_resultant(p1, p2)
        got_sym = sympy.Poly(sum(int(c) * v ** i for i, c in enumerate(got.c)) + v * 0,
                             v, modulus=2)
        assert got_sym == want


def _content(p):
    return uni_gcd_many([r for r in tri_to_bi(p) if not r.is_zero])


def _swap(p):
    """p with x0 and x1 exchanged."""
    return TriPoly(p.field, {(e[1], e[0], e[2]): v
                             for e, v in p.terms.items()})


def _assert_is_gcd(a, b, got):
    """got divides a and b, leaves cofactors with no common factor (a
    nonzero resultant in x0 and coprime contents) and has a monic leading
    x0 coefficient."""
    ca = a.exact_divide(got)
    cb = b.exact_divide(got)
    assert not bi_resultant(ca, cb).is_zero
    assert uni_gcd(_content(ca), _content(cb)).degree == 0
    assert tri_to_bi(got)[-1].lead == 1


def _planted_pair(field, rng):
    g = TriPoly.zero(field)
    while g.total_degree < 1:
        g = rand_tri(field, rng.randrange(1, 4), rng)
    u = v = TriPoly.zero(field)
    while u.is_zero or v.is_zero:
        u = rand_tri(field, rng.randrange(0, 4), rng)
        v = rand_tri(field, rng.randrange(0, 4), rng)
    return g, g * u, g * v


def test_bi_gcd_common_factor():
    rng = random.Random(73)
    checked = 0
    for _ in range(15):
        g = rand_tri(F4, 2, rng)
        if g.is_zero or g.total_degree == 0:
            continue
        a = g * rand_tri(F4, 2, rng)
        b = g * rand_tri(F4, 2, rng)
        if a.is_zero or b.is_zero:
            continue
        got = bi_gcd(a, b)
        got.exact_divide(g)  # the planted factor divides the gcd
        _assert_is_gcd(a, b, got)
        checked += 1
    assert checked >= 10


def test_bi_gcd_coprime_is_constant():
    # x0 + x1 and x0 + x1 + 1 share no factor
    a = TriPoly(F2, {(1, 0, 0): 1, (0, 1, 0): 1})
    b = TriPoly(F2, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1})
    assert bi_gcd(a, b).total_degree == 0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bi_gcd_planted_pairs(m):
    # a = g*u and b = g*v, and the same pair with x0 and x1 exchanged:
    # the result is a multiple of g that divides both and leaves coprime
    # cofactors
    field = Field(m)
    rng = random.Random(100 + m)
    for _ in range(25):
        g, a, b = _planted_pair(field, rng)
        for swap in (False, True):
            if swap:
                g, a, b = _swap(g), _swap(a), _swap(b)
            got = bi_gcd(a, b)
            got.exact_divide(g)
            _assert_is_gcd(a, b, got)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bi_gcd_planted_contents(m):
    # pure-x1 factors c (shared), s and t (one side each) on top of random
    # parts of positive x0-degree: the content gcd must come out exactly
    field = Field(m)
    rng = random.Random(200 + m)
    x0 = TriPoly.var(field, 0)
    for _ in range(25):
        c, s, t = (bi_to_tri([rand_uni(field, rng.randrange(3), rng)], field)
                   for _ in range(3))
        u = rand_tri(field, 2, rng) * x0 + TriPoly.const(field, 1)
        v = rand_tri(field, 2, rng) * x0 + TriPoly.var(field, 1)
        a, b = c * s * u, c * t * v
        got = bi_gcd(a, b)
        got.exact_divide(c)
        _assert_is_gcd(a, b, got)


def _sympy_gf2(sympy, p):
    u, v = sympy.symbols("u v")
    return sympy.Poly.from_dict({e[:2]: 1 for e in p.terms}, u, v, modulus=2)


def test_bi_gcd_sympy_cross_check():
    # over GF(2) the normalized gcd is unique, so it must equal sympy's:
    # the infinity charts for d <= 17 against every lower chart and both
    # partial derivatives, then random planted pairs
    sympy = pytest.importorskip("sympy")

    def chart(d):
        return infinity_curve(d).substitute_const(2, 1)
    degrees = [d for d in range(3, 18) if d & (d - 1)]
    checked = 0
    for d in degrees[1:]:
        cd = chart(d)
        others = [chart(r) for r in degrees if r < d]
        for other in others + [cd.partial(0), cd.partial(1)]:
            if other.is_zero:
                continue
            want = sympy.gcd(_sympy_gf2(sympy, cd), _sympy_gf2(sympy, other))
            assert _sympy_gf2(sympy, bi_gcd(cd, other)) == want, (d, other)
            checked += 1
    assert checked > 80
    rng = random.Random(79)
    for _ in range(30):
        _, a, b = _planted_pair(F2, rng)
        want = sympy.gcd(_sympy_gf2(sympy, a), _sympy_gf2(sympy, b))
        assert _sympy_gf2(sympy, bi_gcd(a, b)) == want, (a, b)


def _cert_modulus(field):
    # the first evaluation point is 2, the class of x in the evaluation
    # field, the smallest GF(2^(m*k)) with m*k >= 8; so its minimal
    # polynomial over GF(2) is that field's modulus
    big = Field({1: 8, 2: 8, 3: 9, 4: 8}[field.m])
    return UniPoly(field, [(big.poly >> i) & 1 for i in range(big.m + 1)])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bi_gcd_unlucky_point(m):
    # x0 and x0 + mu(x1) are coprime, but their images at the first point
    # are both x0: the certificate fails and the remainder sequence decides
    field = Field(m)
    x0 = TriPoly.var(field, 0)
    mu = bi_to_tri([_cert_modulus(field)], field)
    a, b = x0, x0 + mu
    assert not mvpoly._bl_coprime_at_point(tri_to_bi(a), tri_to_bi(b), field)
    assert bi_gcd(a, b) == TriPoly.const(field, 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bi_gcd_skips_leading_coefficient_root(m):
    # h = mu(x1)*x0 + 1 loses its x0 term at the first point, where the
    # images of h*(x0 + 1) and h*x0 are the coprime x0 + 1 and x0; the
    # point must be skipped so the shared h is found
    field = Field(m)
    x0 = TriPoly.var(field, 0)
    one = TriPoly.const(field, 1)
    h = bi_to_tri([_cert_modulus(field)], field) * x0 + one
    assert bi_gcd(h * (x0 + one), h * x0) == h


def test_bi_gcd_certified_pair_skips_remainder_sequence(monkeypatch):
    def fail(*args):
        raise AssertionError("remainder sequence on a certified pair")
    monkeypatch.setattr(mvpoly, "_bl_pseudo_rem", fail)
    for d, r in ((9, 5), (11, 5), (13, 7), (17, 11)):
        a = infinity_curve(d).substitute_const(2, 1)
        b = infinity_curve(r).substitute_const(2, 1)
        assert bi_gcd(a, b) == TriPoly.const(F2, 1)


def test_bi_gcd_constant_operand_is_one_at_once(monkeypatch):
    # a nonzero constant shares nothing with any polynomial, zero included;
    # the answer needs no row conversion
    def fail(*args):
        raise AssertionError("rows built for a constant operand")
    x0 = TriPoly.var(F4, 0)
    x1 = TriPoly.var(F4, 1)
    p = (x0 + x1) * (x0 * x1 + TriPoly.const(F4, 1))
    monkeypatch.setattr(mvpoly, "tri_to_bi", fail)
    one = TriPoly.const(F4, 1)
    for c in (TriPoly.const(F4, 1), TriPoly.const(F4, 3)):
        for other in (p, c, TriPoly.zero(F4)):
            assert bi_gcd(c, other) == one
            assert bi_gcd(other, c) == one


def test_bivariate_api_fixes_the_variable_order():
    # rows are always indexed by x0; no function chooses its variables
    params = {f.__name__: list(inspect.signature(f).parameters)
              for f in (tri_to_bi, bi_to_tri, bi_gcd, bi_squarefree,
                        bi_factor, bi_resultant)}
    assert params == {"tri_to_bi": ["p"], "bi_to_tri": ["rows", "field"],
                      "bi_gcd": ["p1", "p2"], "bi_squarefree": ["p"],
                      "bi_factor": ["p"], "bi_resultant": ["p1", "p2"]}
    x0 = TriPoly.var(F4, 0)
    x1 = TriPoly.var(F4, 1)
    p = x0 * x0 * x1.scale(2) + x1 * x1 + x0
    rows = tri_to_bi(p)
    assert rows == [UniPoly(F4, [0, 0, 1]), UniPoly(F4, [1]),
                    UniPoly(F4, [0, 2])]
    assert bi_to_tri(rows, F4) == p
    # resultant in x0 of x0 + x1 and x0 + 1 is x1 + 1
    assert bi_resultant(x0 + x1, x0 + TriPoly.const(F4, 1)) == \
        UniPoly(F4, [1, 1])
    with pytest.raises(InvalidParameters):
        tri_to_bi(TriPoly.var(F4, 2))


def test_bi_squarefree_strips_multiplicity():
    x0 = TriPoly.var(F4, 0)
    x1 = TriPoly.var(F4, 1)
    one = TriPoly.const(F4, 1)
    f1 = x0 + x1
    f2 = x0 + x1 + one
    f3 = x0 * x0 + x0 * x1.scale(2) + x1 + one
    p = f1 * f1 * f2 * f3 * f3 * f3
    sf = bi_squarefree(p)
    for f_ in (f1, f2, f3):
        sf.exact_divide(f_)  # raises if not divisible
    assert sf.total_degree == f1.total_degree + f2.total_degree + f3.total_degree


def test_bi_squarefree_of_square():
    x0 = TriPoly.var(F4, 0)
    x1 = TriPoly.var(F4, 1)
    p = (x0 + x1).square().square()
    sf = bi_squarefree(p)
    assert sf == x0 + x1


def _squarefree_by_partials(p):
    return mvpoly._partials_gcd(p).total_degree == 0


def _squarefree_by_part(p):
    return bi_squarefree(p).total_degree == p.total_degree


def _nonconstant(field, rng, x0_degree=0):
    """A random TriPoly in x0, x1 of total degree >= 1 and x0-degree
    >= x0_degree."""
    while True:
        p = rand_tri(field, rng.randrange(1, 4), rng)
        if p.total_degree >= 1 and p.degree_in(0) >= x0_degree:
            return p


@pytest.mark.parametrize("m", [1, 2, 3])
def test_squarefree_test_matches_bi_squarefree(m):
    # planted products: a square factor of positive x0-degree, a square
    # factor in x1 alone (in the content only), a pure square (both
    # partials vanish), distinct lines, and constants; each is decided
    # as bi_squarefree decides it, and as planted where that is known
    field = Field(m)
    rng = random.Random(400 + m)
    x0, x1 = TriPoly.var(field, 0), TriPoly.var(field, 1)
    for _ in range(12):
        h = _nonconstant(field, rng, x0_degree=1)
        c = bi_to_tri([rand_uni(field, rng.randrange(1, 3), rng)], field)
        s = _nonconstant(field, rng)
        k = _nonconstant(field, rng)
        lines = TriPoly.const(field, 1)
        for ab in rng.sample(range(field.q ** 2), 3):
            a, b = divmod(ab, field.q)
            lines = lines * (x0 + x1.scale(a) + TriPoly.const(field, b))
        square = s * s
        assert square.partial(0).is_zero and square.partial(1).is_zero
        assert mvpoly._partials_gcd(square) is square
        for p, planted in ((h * h * k, False), (c * c * k, False),
                           (square, False), (lines, True), (lines * k, None),
                           (h * k, None)):
            got = _squarefree_by_partials(p)
            assert got == _squarefree_by_part(p), p
            assert planted is None or got == planted, p
    for v in range(1, field.q):
        assert _squarefree_by_partials(TriPoly.const(field, v))
        assert _squarefree_by_part(TriPoly.const(field, v))


def test_squarefree_test_on_infinity_charts():
    # odd d and d = 6 give squarefree charts; for even d >= 10 the curve
    # carries the square of the degree-d/2 curve, of positive degree
    for d in range(5, 36):
        if d & (d - 1):
            chart = infinity_curve(d).dehomogenize()
            got = _squarefree_by_partials(chart)
            assert got == (d % 2 == 1 or d == 6), d
            assert got == _squarefree_by_part(chart), d


def test_bi_factor_reconstructs():
    rng = random.Random(83)
    for field in (F2, F4, F8):
        for _ in range(12):
            p = rand_tri(field, 3, rng)
            if p.is_zero or p.total_degree == 0:
                continue
            p = bi_squarefree(p)
            if p.total_degree == 0:
                continue
            try:
                unit, facs = bi_factor(p)
            except Exception as exc:  # NoGoodEvaluationPoint is allowed here
                from apnsurf.errors import NoGoodEvaluationPoint

                assert isinstance(exc, NoGoodEvaluationPoint)
                continue
            acc = TriPoly.const(field, unit)
            for t in facs:
                acc = acc * t
            assert acc == p, f"reconstruction failed for {p!r}"
            # each reported factor must itself be irreducible
            for t in facs:
                if t.total_degree <= 0:
                    continue
                _, sub = bi_factor(t)
                assert len(sub) == 1


def test_bi_factor_matches_trial_division_oracle():
    # planted products of total degree <= 4 over GF(2) and <= 3 over GF(4),
    # factored as they are and with x0 and x1 exchanged; every factor must
    # pass the trial-division oracle and the factors must rebuild the input
    rng = random.Random(89)
    checked = {F2: 0, F4: 0}
    for field, top in ((F2, 4), (F4, 3)):
        for _ in range(60):
            p = TriPoly.const(field, rng.randrange(1, field.q))
            while p.total_degree < top:
                fac = rand_tri(field, rng.randrange(1, top - p.total_degree + 1),
                               rng)
                if fac.total_degree < 1:
                    continue
                p = p * fac
            p = bi_squarefree(p)
            if p.total_degree < 1:
                continue
            for q in (p, _swap(p)):
                try:
                    unit, facs = bi_factor(q)
                except NoGoodEvaluationPoint:
                    continue
                acc = TriPoly.const(field, unit)
                for t in facs:
                    acc = acc * t
                    assert bi_is_irreducible(t), f"{t!r} from {q!r} splits"
                assert acc == q, f"factors of {q!r} do not rebuild it"
                checked[field] += 1
    assert min(checked.values()) >= 80, checked


def _rand_shape(field, rng, k, tdeg):
    """A random TriPoly in x0, x1 of x0-degree k and total degree tdeg."""
    while True:
        t = {(j, i, 0): rng.randrange(1, field.q)
             for j in range(k + 1) for i in range(tdeg - j + 1)
             if rng.random() < 0.5}
        p = TriPoly(field, t)
        if p.degree_in(0) == k and p.total_degree == tdeg:
            return p


def _excess(p):
    return p.total_degree - p.degree_in(0)


@pytest.mark.parametrize("m", range(1, 5))
def test_bi_factor_tight_total_degree_bound(m):
    # G·H with H of excess tdeg - deg_x0 = 0 and G carrying all of the
    # excess: the top-degree term of G meets the recombination bound
    # j + deg_w <= k + excess(cur) with equality, so a bound one lower
    # rejects a true factor
    field = Field(m)
    rng = random.Random(97 + m)
    g_top, h_top = {1: (6, 4), 2: (4, 3), 3: (3, 3), 4: (3, 2)}[m]
    checked = 0
    while checked < 8:
        kg = rng.randrange(1, g_top)
        g = _rand_shape(field, rng, kg, rng.randrange(kg + 1, g_top + 1))
        kh = rng.randrange(1, h_top + 1)
        h = _rand_shape(field, rng, kh, kh)
        p = g * h
        if bi_squarefree(p).total_degree < p.total_degree:
            continue
        if not (bi_is_irreducible(g) and bi_is_irreducible(h)):
            continue
        assert _excess(h) == 0 and _excess(g) == _excess(p) > 0
        try:
            unit, facs = bi_factor(p)
        except NoGoodEvaluationPoint:
            continue
        want = [t.scale(field.inv(t.lead_term()[1])) for t in (g, h)]
        assert sorted(facs, key=repr) == sorted(want, key=repr), repr(p)
        assert TriPoly.const(field, unit) * facs[0] * facs[1] == p
        checked += 1


def test_bi_factor_non_monic_split():
    # both factors have a nonconstant leading coefficient in x0; the split
    # is only found when the series inverse of the leading coefficient is
    # carried to the full lifting precision
    x0 = TriPoly.var(F4, 0)
    x1 = TriPoly.var(F4, 1)
    one = TriPoly.const(F4, 1)
    a = x0 * x1 * x1 + x0 + x1
    b = x0.pow_(3) * (x1 * x1 + one) + x0.scale(2) + x1.scale(3) + one.scale(3)
    assert bi_factor(a * b) == (1, [a, b])


def test_bi_factor_split_example():
    x0 = TriPoly.var(F2, 0)
    x1 = TriPoly.var(F2, 1)
    one = TriPoly.const(F2, 1)
    p = (x0 + x1) * (x0 + x1 + one)
    unit, facs = bi_factor(p)
    assert unit == 1
    assert len(facs) == 2
    assert sorted(t.total_degree for t in facs) == [1, 1]


def test_bi_factor_degree_cap():
    x0 = TriPoly.var(F2, 0)
    with pytest.raises(DegreeCapExceeded):
        bi_factor(x0.pow_(33) + TriPoly.var(F2, 1))


def test_bi_factor_univariate_content():
    # v^2 + v times (u + v): content in the aux variable must be factored too
    x0 = TriPoly.var(F4, 0)
    x1 = TriPoly.var(F4, 1)
    p = (x1 * x1 + x1) * (x0 + x1)
    unit, facs = bi_factor(p)
    acc = TriPoly.const(F4, unit)
    for t in facs:
        acc = acc * t
    assert acc == p
    assert len(facs) == 3  # v, v + 1, u + v


def test_recombination_rejects_by_total_degree(monkeypatch):
    # every recombination candidate of the d = 15 and 19 charts fails the
    # total-degree test, so no trial division runs.  The cubic
    # below has excess tdeg - deg_x0 = 0, so row j of a factor of x0-degree
    # k has w-degree at most k - j; its one false candidate keeps every row
    # within w-degree k and is rejected only through the j
    def fail(*args):
        raise AssertionError("trial division of a recombination candidate")
    tried = []
    real = mvpoly._try_combo

    def counted(*args):
        tried.append(args[2])
        return real(*args)
    monkeypatch.setattr(mvpoly, "_bl_try_exact_div", fail)
    monkeypatch.setattr(mvpoly, "_try_combo", counted)
    for d in (15, 19):
        assert absolutely_irreducible(infinity_curve(d)).established, d
    assert len(tried) >= 600  # 51 for d = 15, 637 for d = 19
    x0 = TriPoly.var(F2, 0)
    x1 = TriPoly.var(F2, 1)
    p = x0.pow_(3) + x0 * x0 * x1 + x0 * x1 * x1 + x0 * x1 + TriPoly.const(F2, 1)
    assert bi_is_irreducible(p)
    assert bi_factor(p) == (1, [p])


def test_extension_is_one_embedding_per_field_and_degree():
    emb = extension(F4, 3)
    assert extension(F4, 3) is emb
    assert (emb.small, emb.big) == (F4, Field(6))
    assert extension(F8, 1).big == F8 and extension(F8, 1).map(5) == 5


# ---------------------------------------------------------- guarded results

def test_uni_factor_lost_factor_raises(monkeypatch):
    # an equal-degree split that drops its factors leaves a cofactor
    monkeypatch.setattr(mvpoly, "_edf", lambda block, i, rng: [])
    with pytest.raises(ApnToolError, match="cofactor of degree 2"):
        uni_factor(UniPoly(F2, [1, 1, 1]))


def test_uni_bezout_common_factor_raises():
    x = UniPoly(F2, [0, 1])
    y = x + UniPoly.one(F2)
    with pytest.raises(ApnToolError, match="share a factor of degree 1"):
        mvpoly._uni_bezout(x * y, y * y * y)


def test_bi_factor_repeated_specialization_raises(monkeypatch):
    # a univariate factorization that reports a square at the evaluation
    # point contradicts the squarefree check that chose the point
    real = mvpoly.uni_factor

    def doubled(p):
        unit, facs = real(p)
        return unit, [(f, 2) for f, _ in facs]
    monkeypatch.setattr(mvpoly, "uni_factor", doubled)
    x0 = TriPoly.var(F2, 0)
    x1 = TriPoly.var(F2, 1)
    one = TriPoly.const(F2, 1)
    with pytest.raises(ApnToolError, match="not squarefree"):
        bi_factor((x0 + x1) * (x0 + x1 + one))


# ------------------------------------------------- where elements are checked

X0 = TriPoly.var(F8, 0)

ENTRY_POINTS = {
    "Field.check": lambda v: F8.check(v),
    "Field.add": lambda v: F8.add(v, 1),
    "Field.mul": lambda v: F8.mul(1, v),
    "Field.inv": lambda v: F8.inv(v),
    "Field.div": lambda v: F8.div(v, 1),
    "Field.div divisor": lambda v: F8.div(1, v),
    "Field.pow_": lambda v: F8.pow_(v, 2),
    "Field.sqrt": lambda v: F8.sqrt(v),
    "PolyFunc": lambda v: PolyFunc(F8, [(3, v)]),
    "parse_poly binding": lambda v: parse_poly(F8, "x^3 + A*x^5", {"A": v}),
    "parse_family binding": lambda v: parse_family(F8, "x^3 + A*x^5",
                                                   {"A": v}),
    "SearchJob": lambda v: SearchJob(F8, [(3, v)], [5]),
    "TriPoly": lambda v: TriPoly(F8, {(1, 0, 0): v}),
    "TriPoly.const": lambda v: TriPoly.const(F8, v),
    "TriPoly.scale": lambda v: X0.scale(v),
    "TriPoly.eval_at": lambda v: X0.eval_at((1, v, 0)),
    "TriPoly.substitute_const": lambda v: X0.substitute_const(1, v),
    "Embedding.map": lambda v: Embedding(F8, F8).map(v),
}


@pytest.mark.parametrize("bad", [8, -1, 1.5, "1"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_elements(entry, bad):
    with pytest.raises(FieldMismatch):
        ENTRY_POINTS[entry](bad)


def _uni_ok(p):
    return (all(type(v) is int and 0 <= v < p.field.q for v in p.c)
            and (not p.c or p.c[-1] != 0))


def _tri_ok(p):
    return all(type(v) is int and 0 < v < p.field.q and len(e) == 3
               for e, v in p.terms.items())


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 18])
def test_computed_coefficients_stay_in_field(m):
    # past the entry points nothing rechecks a computed coefficient (see
    # the mvpoly docstring), so every result must hold ints in [0, q)
    # and TriPoly must store no zero; m = 18 has no log tables
    field = Field(m)
    small, big = (Field(m // 2), field) if m > 16 else (field, Field(2 * m))
    emb = Embedding(small, big)
    rng = random.Random(m)
    for _ in range(3 if m > 16 else 8):
        a = rand_uni(field, rng.randrange(1, 6), rng)
        b = rand_uni(field, rng.randrange(1, 4), rng)
        for p in (a + b, a * b, *divmod(a, b), uni_gcd(a, b),
                  (a * b).exact_div(b)):
            assert _uni_ok(p)
        s = rand_tri(field, 3, rng, nvars=3)
        x0, x1 = TriPoly.var(field, 0), TriPoly.var(field, 1)
        t = rand_tri(field, 2, rng, nvars=3) * x0 + x1  # never zero
        v = rng.randrange(field.q)
        outs = [s + t, s * t, (s * t).exact_divide(t),
                s.substitute_const(1, v), emb.map_tri(rand_tri(small, 3, rng))]
        outs += [s.partial(i) for i in range(3)]
        try:
            (s * t + TriPoly.const(field, 1)).exact_divide(t)
        except NotDivisible as e:
            outs.append(e.remainder)
        assert all(_tri_ok(p) for p in outs)
        u = rand_tri(field, 3, rng) * x0 + x1
        w = rand_tri(field, 2, rng) * x1 + x0
        assert _tri_ok(bi_gcd(u * w, w * w))
        assert _uni_ok(bi_resultant(_swap(u), _swap(w)))
        try:
            unit, facs = bi_factor(bi_squarefree(u * w))
        except NoGoodEvaluationPoint:
            continue
        assert type(unit) is int and 0 < unit < field.q
        assert all(_tri_ok(p) for p in facs)

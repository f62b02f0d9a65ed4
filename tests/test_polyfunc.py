"""Function representation: reduction, normalization, transforms, catalogue."""

import random

import pytest

from apnsurf.errors import (
    BecameZero,
    InvalidParameters,
    ParseError,
    ZeroScalar,
)
from apnsurf.gf2m import Field
from apnsurf.polyfunc import (
    PolyFunc,
    affine_transform,
    catalogue,
    is_q_affine,
    known_apn_exponent,
    normalize,
    parse_family,
    parse_poly,
)
from oracles import frobenius_twist

F8 = Field(3)
F16 = Field(4)
F32 = Field(5)


def rand_func(field, maxdeg, rng):
    terms = [(rng.randrange(maxdeg + 1), rng.randrange(field.q))
             for _ in range(rng.randrange(1, 6))]
    return PolyFunc(field, terms)


def test_exponent_folding_preserves_map():
    rng = random.Random(2)
    for _ in range(30):
        e = rng.randrange(8, 40)
        c = rng.randrange(1, 8)
        f = PolyFunc(F8, [(e, c)])
        assert f.degree < 8 or f.degree == 0
        for x in F8.elements():
            want = F8.mul(c, F8.pow_(x, e))
            assert f.evaluate(x) == want


def test_zero_coefficients_drop():
    f = PolyFunc(F8, [(5, 0), (3, 2)])
    assert f.terms() == [(3, 2)]
    assert PolyFunc(F8, [(4, 1), (4, 1)]).is_zero  # duplicate exponents cancel


def test_is_q_affine():
    assert is_q_affine(PolyFunc(F16, [(8, 3), (4, 1), (2, 5), (1, 9), (0, 7)]))
    assert not is_q_affine(PolyFunc(F16, [(3, 1)]))
    assert not is_q_affine(PolyFunc(F16, [(8, 1), (6, 2)]))


def test_normalize_strips_additive_part():
    f = PolyFunc(F16, [(9, 2), (8, 5), (4, 1), (3, 7), (0, 11)])
    g = normalize(f)
    assert g.terms() == [(3, 7), (9, 2)]
    with pytest.raises(BecameZero):
        normalize(PolyFunc(F16, [(8, 1), (2, 3), (0, 4)]))


def test_normalize_keeps_map_difference_additive():
    # f and normalize(f) differ by a function that is additive up to constant
    rng = random.Random(5)
    for _ in range(20):
        f = rand_func(F16, 14, rng)
        try:
            g = normalize(f)
        except BecameZero:
            continue
        h = [f.evaluate(x) ^ g.evaluate(x) for x in F16.elements()]
        base = h[0]
        for x in F16.elements():
            for y in F16.elements():
                assert h[x] ^ base ^ (h[y] ^ base) == (h[x ^ y] ^ base)


def brute_delta(f):
    q = f.field.q
    best = 0
    for a in range(1, q):
        counts = {}
        for x in range(q):
            b = f.evaluate(x ^ a) ^ f.evaluate(x)
            counts[b] = counts.get(b, 0) + 1
        best = max(best, max(counts.values()))
    return best


def test_affine_transform_is_composition():
    rng = random.Random(7)
    for _ in range(25):
        f = rand_func(F8, 7, rng)
        a = rng.randrange(1, 8)
        b = rng.randrange(8)
        c = rng.randrange(1, 8)
        g = affine_transform(f, a, b, c)
        for x in F8.elements():
            want = F8.mul(c, f.evaluate(F8.mul(a, x) ^ b))
            assert g.evaluate(x) == want


def test_affine_transform_preserves_uniformity():
    rng = random.Random(9)
    for _ in range(10):
        f = rand_func(F8, 7, rng)
        if f.is_zero:
            continue
        a = rng.randrange(1, 8)
        b = rng.randrange(8)
        c = rng.randrange(1, 8)
        g = affine_transform(f, a, b, c)
        assert brute_delta(f) == brute_delta(g)


def test_affine_transform_rejects_zero_scales():
    f = PolyFunc(F8, [(3, 1)])
    with pytest.raises(ZeroScalar):
        affine_transform(f, 0, 1, 1)
    with pytest.raises(ZeroScalar):
        affine_transform(f, 1, 1, 0)


def test_frobenius_twist_is_squared_map():
    rng = random.Random(13)
    for _ in range(15):
        f = rand_func(F16, 14, rng)
        g = frobenius_twist(f)
        for x in F16.elements():
            v = f.evaluate(x)
            assert g.evaluate(x) == F16.mul(v, v)


# ------------------------------------------------------------ known families

def test_known_exponents_frozen_values():
    assert known_apn_exponent("gold", 5, 1) == 3
    assert known_apn_exponent("gold", 5, 2) == 5
    assert known_apn_exponent("kasami", 5, 2) == 13
    assert known_apn_exponent("kasami", 4, 3) == 57
    assert known_apn_exponent("welch", 5) == 7
    assert known_apn_exponent("welch", 9) == 19
    assert known_apn_exponent("niho", 5) == 5
    assert known_apn_exponent("niho", 7) == 39
    assert known_apn_exponent("niho", 9) == 19
    assert known_apn_exponent("inverse", 3) == 6
    assert known_apn_exponent("inverse", 5) == 30
    assert known_apn_exponent("dobbertin", 5) == 29
    assert known_apn_exponent("dobbertin", 10) == 339


def test_known_exponent_validation():
    with pytest.raises(InvalidParameters):
        known_apn_exponent("gold", 6, 2)  # gcd(2, 6) != 1
    with pytest.raises(InvalidParameters):
        known_apn_exponent("welch", 6)
    with pytest.raises(InvalidParameters):
        known_apn_exponent("welch", 5, h=1)
    with pytest.raises(InvalidParameters):
        known_apn_exponent("dobbertin", 7)
    with pytest.raises(InvalidParameters):
        known_apn_exponent("golf", 5, 1)


def test_catalogue_contents():
    cat = catalogue(5)
    fams = {(fam, h) for fam, h, _ in cat}
    assert ("gold", 1) in fams
    assert ("kasami", 3) in fams
    assert ("welch", None) in fams
    assert ("dobbertin", None) in fams
    # every entry valid and uniquely keyed
    assert len(fams) == len(cat)
    cat6 = catalogue(6)
    assert all(fam in ("gold", "kasami") for fam, _, _ in cat6)


# ------------------------------------------------------------------- parsing

def test_parse_poly_basics():
    f = parse_poly(F16, "x^9 + 3*x^6 + x")
    assert f.terms() == [(1, 1), (6, 3), (9, 1)]
    g = parse_poly(F16, "0xa * x^3 + 1")
    assert g.terms() == [(0, 1), (3, 10)]


def test_parse_poly_bindings():
    f = parse_poly(F16, "x^9 + a*x^6 + b*x^3", {"a": 7, "b": 2})
    assert f.terms() == [(3, 2), (6, 7), (9, 1)]
    with pytest.raises(ParseError):
        parse_poly(F16, "x^9 + a*x^6")


def test_parse_poly_rejects_garbage():
    for bad in ("", "x^", "x +", "x^2 ++ x", "x - 1", "3..2", "x^2 & x"):
        with pytest.raises(ParseError):
            parse_poly(F16, bad)


def test_parse_poly_constant_products():
    f = parse_poly(F8, "2*3*x")
    assert f.terms() == [(1, F8.mul(2, 3))]
    g = parse_poly(F8, "2^3*x")
    assert g.terms() == [(1, F8.pow_(2, 3))]


def test_parse_poly_double_star_is_power():
    # docs/schema.md documents "**" as a power, like "^", not a product
    assert parse_poly(F16, "x**3") == parse_poly(F16, "x^3")
    assert parse_poly(F16, "x**3").terms() == [(3, 1)]
    assert parse_poly(F8, "2**3*x") == parse_poly(F8, "2^3*x")
    with pytest.raises(ParseError):
        parse_poly(F16, "x***3")


def test_parse_family():
    fixed, free = parse_family(F16, "x^9 + A*x^6 + B*x^3 + x")
    assert fixed == [(9, 1), (1, 1)]
    assert free == [("A", 6), ("B", 3)]
    with pytest.raises(ParseError):
        parse_family(F16, "A*x^3 + A*x^5")
    with pytest.raises(ParseError):
        parse_family(F16, "2*A*x^3")


def test_parse_family_with_bindings():
    fixed, free = parse_family(F16, "x^7 + A*x^6 + B*x^5", {"A": 3})
    assert fixed == [(7, 1), (6, 3)]
    assert free == [("B", 5)]

"""Function representation: reduction, normalization, transforms, catalogue."""

import random
import tracemalloc

import pytest
from oracles import evaluate

from apnsurf.errors import (
    ApnToolError,
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


def test_map_is_its_sorted_terms():
    # x^18 folds onto x^3 at q = 16
    f = PolyFunc(F16, [(9, 3), (18, 2), (0, 5), (3, 1)])
    assert f.terms() == [(0, 5), (3, 3), (9, 3)] and f.degree == 9
    assert repr(f) == "PolyFunc(0x3*x^9 + 0x3*x^3 + 0x5)"
    assert f == PolyFunc(F16, [(0, 5), (9, 3), (3, 3)])
    assert hash(f) == hash(PolyFunc(F16, [(3, 3), (9, 3), (0, 5)]))
    zero = PolyFunc(F16, [(3, 1), (18, 1)])
    assert zero.is_zero and zero.terms() == [] and zero.degree == float("-inf")


def test_large_exponent_map_stays_small():
    # a map keeps its terms only, not a coefficient per degree
    field = Field(20)
    tracemalloc.start()
    try:
        f = PolyFunc(field, [(2 ** 20 - 2, 1)])
        assert f.terms() == [(2 ** 20 - 2, 1)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    g = PolyFunc(Field(32), [(2 ** 32 - 2, 1), (3, 1)])
    assert g.degree == 2 ** 32 - 2 and len(g.terms()) == 2


def test_exponent_folding_preserves_map():
    rng = random.Random(2)
    for _ in range(30):
        e = rng.randrange(8, 40)
        c = rng.randrange(1, 8)
        f = PolyFunc(F8, [(e, c)])
        assert f.degree < 8 or f.degree == 0
        for x in F8.elements():
            want = F8.mul(c, F8.pow_(x, e))
            assert evaluate(f, x) == want


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
        h = [evaluate(f, x) ^ evaluate(g, x) for x in F16.elements()]
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
            b = evaluate(f, x ^ a) ^ evaluate(f, x)
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
            want = F8.mul(c, evaluate(f, F8.mul(a, x) ^ b))
            assert evaluate(g, x) == want


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
            v = evaluate(f, x)
            assert evaluate(g, x) == F16.mul(v, v)


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


def test_repr_round_trips_through_parse_poly():
    rng = random.Random(22)
    for m in range(1, 9):
        field = Field(m)
        for _ in range(40):
            f = rand_func(field, 3 * field.q, rng)
            text = repr(f)[len("PolyFunc("):-1]
            assert parse_poly(field, text) == f, (m, text)


# text, parser, bindings, and the terms (parse_poly), the (fixed, free)
# pair (parse_family) or ParseError: the accepted language over GF(16)
LANGUAGE = [
    ("2*3*x", parse_poly, {}, [(1, 6)]),
    ("2^3*x", parse_poly, {}, [(1, 8)]),
    ("x**3", parse_poly, {}, [(3, 1)]),
    ("0xa*x^3 + 1", parse_poly, {}, [(0, 1), (3, 10)]),
    ("a*x^3 + 2*x*x", parse_poly, {"a": 3}, [(2, 2), (3, 3)]),
    ("2^15*A*x^3 + a*x^5", parse_family, {"a": 2},
     ([(5, 2)], [("A", 3)])),
    # at most one letter per term, bound or free
    ("a*b*x", parse_poly, {"a": 1, "b": 2}, ParseError),
    ("a*b*x", parse_family, {"a": 1, "b": 2}, ParseError),
    ("a*B*x", parse_family, {"a": 1}, ParseError),
    # a free letter appears once, with no constant other than 1
    ("2*A*x", parse_family, {}, ParseError),
    ("A*x^3 + A*x^5", parse_family, {}, ParseError),
    # parse_poly leaves no letter free
    ("x^3 + a*x^5", parse_poly, {}, ParseError),
    ("x^3 + a*x^5", parse_poly, {"b": 1}, ParseError),
    # a digit int() reads is a digit; a superscript is not
    ("x^\u0663", parse_poly, {}, [(3, 1)]),
    ("x^\u00b2", parse_poly, {}, ParseError),
]


@pytest.mark.parametrize("text, parser, bindings, want", LANGUAGE,
                         ids=[f"{t}-{p.__name__}" for t, p, _, _ in LANGUAGE])
def test_language(text, parser, bindings, want):
    if want is ParseError:
        with pytest.raises(ParseError):
            parser(F16, text, bindings)
        return
    got = parser(F16, text, bindings)
    assert (got.terms() if parser is parse_poly else got) == want


def test_random_token_strings_raise_only_tool_errors():
    tokens = ["x", "X", "^", "**", "*", "+", "(", ")", "-", "0", "1", "3",
              "15", "16", "99", "0xa", "0x", "0xZ", "a", "A", "b", " ", "$",
              "\u00b2"]
    rng = random.Random(7)
    accepted = 0
    for _ in range(3000):
        text = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 9)))
        for parse in (lambda: parse_poly(F16, text, {"a": 3, "b": 99}),
                      lambda: parse_family(F16, text, {"a": 3})):
            try:
                parse()
                accepted += 1
            except ApnToolError:
                pass
    assert accepted > 100

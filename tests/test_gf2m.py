"""Field arithmetic against independent oracles."""

import random

import pytest

from apnsurf.errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidParameters,
    ReduciblePolynomial,
)
from apnsurf import gf2m
from apnsurf.gf2m import Field, _pmulmod, default_modulus, is_irreducible


def schoolbook_mul(a, b, mod, m):
    """Oracle: carry-less convolution, then long division by the modulus."""
    acc = 0
    for i in range(m):
        if (a >> i) & 1:
            acc ^= b << i
    while acc.bit_length() > m:
        acc ^= mod << (acc.bit_length() - m - 1)
    return acc


# frozen: smallest irreducible of each degree, cross-checked below with sympy
EXPECTED_MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
}


def test_default_moduli_frozen():
    for m, mask in EXPECTED_MODULI.items():
        assert default_modulus(m) == mask


def test_default_moduli_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for m in range(1, 17):
        mask = default_modulus(m)
        coeffs = [(mask >> (m - i)) & 1 for i in range(m + 1)]
        p = sympy.Poly(coeffs, x, modulus=2)
        assert p.is_irreducible
        # smallest: every odd mask below it with the degree bit set is reducible
        for other in range(1 << m | 1, mask, 2):
            assert not is_irreducible(other)


@pytest.mark.parametrize("m", range(1, 7))
def test_mul_exhaustive_vs_schoolbook(m):
    f = Field(m)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == schoolbook_mul(a, b, f.poly, m)


def test_mul_large_field_sampled(monkeypatch):
    # no tables above m = 16: the scalar ops run shift-and-add
    rng = random.Random(7)
    calls = []

    def counted(a, b, mod):
        calls.append(mod)
        return _pmulmod(a, b, mod)
    fields = [Field(m) for m in (17, 20, 32)]
    monkeypatch.setattr(gf2m, "_pmulmod", counted)
    for f in fields:
        m = f.m
        with pytest.raises(InvalidParameters):
            f.tables()
        calls.clear()
        for _ in range(200):
            a = rng.randrange(f.q)
            b = rng.randrange(f.q)
            assert f.mul(a, b) == schoolbook_mul(a, b, f.poly, m)
            if b:
                assert schoolbook_mul(f.div(a, b), b, f.poly, m) == a
            s = f.sqrt(a)
            assert schoolbook_mul(s, s, f.poly, m) == a
            a3 = schoolbook_mul(a, schoolbook_mul(a, a, f.poly, m), f.poly, m)
            assert f.pow_(a, 3) == a3
        assert calls and set(calls) == {f.poly}


@pytest.mark.parametrize("m", range(1, 9))
def test_frobenius_fixed_by_pow_q(m):
    f = Field(m)
    for a in f.elements():
        assert f.pow_(a, f.q) == a


@pytest.mark.parametrize("m", range(1, 9))
def test_inverse_roundtrip(m):
    f = Field(m)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_pow_matches_repeated_mul():
    f = Field(5)
    for a in f.elements():
        acc = 1
        for e in range(12):
            assert f.pow_(a, e) == acc
            acc = f.mul(acc, a)


def test_sqrt_inverts_squaring():
    for m in (1, 3, 4, 8, 11):
        f = Field(m)
        rng = random.Random(m)
        for _ in range(50):
            a = rng.randrange(f.q)
            assert f.sqrt(f.mul(a, a)) == a


@pytest.mark.parametrize("m", range(1, 9))
def test_trace_properties(m):
    f = Field(m)
    vals = [f.trace(a) for a in f.elements()]
    assert set(vals) <= {0, 1}
    assert sum(vals) == f.q // 2  # trace is balanced
    for a in f.elements():
        assert f.trace(f.mul(a, a)) == f.trace(a)
        for b in f.elements():
            assert f.trace(a ^ b) == f.trace(a) ^ f.trace(b)
    if m % 2 == 1:
        assert f.trace(1) == 1


def test_trace_direct_sum_oracle():
    for m in (2, 3, 5, 6, 18):
        f = Field(m)
        rng = random.Random(m)
        for _ in range(30):
            a = rng.randrange(f.q)
            t = 0
            s = a
            for _ in range(m):
                t ^= s
                s = f.mul(s, s)
            assert t in (0, 1)
            assert f.trace(a) == t


def test_generator_has_full_order():
    for m in (2, 3, 8, 12):
        f = Field(m)
        g = f.generator
        seen = set()
        acc = 1
        for _ in range(f.q - 1):
            seen.add(acc)
            acc = f.mul(acc, g)
        assert len(seen) == f.q - 1
        assert acc == 1


def test_elements_order():
    f = Field(4)
    assert list(f.elements()) == list(range(16))


def test_constructor_validation():
    with pytest.raises(InvalidParameters):
        Field(0)
    with pytest.raises(InvalidParameters):
        Field(33)
    with pytest.raises(DegreeMismatch):
        Field(4, poly=0b1011)
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(ReduciblePolynomial):
        Field(4, poly=0b10101)


def test_field_mismatch_on_out_of_range():
    f = Field(3)
    with pytest.raises(FieldMismatch):
        f.mul(8, 1)
    with pytest.raises(FieldMismatch):
        f.add(1, -1)
    with pytest.raises(FieldMismatch):
        f.trace(3.5)


def test_field_equality_and_custom_modulus():
    a = Field(4)
    b = Field(4)
    c = Field(4, poly=0b11001)  # x^4 + x^3 + 1, also irreducible
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


def test_mul_vec_matches_scalar():
    import numpy as np

    f = Field(6)
    rng = random.Random(3)
    a = np.array([rng.randrange(f.q) for _ in range(300)], dtype=np.int64)
    b = np.array([rng.randrange(f.q) for _ in range(300)], dtype=np.int64)
    out = f.mul_vec(a, b)
    for i in range(len(a)):
        assert out[i] == f.mul(int(a[i]), int(b[i]))


def test_pair_table_gives_traces_of_products():
    f = Field(5)
    pm = f.pair_table()
    for x in f.elements():
        for u in f.elements():
            expected = f.trace(f.mul(u, x))
            assert (int(pm[x]) & u).bit_count() & 1 == expected


@pytest.mark.parametrize("m", range(1, 17))
def test_scalar_ops_match_shift_and_add(m):
    # mul, inv and div on every pair at m <= 8 and on 20k sampled pairs
    # above; pow_ (at e = 0, at and beyond q, and at a = 0) and sqrt on
    # every element or on 256 sampled ones; every result a builtin int
    f = Field(m)
    rng = random.Random(m)
    if m <= 8:
        pairs = [(a, b) for a in f.elements() for b in f.elements()]
        elements = list(f.elements())
    else:
        pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(20000)]
        elements = [0] + [a for a, _ in pairs[:255]]
    for a, b in pairs:
        ab = f.mul(a, b)
        assert type(ab) is int and ab == _pmulmod(a, b, f.poly), (a, b)
        if b:
            ib = f.inv(b)
            assert type(ib) is int and _pmulmod(b, ib, f.poly) == 1, b
            q = f.div(a, b)
            assert type(q) is int and _pmulmod(q, b, f.poly) == a, (a, b)
    exps = [0, 1, 2, f.q - 2, f.q - 1, f.q, f.q + 1, 3 * f.q + 5,
            rng.randrange(f.q)]
    for a in elements:
        for e in exps:
            got = f.pow_(a, e)
            assert type(got) is int and got == f._pow_raw(a, e), (a, e)
        s = f.sqrt(a)
        assert type(s) is int and _pmulmod(s, s, f.poly) == a, a
    if m <= 8:
        # the kernels' numpy tables give the same products, zero included
        import numpy as np

        xs = np.array([a for a, _ in pairs], dtype=np.int64)
        ys = np.array([b for _, b in pairs], dtype=np.int64)
        assert f.mul_vec(xs, ys).tolist() == [f.mul(a, b) for a, b in pairs]

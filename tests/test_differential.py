"""Differential spectra and Walsh fingerprints against brute-force oracles."""

import random

import pytest

from apnsurf import kernels
from apnsurf.differential import (
    DifferentialSpectrum,
    differential_spectrum,
    fingerprint_digest,
    is_apn,
    walsh_fingerprint,
)
from apnsurf.errors import FieldTooLarge
from apnsurf.gf2m import Field
from apnsurf.polyfunc import PolyFunc, affine_transform
from oracles import evaluate, frobenius_twist, trace_py

F8 = Field(3)
F16 = Field(4)


def brute_spectrum(f):
    """Oracle: dictionary court of solution counts via direct evaluation."""
    q = f.field.q
    vals = [evaluate(f, x) for x in range(q)]
    counts = {}
    for a in range(1, q):
        per_b = [0] * q
        for x in range(q):
            per_b[vals[x ^ a] ^ vals[x]] += 1
        for c in per_b:
            counts[c] = counts.get(c, 0) + 1
    return counts


def brute_walsh(f):
    """Oracle: Walsh values by the defining double sum."""
    fld = f.field
    q = fld.q
    vals = [evaluate(f, x) for x in range(q)]
    out = {}
    for b in range(1, q):
        for a in range(q):
            s = 0
            for x in range(q):
                e = (trace_py(fld, fld.mul(b, vals[x]))
                     ^ trace_py(fld, fld.mul(a, x)))
                s += 1 - 2 * e
            out[s] = out.get(s, 0) + 1
    return out


def rand_func(field, rng):
    terms = [(rng.randrange(1, field.q), rng.randrange(field.q))
             for _ in range(rng.randrange(1, 5))]
    return PolyFunc(field, terms)


def test_spectrum_matches_brute_force():
    rng = random.Random(3)
    for field in (Field(2), F8, F16):
        for _ in range(12):
            f = rand_func(field, rng)
            spec = differential_spectrum(f)
            assert spec.counts == brute_spectrum(f)


def test_spectrum_invariants():
    rng = random.Random(19)
    for _ in range(15):
        f = rand_func(F16, rng)
        spec = differential_spectrum(f)
        q = 16
        # counts are even, pairs per derivative sum to q
        assert all(c % 2 == 0 for c in spec.counts)
        assert sum(c * n for c, n in spec.counts.items()) == (q - 1) * q
        assert sum(spec.counts.values()) == (q - 1) * q
        assert spec.delta >= 2


def test_gold_map_is_uniformity_two():
    for m in (3, 4, 5, 6):
        f = PolyFunc(Field(m), [(3, 1)])
        assert is_apn(f)
        assert differential_spectrum(f).delta == 2


def test_inverse_map_even_degree_is_four():
    f = PolyFunc(F16, [(14, 1)])
    spec = differential_spectrum(f)
    assert spec.delta == 4
    assert spec.delta == max(brute_spectrum(f))
    assert not is_apn(f)


def test_is_apn_agrees_with_spectrum():
    rng = random.Random(23)
    for _ in range(40):
        f = rand_func(F8, rng)
        assert is_apn(f) == (differential_spectrum(f).delta == 2)


def test_spectrum_invariant_under_frobenius():
    rng = random.Random(29)
    for _ in range(10):
        f = rand_func(F16, rng)
        assert differential_spectrum(f) == differential_spectrum(frobenius_twist(f))


def test_field_size_gate():
    f = PolyFunc(Field(17), [(3, 1)])
    with pytest.raises(FieldTooLarge):
        is_apn(f)
    with pytest.raises(FieldTooLarge):
        differential_spectrum(f)
    with pytest.raises(FieldTooLarge):
        walsh_fingerprint(f)


def test_walsh_matches_brute_force():
    rng = random.Random(31)
    for field in (Field(2), F8):
        for _ in range(6):
            f = rand_func(field, rng)
            assert walsh_fingerprint(f) == brute_walsh(f)


def test_walsh_gold_values():
    # a uniformity-two power map on GF(8) has Walsh values in {0, +-4}
    fp = walsh_fingerprint(PolyFunc(F8, [(3, 1)]))
    assert set(fp) <= {0, 4, -4}
    total = sum(fp.values())
    assert total == 7 * 8


def test_walsh_invariance_under_equivalence():
    # linear substitution, output scaling, and added linearized terms all
    # permute the Walsh value multiset
    rng = random.Random(37)
    for _ in range(8):
        f = rand_func(F16, rng)
        if f.is_zero:
            continue
        fp = walsh_fingerprint(f)
        a = rng.randrange(1, 16)
        c = rng.randrange(1, 16)
        assert walsh_fingerprint(affine_transform(f, a, 0, c)) == fp
        lin = PolyFunc(F16, [(1, rng.randrange(16)), (2, rng.randrange(16)),
                             (4, rng.randrange(16))])
        assert walsh_fingerprint(PolyFunc(F16, f.terms() + lin.terms())) == fp


def scaling_maps(field, rng, reps):
    """The zero map plus reps maps of each shape whose scaling group G
    the row reduction depends on: monomials, exponents in a common
    progression (nontrivial G at composite q - 1), the same with a
    constant term, and random maps; exponents run up to 3q."""
    q = field.q
    n = q - 1
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    yield PolyFunc(field, [])
    for _ in range(reps):
        yield PolyFunc.monomial(field, rng.randrange(1, 3 * q),
                                rng.randrange(1, q))
        d = rng.choice(divisors)
        e0 = rng.randrange(1, 3 * q)
        prog = [(e0 + j * d, rng.randrange(1, q))
                for j in range(rng.randrange(1, 4))]
        yield PolyFunc(field, prog)
        yield PolyFunc(field, [(0, rng.randrange(1, q))] + prog)
        yield PolyFunc(field, [(rng.randrange(3 * q), rng.randrange(q))
                               for _ in range(rng.randrange(1, 5))])


def test_scaling_rows_match_full_rows(monkeypatch):
    # the kernels on the coset representatives of G (or H) against the
    # same kernels walking every nonzero row
    def full(fn, f):
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "scaling_rows", lambda field, terms: (None, None))
            return fn(f)

    def count(f):
        return kernels.count_affine(f.terms(), f.field)

    rng = random.Random(41)
    reduced = constants = 0
    for m in range(1, 8):
        field = Field(m)
        for f in scaling_maps(field, rng, 8):
            for fn in (differential_spectrum, is_apn, walsh_fingerprint, count):
                assert fn(f) == full(fn, f), (fn.__name__, f)
            (avals, g), (bvals, h) = kernels.scaling_rows(field, f.terms())
            assert len(avals) * g == len(bvals) * h == field.q - 1
            reduced += g > 1 and field.q > 2
            constants += any(e == 0 for e, _ in f.terms())
    assert reduced > 100 and constants > 40


def test_scaling_group_orders():
    field = F16
    powers = [field.pow_(field.generator, i) for i in range(15)]
    cases = [
        ([], 15, 1),
        ([(3, 1)], 15, 5),            # x^3: G = F*, H = cubes
        ([(7, 2)], 15, 15),           # gcd(7, 15) = 1: H = F*
        ([(0, 1), (3, 1)], 3, 1),     # the constant keeps 0 in the gcd
        ([(3, 1), (9, 5)], 3, 1),     # difference 6: g = gcd(15, 6)
        ([(1, 1), (6, 1), (11, 1)], 5, 5),
        ([(3, 1), (5, 1)], 1, 1),
    ]
    for terms, g, h in cases:
        (avals, wg), (bvals, wh) = kernels.scaling_rows(field, terms)
        assert (wg, wh) == (g, h), terms
        assert list(avals) == powers[:15 // g]
        assert list(bvals) == powers[:15 // h]
    assert [list(r) for r, _ in kernels.scaling_rows(Field(1), [(3, 1)])] \
        == [[1], [1]]


def test_power_map_closed_forms():
    # Gold x^3 has uniformity two at every m; the inverse map at even m
    # has counts 0, 2 and 4 (one 4 per derivative).  m = 15, 16 take one
    # derivative row each.
    for m in (4, 6, 8, 15, 16):
        field = Field(m)
        q = field.q
        half = q * (q - 1) // 2
        assert differential_spectrum(PolyFunc.monomial(field, 3)).counts \
            == {0: half, 2: half}
        if m % 2 == 0:
            spec = differential_spectrum(PolyFunc.monomial(field, q - 2))
            assert spec.counts == {0: (q - 1) * (q + 2) // 2,
                                   2: (q - 1) * (q - 4) // 2, 4: q - 1}


def test_fingerprint_digest_stable():
    fp1 = walsh_fingerprint(PolyFunc(F8, [(3, 1)]))
    fp2 = walsh_fingerprint(PolyFunc(F8, [(3, 1)]))
    assert fingerprint_digest(fp1) == fingerprint_digest(fp2)
    fp3 = walsh_fingerprint(PolyFunc(F8, [(7, 1)]))
    assert fingerprint_digest(fp3) != fingerprint_digest(fp1)


def test_spectrum_object_shape():
    s = DifferentialSpectrum(3, {0: 10, 2: 46})
    assert s.delta == 2
    assert repr(s)

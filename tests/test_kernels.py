"""Backend agreement: the vectorized numpy paths must match the scalar loops."""

import random

import numpy as np

from apnsurf import kernels
from apnsurf.gf2m import Field
from apnsurf.polyfunc import PolyFunc

F16 = Field(4)


def rand_table(field, rng):
    terms = [(rng.randrange(1, field.q), rng.randrange(field.q))
             for _ in range(rng.randrange(1, 4))]
    return kernels.value_table(field, PolyFunc(field, terms).terms())


def test_power_table_matches_scalar():
    for field in (Field(1), Field(3), F16):
        for e in (0, 1, 2, 3, field.q - 1, field.q):
            tab = kernels.power_table(field, e)
            for x in range(field.q):
                assert tab[x] == field.pow_(x, e)


def test_value_table_matches_scalar():
    rng = random.Random(2)
    for _ in range(8):
        terms = [(rng.randrange(1, 16), rng.randrange(16)) for _ in range(3)]
        f = PolyFunc(F16, terms)
        tab = kernels.value_table(F16, f.terms())
        assert tab.tolist() == [f.evaluate(x) for x in range(16)]
        assert np.array_equal(f.value_table(), tab)


# every nonzero row, the coset representatives of the subgroups of order
# 3 and 5, and an arbitrary subset in arbitrary order
ROW_SETS = [np.arange(1, 16, dtype=np.int64), F16._exp[:5], F16._exp[:3],
            np.array([9, 2, 14], dtype=np.int64)]


def test_spectrum_backends_agree():
    rng = random.Random(5)
    for _ in range(10):
        tab = rand_table(F16, rng)
        for rows in ROW_SETS:
            ref = kernels._spectrum_hist_py(tab, 16, rows)
            alt = kernels._spectrum_hist_np(tab, 16, rows)
            assert np.array_equal(np.asarray(ref), np.asarray(alt))


def test_is_apn_backends_agree():
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(40):
        tab = rand_table(F16, rng)
        for rows in ROW_SETS:
            r = bool(kernels._is_apn_py(tab, 16, rows))
            assert r == bool(kernels._is_apn_np(tab, 16, rows))
            seen[r] += 1
    assert seen[False] > 0


def test_walsh_backends_agree():
    rng = random.Random(11)
    par = kernels._parity_table(16).astype(np.int64)
    for _ in range(8):
        perm = np.array(rng.sample(range(16), 16), dtype=np.int64)
        for rows in ROW_SETS:
            ref = kernels._walsh_hist_py(perm, par, 16, rows)
            alt = kernels._walsh_hist_np(perm, par, 16, rows)
            assert np.array_equal(np.asarray(ref), np.asarray(alt))


def test_scan_backends_agree_and_hits_verify():
    field = F16
    q = field.q
    ext, log, _ = field.tables()
    fixed = kernels.value_table(field, [(3, 1)])
    monos = np.stack([kernels.power_table(field, 5),
                      kernels.power_table(field, 6)])
    hits_a = np.zeros(q * q, dtype=np.int64)
    hits_b = np.zeros(q * q, dtype=np.int64)
    na = kernels._scan_py(fixed, monos, q, 2, 0, q * q, ext, log, hits_a)
    nb = kernels._scan_np(fixed, monos, q, 2, 0, q * q, ext, log, hits_b)
    assert na == nb
    assert np.array_equal(hits_a[:na], hits_b[:nb])
    # every reported hit is a uniformity-two candidate; spot-check misses too
    hit_set = set(int(h) for h in hits_a[:na])
    for idx in range(0, q * q, 37):
        a5 = idx % q
        a6 = idx // q
        f = PolyFunc(field, [(3, 1), (5, a5), (6, a6)])
        tab = kernels.value_table(field, f.terms())
        assert bool(kernels._is_apn_py(tab, q, np.arange(1, q))) == (idx in hit_set)
    for idx in list(hits_a[:4]):
        f = PolyFunc(field, [(3, 1), (5, int(idx) % q), (6, int(idx) // q)])
        tab = kernels.value_table(field, f.terms())
        assert kernels._is_apn_py(tab, q, np.arange(1, q))


def test_scan_cap_reports_true_count():
    field = Field(3)
    q = field.q
    fixed = kernels.value_table(field, [(3, 1)])
    monos = np.stack([kernels.power_table(field, 2)])
    # adding c*x^2 never changes the uniformity, so every candidate survives
    hits, n = kernels.scan_range(fixed, monos, field, 0, q, cap=2)
    assert n == q
    assert len(hits) == 2
    assert list(hits) == [0, 1]


def test_scan_range_dispatch():
    field = Field(3)
    q = field.q
    fixed = kernels.value_table(field, [(5, 1)])  # x^5 on GF(8) is not uniformity two
    monos = np.stack([kernels.power_table(field, 3)])
    hits, n = kernels.scan_range(fixed, monos, field, 0, q)
    # x^5 + c x^3: c = 0 keeps uniformity 4, some c give uniformity two
    got = set(int(h) for h in hits)
    for c in range(q):
        f = PolyFunc(field, [(5, 1), (3, c)])
        tab = kernels.value_table(field, f.terms())
        assert bool(kernels._is_apn_py(tab, q, np.arange(1, q))) == (c in got)
    assert n == len(got)


def test_count_affine_closed_forms():
    for m in (3, 4, 5):
        field = Field(m)
        q = field.q
        # Gold x^3: the surface is the constant 1
        assert kernels.count_affine([(3, 1)], field) == (0, 0)
        # x^6 = (x^3)^2 has no odd exponent: every plane of the locus lies
        # on the surface, and nothing off it
        on = 3 * q * (q - 1) + q
        assert kernels.count_affine([(6, 1)], field) == (on, on)
    # x^5 on GF(8): uniformity two, g' = x^4 is a permutation and the
    # diagonal restriction vanishes, so exactly the diagonal is on it
    assert kernels.count_affine([(5, 1)], Field(3)) == (8, 8)


def test_count_affine_off_locus_is_four_point_count():
    # off the locus the surface is the four-point sum over the locus
    # product, which is nonzero there
    rng = random.Random(17)
    for field in (Field(3), F16):
        q = field.q
        xs = np.arange(q)
        x0, x1, x2 = xs[:, None, None], xs[None, :, None], xs[None, None, :]
        off = (x0 != x1) & (x1 != x2) & (x0 != x2)
        for _ in range(6):
            f = PolyFunc(field, [(rng.randrange(3, q), rng.randrange(1, q))
                                 for _ in range(rng.randrange(1, 4))])
            tab = kernels.value_table(field, f.terms())
            fps = tab[x0] ^ tab[x1] ^ tab[x2] ^ tab[x0 ^ x1 ^ x2]
            total, on_locus = kernels.count_affine(f.terms(), field)
            assert total - on_locus == int(((fps == 0) & off).sum())


def test_backend_name_reported():
    assert kernels.BACKEND in ("numba", "numpy")

"""Each numpy kernel against its scalar loop in tests/oracles.py."""

import random
import tracemalloc

import numpy as np
import pytest

from apnsurf import kernels
from apnsurf.gf2m import Field, _parity_table
from apnsurf.polyfunc import PolyFunc
from oracles import (candidate_tables_per_digit, evaluate, is_apn_py,
                     scan_py, spectrum_hist_py, walsh_hist_py)

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
        assert tab.tolist() == [evaluate(f, x) for x in range(16)]


# every nonzero row, the coset representatives of the subgroups of order
# 3 and 5, and an arbitrary subset in arbitrary order
ROW_SETS = [np.arange(1, 16, dtype=np.int64), F16._exp[:5], F16._exp[:3],
            np.array([9, 2, 14], dtype=np.int64)]


def test_spectrum_backends_agree():
    rng = random.Random(5)
    for _ in range(10):
        tab = rand_table(F16, rng)
        assert np.array_equal(kernels.spectrum_hist(tab, 16),
                              spectrum_hist_py(tab, 16, ROW_SETS[0]))
        for rows in ROW_SETS:
            ref = spectrum_hist_py(tab, 16, rows)
            assert np.array_equal(kernels.spectrum_hist(tab, 16, (rows, 3)),
                                  3 * ref)


def test_is_apn_backends_agree():
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    tabs = np.stack([rand_table(F16, rng) for _ in range(40)])
    for rows in ROW_SETS:
        ref = [bool(is_apn_py(tab, 16, rows)) for tab in tabs]
        assert [kernels.is_apn_table(tab, 16, (rows, 1))
                for tab in tabs] == ref
        # the batch filter behind scan_range, on the same row set
        alive = kernels._apn_survivors(tabs.copy(), 16, rows)
        assert alive.tolist() == [i for i, r in enumerate(ref) if r]
        for r in ref:
            seen[r] += 1
    assert seen[False] > 0 and seen[True] > 0
    assert [kernels.is_apn_table(tab, 16) for tab in tabs] == [
        bool(is_apn_py(tab, 16, ROW_SETS[0])) for tab in tabs]


@pytest.mark.parametrize("chunk_cells", [16, 4 * 64, 1 << 16])
def test_apn_blocks_of_a_values_agree(monkeypatch, chunk_cells):
    # blocks of a values stay single at the smallest cap, reach four a
    # for a lone table at the middle one and every remaining a at the
    # largest; m = 6 gives q - 1 = 63 a values, not a power of two;
    # x^3, x^12 and x^48 are uniformity two, x^5 is not
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", chunk_cells)
    rng = random.Random(23)
    field = Field(6)
    avals = np.arange(1, 64, dtype=np.int64)
    tabs = np.stack([kernels.power_table(field, e) for e in (3, 5, 12, 48)]
                    + [rand_table(field, rng) for _ in range(12)])
    ref = [bool(is_apn_py(tab, 64, avals)) for tab in tabs]
    assert sum(ref) >= 3 and not all(ref)
    assert [kernels.is_apn_table(tab, 64) for tab in tabs] == ref
    alive = kernels._apn_survivors(tabs.copy(), 64, avals)
    assert alive.tolist() == [i for i, r in enumerate(ref) if r]


def _stack_cases(rng):
    """(q, stack, row sets) at q = 2, 4, 16 and 64: value tables for the
    spectrum and permutations for Walsh, 7 of each, with every nonzero
    row by default and with a few rows weighted 3."""
    for m in (1, 2, 4, 6):
        field = Field(m)
        q = field.q
        tabs = np.stack([rand_table(field, rng) for _ in range(7)])
        perms = np.stack([rng.sample(range(q), q) for _ in range(7)])
        rows = np.array(rng.sample(range(1, q), max(1, q // 3)),
                        dtype=np.int64)
        yield q, tabs, perms, [(None, np.arange(1, q), 1),
                               ((rows, 3), rows, 3)]


# blocks of one row, of a few rows of one table, of every row of 2 or 3
# tables (7 tables, not a multiple of either), and the defaults
@pytest.mark.parametrize("cells", [1, 3 * 16, 2 * 63 * 64, 3 * 15 * 16, None])
def test_stacked_kernels_match_oracle_per_table(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(kernels, "_COUNT_CELLS", cells)
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
    rng = random.Random(29)
    for q, tabs, perms, row_sets in _stack_cases(rng):
        par = _parity_table(q).astype(np.int64)
        for rows, walked, weight in row_sets:
            spec = kernels.spectrum_hist(tabs, q, rows)
            walsh = kernels.walsh_hist(perms, q, rows)
            assert spec.shape == (7, q + 1) and walsh.shape == (7, 2 * q + 1)
            for i in range(7):
                assert np.array_equal(
                    spec[i], weight * spectrum_hist_py(tabs[i], q, walked))
                assert np.array_equal(
                    walsh[i], weight * walsh_hist_py(perms[i], par, q, walked))
                # a 1-D table is the stack of one
                one = kernels.spectrum_hist(tabs[i], q, rows)
                assert one.shape == (q + 1,)
                assert np.array_equal(one, spec[i])
                one = kernels.walsh_hist(perms[i], q, rows)
                assert one.shape == (2 * q + 1,)
                assert np.array_equal(one, walsh[i])


def test_walsh_backends_agree():
    rng = random.Random(11)
    par = _parity_table(16).astype(np.int64)
    for _ in range(8):
        perm = np.array(rng.sample(range(16), 16), dtype=np.int64)
        assert np.array_equal(kernels.walsh_hist(perm, 16),
                              walsh_hist_py(perm, par, 16, ROW_SETS[0]))
        for rows in ROW_SETS:
            ref = walsh_hist_py(perm, par, 16, rows)
            assert np.array_equal(kernels.walsh_hist(perm, 16, (rows, 5)),
                                  5 * ref)


def test_walsh_chunks_match_oracle(monkeypatch):
    # 14 and 15 b rows in chunks of 3 rows, and in chunks of one row
    # when the cap is below q
    rng = random.Random(13)
    par = _parity_table(16).astype(np.int64)
    perm = np.array(rng.sample(range(16), 16), dtype=np.int64)
    for cells in (3 * 16, 5):
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
        for rows in (np.arange(2, 16, dtype=np.int64),
                     np.arange(1, 16, dtype=np.int64)):
            assert np.array_equal(kernels.walsh_hist(perm, 16, (rows, 1)),
                                  walsh_hist_py(perm, par, 16, rows))


def test_walsh_full_magnitude_at_m16():
    # an invertible linear map L of GF(2)^16: row b has the single
    # nonzero value W = q at a = L^T b, and -q once a constant c with
    # b . c = 1 is added; any narrowing below int32 would wrap +-2^16,
    # alone or stacked
    q = 1 << 16
    rng = random.Random(19)
    u = np.arange(q, dtype=np.int64)
    lin = np.zeros(q, dtype=np.int64)
    for i in range(16):
        col = (1 << i) | rng.randrange(1 << i)
        lin ^= ((u >> i) & 1) * col
    b = np.array([rng.randrange(1, q)], dtype=np.int64)
    hist = kernels.walsh_hist(lin, q, (b, 1))
    assert hist[2 * q] == 1 and hist[q] == q - 1 and hist.sum() == q
    c = int(b[0]) & -int(b[0])  # one bit of b, so b . c = 1
    hist = kernels.walsh_hist(lin ^ c, q, (b, 1))
    assert hist[0] == 1 and hist[q] == q - 1 and hist.sum() == q
    both = kernels.walsh_hist(np.stack([lin, lin ^ c]), q, (b, 1))
    assert both.shape == (2, 2 * q + 1)
    assert both[0, 2 * q] == 1 and both[1, 0] == 1
    assert (both[:, q] == q - 1).all() and (both.sum(axis=1) == q).all()


@pytest.mark.parametrize("m", range(1, 7))
def test_candidate_tables_match_per_digit_builder(m):
    field = Field(m)
    q = field.q
    rng = np.random.default_rng(m)
    fixed = rng.integers(0, q, size=q, dtype=np.int64)
    for nfree in range(4):
        monos = rng.integers(0, q, size=(nfree, q), dtype=np.int64)
        total = q ** nfree
        ranges = [(0, min(total, 4096))]
        for _ in range(12):
            lo = int(rng.integers(0, total))
            ranges.append((lo, int(rng.integers(lo + 1, min(
                total, lo + 4096) + 1))))
        if nfree:
            # ranges that end just past a digit-0 wrap, and single runs
            for _ in range(6):
                wrap = q * int(rng.integers(1, max(2, total // q)))
                if wrap < total:
                    lo = wrap - int(rng.integers(1, q + 1))
                    ranges.append((lo, min(total, wrap + int(
                        rng.integers(1, 2 * q + 1)))))
            run = q * int(rng.integers(0, total // q))
            ranges.append((run + 1, run + q))
        for lo, hi in ranges:
            got = kernels._candidate_tables(fixed, monos, field, lo, hi)
            ref = candidate_tables_per_digit(
                fixed, monos, field, np.arange(lo, hi, dtype=np.int64))
            assert np.array_equal(got, ref), (nfree, lo, hi)


def test_scan_range_memory_stays_batch_sized():
    # m = 14: a q x q product table would take 2 GiB (256 MiB at one
    # byte a cell); a scan of a few hundred candidates across a digit-0
    # wrap, and the tables of a range shorter than q across one, must
    # stay within a few batches of int64 cells
    field = Field(14)
    q = field.q
    fixed = kernels.value_table(field, [(3, 1)])
    monos = np.stack([kernels.power_table(field, e) for e in (5, 6, 9)])
    lo = 7 * q * q + 3 * q + q - 150
    cands = np.arange(q * q + q - 40, q * q + q + 24, dtype=np.int64)
    tracemalloc.start()
    try:
        kernels.scan_range(fixed, monos, field, lo, lo + 300)
        got = kernels._candidate_tables(fixed, monos, field, int(cands[0]),
                                        int(cands[-1]) + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * kernels._BATCH_CELLS * 8
    assert bound < q * q
    assert peak < bound, peak
    assert np.array_equal(
        got, candidate_tables_per_digit(fixed, monos, field, cands))


def test_scan_backends_agree_and_hits_verify():
    field = F16
    q = field.q
    ext, log, _ = field.tables()
    fixed = kernels.value_table(field, [(3, 1)])
    monos = np.stack([kernels.power_table(field, 5),
                      kernels.power_table(field, 6)])
    hits_ref = np.zeros(q * q, dtype=np.int64)
    nref = scan_py(fixed, monos, q, 2, 0, q * q, ext, log, hits_ref)
    hits, nh = kernels.scan_range(fixed, monos, field, 0, q * q)
    assert nh == nref == len(hits)
    assert np.array_equal(hits, hits_ref[:nref])
    # every reported hit is a uniformity-two candidate; spot-check misses too
    hit_set = set(int(h) for h in hits)
    for idx in range(0, q * q, 37):
        a5 = idx % q
        a6 = idx // q
        f = PolyFunc(field, [(3, 1), (5, a5), (6, a6)])
        tab = kernels.value_table(field, f.terms())
        assert bool(is_apn_py(tab, q, np.arange(1, q))) == (idx in hit_set)
    for idx in list(hits[:4]):
        f = PolyFunc(field, [(3, 1), (5, int(idx) % q), (6, int(idx) // q)])
        tab = kernels.value_table(field, f.terms())
        assert is_apn_py(tab, q, np.arange(1, q))


def test_scan_range_dispatch(monkeypatch):
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
        assert bool(is_apn_py(tab, q, np.arange(1, q))) == (c in got)
    assert n == len(got)
    # a range that starts past 0 and spans many batches gives the
    # oracle's survivors in the same ascending order, with batches below
    # one run of q candidates, across runs, of one run and of several
    field = F16
    ext, log, _ = field.tables()
    fixed = kernels.value_table(field, [(3, 1)])
    monos = np.stack([kernels.power_table(field, e) for e in (6, 5, 9)])
    ref = np.zeros(600, dtype=np.int64)
    nref = scan_py(fixed, monos, 16, 3, 37, 637, ext, log, ref)
    for cells in (2 * 16, 7 * 16, 16 * 16, 48 * 16):
        monkeypatch.setattr(kernels, "_BATCH_CELLS", cells)
        hits, n = kernels.scan_range(fixed, monos, field, 37, 637)
        assert n == nref > 0
        assert hits.tolist() == ref[:nref].tolist()
    assert kernels.scan_range(fixed, monos, field, 5, 5)[1] == 0


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
    assert kernels.BACKEND == "numpy"

"""Each numpy kernel against its scalar loop in tests/oracles.py."""

import os
import random
import tracemalloc

import numpy as np
import pytest

from apnsurf import kernels
from apnsurf.cli import main
from apnsurf.errors import ApnToolError
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


# row sets in no order: a subset, one a of each top bit from the top
# down, and the derivative rows of scaling_rows for scaling groups of
# order 1, 3 and 5 (generator powers, so every row in the first)
UNSORTED_ROWS = [np.array([9, 2, 14], dtype=np.int64),
                 np.array([14, 3, 5, 1], dtype=np.int64)] + [
    kernels.scaling_rows(F16, terms)[0][0]
    for terms in ([(4, 1), (3, 1)], [(6, 1), (3, 1)], [(8, 1), (3, 1)])]


def test_apn_early_abort_on_unsorted_rows():
    # the half rows count pairs {x, x + a} over the x clear at a's top
    # bit, so a block of a values must not mix top bits; 1,200 tables
    # at m = 4, 40 stacked at a time as scan_range stacks its batches
    rng = random.Random(29)
    tabs = np.stack([rand_table(F16, rng) for _ in range(1200)])
    for rows in UNSORTED_ROWS:
        ref = [bool(is_apn_py(tab, 16, rows)) for tab in tabs]
        assert 0 < sum(ref) < len(ref)
        assert [kernels.is_apn_table(tab, 16, (rows, 1))
                for tab in tabs] == ref
        alive = np.concatenate([
            lo + kernels._apn_survivors(tabs[lo:lo + 40].copy(), 16, rows)
            for lo in range(0, len(tabs), 40)])
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
BLOCK_CELLS = [1, 3 * 16, 2 * 63 * 64, 3 * 15 * 16, None]


@pytest.mark.parametrize("cells", BLOCK_CELLS)
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


def _affine_tables(field, rng):
    """The zero table and tables of c*x^(2^i) + const and of a sum of
    such terms: every derivative of them is constant, so each row puts
    all q solutions in one bin."""
    q = field.q
    tabs = [np.zeros(q, dtype=np.int64)]
    for i in range(field.m):
        tabs.append(kernels.value_table(field, [(1 << i, rng.randrange(1, q))])
                    ^ rng.randrange(q))
    terms = [(1 << i, rng.randrange(q)) for i in range(field.m)]
    tabs.append(kernels.value_table(field, terms) ^ rng.randrange(q))
    return tabs


@pytest.mark.parametrize("cells", BLOCK_CELLS)
def test_spectrum_top_multiplicity_in_stacks(monkeypatch, cells):
    # affine tables reach hist[q], the top of each table's range of
    # multiplicities in a block; random tables between them check that
    # no table's counts spill into its neighbour's
    if cells is not None:
        monkeypatch.setattr(kernels, "_COUNT_CELLS", cells)
    rng = random.Random(31)
    for m in (1, 2, 4, 6):
        field = Field(m)
        q = field.q
        flat = _affine_tables(field, rng)
        tabs = []
        for tab in flat:
            tabs += [tab, rand_table(field, rng)]
        tabs = np.stack(tabs)
        rows = np.array(rng.sample(range(1, q), max(1, q // 3)),
                        dtype=np.int64)
        for walked, weight, spec in (
                (np.arange(1, q), 1, kernels.spectrum_hist(tabs, q)),
                (rows, 3, kernels.spectrum_hist(tabs, q, (rows, 3)))):
            for i, tab in enumerate(tabs):
                assert np.array_equal(
                    spec[i], weight * spectrum_hist_py(tab, q, walked))
            for i in range(0, tabs.shape[0], 2):
                assert spec[i, q] == weight * walked.shape[0]
                assert spec[i].sum() == weight * walked.shape[0] * q


def test_spectrum_matches_oracle_at_m11():
    # at m >= 10 a block holds a few rows of one table; two rows from
    # each top-bit run (one for a = 1) of a stack of two random maps
    rng = random.Random(37)
    field = Field(11)
    q = field.q
    tabs = np.stack([kernels.value_table(field, [(rng.randrange(3, q),
                                                  rng.randrange(1, q))
                                                 for _ in range(3)])
                     for _ in range(2)])
    rows = np.array([1] + [a for h in range(1, 11)
                           for a in rng.sample(range(1 << h, 2 << h), 2)],
                    dtype=np.int64)
    rng.shuffle(rows)
    for weight in (1, 3):
        spec = kernels.spectrum_hist(tabs, q, (rows, weight))
        for i in range(2):
            ref = spectrum_hist_py(tabs[i], q, rows)
            assert np.array_equal(spec[i], weight * ref)
            assert np.array_equal(
                kernels.spectrum_hist(tabs[i], q, (rows, weight)), spec[i])


def test_spectrum_full_row_identities_at_m12():
    # over every row: q(q - 1) pairs (a, b), q(q - 1) pairs (a, x), and
    # x and x + a solve the same equation, so every count is even
    rng = random.Random(41)
    field = Field(12)
    q = field.q
    tab = kernels.value_table(field, [(rng.randrange(3, q),
                                       rng.randrange(1, q))
                                      for _ in range(3)])
    hist = kernels.spectrum_hist(tab, q)
    cs = np.arange(q + 1)
    assert hist.sum() == q * (q - 1)
    assert (cs * hist).sum() == q * (q - 1)
    assert not hist[1::2].any()
    # and some bin holds two pairs or more
    assert hist[4:].any()


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


def _count_forks(monkeypatch):
    forks = [0]
    fork = kernels._fork

    def counting(part, i):
        forks[0] += 1
        return fork(part, i)
    monkeypatch.setattr(kernels, "_fork", counting)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fan_out_cases(rng):
    """(kernel, tables, q, rows): one random table at m = 11 over every
    row, a stack of three maps x^9 + c*x^6 + c'*x^3 at m = 10 over the
    rows of their scaling group (weight 3), and random stacks at
    q <= 64."""
    field = Field(11)
    tab = kernels.value_table(field, [(rng.randrange(3, field.q),
                                       rng.randrange(1, field.q))
                                      for _ in range(3)])
    yield kernels.spectrum_hist, tab, field.q, None
    yield kernels.walsh_hist, tab, field.q, None
    field = Field(10)
    terms = [[(9, 1), (6, rng.randrange(1, field.q)),
              (3, rng.randrange(1, field.q))] for _ in range(3)]
    rows, _ = kernels.scaling_rows(field, terms[0])
    assert rows[1] == 3
    tabs = np.stack([kernels.value_table(field, t) for t in terms])
    yield kernels.spectrum_hist, tabs, field.q, rows
    yield kernels.walsh_hist, tabs, field.q, rows
    for q, tabs, perms, row_sets in _stack_cases(rng):
        for rows, _, _ in row_sets:
            yield kernels.spectrum_hist, tabs, q, rows
            yield kernels.walsh_hist, perms, q, rows


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_row_kernels_same_on_forked_processes(monkeypatch, cpus):
    # forced on for every call, a row kernel splits its rows over cpus
    # processes (three parts on two CPUs too) and must give the serial
    # arrays exactly
    monkeypatch.setattr(kernels, "_CPUS", cpus)
    forks = _count_forks(monkeypatch)
    for kernel, tabs, q, rows in _fan_out_cases(random.Random(43)):
        monkeypatch.setattr(kernels, "_FORK_CELLS", 1 << 62)
        serial = kernel(tabs, q, rows)
        assert forks[0] == 0
        monkeypatch.setattr(kernels, "_FORK_CELLS", 1)
        forked = kernel(tabs, q, rows)
        nrows = q - 1 if rows is None else rows[0].shape[0]
        assert forks[0] == min(cpus, nrows) - 1
        forks[0] = 0
        assert forked.dtype == serial.dtype == np.int64
        assert forked.shape == serial.shape
        assert np.array_equal(forked, serial)
        if q > 64:
            continue
        walked = np.arange(1, q) if rows is None else rows[0]
        weight = 1 if rows is None else rows[1]
        for i, tab in enumerate(tabs):
            if kernel is kernels.spectrum_hist:
                ref = spectrum_hist_py(tab, q, walked)
            else:
                ref = walsh_hist_py(tab, _parity_table(q).astype(np.int64),
                                    q, walked)
            assert np.array_equal(forked[i], weight * ref)
    _no_child_left()


def test_row_split_parts_stay_above_half_the_threshold(monkeypatch):
    # on many CPUs every row of one map at m = 11, 2047 * 1024 cells,
    # makes three parts of at least 2^19 cells, not one per CPU
    field = Field(11)
    tab = kernels.value_table(field, [(13, 5), (6, 7), (3, 1)])
    monkeypatch.setattr(kernels, "_FORK_CELLS", 1 << 62)
    serial = kernels.spectrum_hist(tab, field.q)
    monkeypatch.setattr(kernels, "_CPUS", 64)
    monkeypatch.setattr(kernels, "_FORK_CELLS", 1 << 20)
    forks = _count_forks(monkeypatch)
    assert np.array_equal(kernels.spectrum_hist(tab, field.q), serial)
    assert forks[0] == 2
    _no_child_left()


def test_fan_out_child_failure_raises_and_reaps():
    parent = os.getpid()

    def fails_in_child(i):
        if os.getpid() != parent:
            raise ValueError("part %d failed in its child" % i)
        return np.arange(3)
    with pytest.raises(ApnToolError,
                       match="part 2: ValueError: part 2 failed in its child"):
        kernels._fan_out(fails_in_child, 3)
    _no_child_left()

    def killed_in_child(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), 9)
        return np.arange(3)
    with pytest.raises(ApnToolError, match="killed by signal 9"):
        kernels._fan_out(killed_in_child, 2)
    _no_child_left()

    # part 0 fails in this process: its error, once the children ended
    def fails_here(i):
        if i == 0:
            raise KeyError("part 0")
        return np.arange(i)
    with pytest.raises(KeyError):
        kernels._fan_out(fails_here, 3)
    _no_child_left()

    out = kernels._fan_out(lambda i: np.full(i, i, dtype=np.int64), 4)
    assert [a.tolist() for a in out] == [[], [1], [2, 2], [3, 3, 3]]
    _no_child_left()


def test_fan_out_in_a_child_runs_serially(monkeypatch):
    def pids(i):
        inner = kernels._fan_out(
            lambda j: np.array([os.getpid()], dtype=np.int64), 2)
        return np.concatenate(inner)
    here, child = kernels._fan_out(pids, 2)
    # part 0 runs here and forks its own inner part; part 1's inner
    # parts both run in part 1's process
    assert here[0] == os.getpid() != here[1]
    assert child[0] == child[1] != os.getpid()
    _no_child_left()

    # parts whose fork fails, or every part where os.fork is missing,
    # run here
    def pid(j):
        return np.array([os.getpid()], dtype=np.int64)
    forks = [0]
    fork = os.fork

    def fork_once():
        forks[0] += 1
        if forks[0] > 1:
            raise BlockingIOError("no more processes")
        return fork()
    monkeypatch.setattr(os, "fork", fork_once)
    out = [int(a[0]) for a in kernels._fan_out(pid, 4)]
    assert out[1] != os.getpid()
    assert [out[0]] + out[2:] == [os.getpid()] * 3
    _no_child_left()
    monkeypatch.delattr(os, "fork")
    assert [int(a[0]) for a in kernels._fan_out(pid, 3)] == [os.getpid()] * 3


def test_child_failure_exits_two(monkeypatch, capsys):
    # a spectrum part failing in a forked child is an ApnToolError,
    # which the CLI maps to exit 2
    parent = os.getpid()
    count = kernels._spectrum_counts

    def fails_in_child(stack, q, avals):
        if os.getpid() != parent:
            raise MemoryError("no room in the child")
        return count(stack, q, avals)
    monkeypatch.setattr(kernels, "_spectrum_counts", fails_in_child)
    monkeypatch.setattr(kernels, "_FORK_CELLS", 1)
    monkeypatch.setattr(kernels, "_CPUS", 2)
    assert main(["apn-test", "--m", "4", "--poly", "x^5 + x^3"]) == 2
    assert "MemoryError: no room in the child" in capsys.readouterr().err
    _no_child_left()


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
        every = np.arange(-(-total // q), dtype=np.int64)
        for lo, hi in ranges:
            got = kernels._candidate_tables(fixed, monos, field, lo, hi,
                                            every)
            ref = candidate_tables_per_digit(
                fixed, monos, field, np.arange(lo, hi, dtype=np.int64))
            assert np.array_equal(got, ref), (nfree, lo, hi)
        # positions in an ascending subset of the runs, across run
        # boundaries and inside one run
        runs = np.flatnonzero(rng.random(max(1, total // q)) < 0.3)
        cands = (runs[:, None] * q + np.arange(q)).ravel()[:total]
        for _ in range(6 if cands.shape[0] else 0):
            lo = int(rng.integers(0, cands.shape[0]))
            hi = int(rng.integers(lo + 1, cands.shape[0] + 1))
            got = kernels._candidate_tables(fixed, monos, field, lo, hi, runs)
            ref = candidate_tables_per_digit(fixed, monos, field,
                                             cands[lo:hi])
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
    runs = np.arange(8 * q, dtype=np.int64)
    tracemalloc.start()
    try:
        kernels.scan_range(fixed, monos, field, lo, lo + 300, runs)
        got = kernels._candidate_tables(fixed, monos, field, int(cands[0]),
                                        int(cands[-1]) + 1, runs)
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
    ext, log = field.tables()
    fixed = kernels.value_table(field, [(3, 1)])
    monos = np.stack([kernels.power_table(field, 5),
                      kernels.power_table(field, 6)])
    hits_ref = np.zeros(q * q, dtype=np.int64)
    nref = scan_py(fixed, monos, q, 2, 0, q * q, ext, log, hits_ref)
    hits, nh = kernels.scan_range(fixed, monos, field, 0, q * q,
                                  np.arange(q, dtype=np.int64))
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
    hits, n = kernels.scan_range(fixed, monos, field, 0, q,
                                 np.zeros(1, dtype=np.int64))
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
    ext, log = field.tables()
    fixed = kernels.value_table(field, [(3, 1)])
    monos = np.stack([kernels.power_table(field, e) for e in (6, 5, 9)])
    ref = np.zeros(600, dtype=np.int64)
    nref = scan_py(fixed, monos, 16, 3, 37, 637, ext, log, ref)
    every = np.arange(256, dtype=np.int64)
    for cells in (2 * 16, 7 * 16, 16 * 16, 48 * 16):
        monkeypatch.setattr(kernels, "_BATCH_CELLS", cells)
        hits, n = kernels.scan_range(fixed, monos, field, 37, 637, every)
        assert n == nref > 0
        assert hits.tolist() == ref[:nref].tolist()
    assert kernels.scan_range(fixed, monos, field, 5, 5, every)[1] == 0
    # positions in 40 scattered runs give the oracle's survivors among
    # their candidates, ascending
    runs = np.array(sorted(random.Random(5).sample(range(256), 40)),
                    dtype=np.int64)
    cands = (runs[:, None] * 16 + np.arange(16)).ravel()
    want = []
    for r in runs.tolist():
        nr = scan_py(fixed, monos, 16, 3, r * 16, r * 16 + 16, ext, log, ref)
        want += ref[:nr].tolist()
    for cells in (2 * 16, 7 * 16, 48 * 16):
        monkeypatch.setattr(kernels, "_BATCH_CELLS", cells)
        for lo, hi in ((0, 640), (37, 601), (100, 105)):
            hits, n = kernels.scan_range(fixed, monos, field, lo, hi, runs)
            got = [c for c in want if cands[lo] <= c <= cands[hi - 1]]
            assert hits.tolist() == got and n == len(got), (cells, lo, hi)


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

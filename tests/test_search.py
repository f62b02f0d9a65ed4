"""Family scans, checkpointing, and the fixed-degree classifications."""

import functools
import json
import os
import random

import numpy as np
import pytest

import apnsurf.kernels as kernels
import apnsurf.search as search
from apnsurf.differential import fingerprint_digest, is_apn, walsh_fingerprint
from apnsurf.errors import (ApnToolError, BudgetExceeded, CorruptCheckpoint,
                            InvalidParameters)
from apnsurf.gf2m import Field
from apnsurf.kernels import power_table, value_table
from apnsurf.polyfunc import PolyFunc, affine_transform, normalize
from apnsurf.search import (Hit, SearchJob, SearchResult, checkpoint_resume,
                            checkpoint_save, classify, scan)
from oracles import (candidate, least_images_per_pair, orbit_scan_candidates,
                     scan_py, verify_hit_py)

F8 = Field(3)
F16 = Field(4)


def test_job_validation():
    with pytest.raises(InvalidParameters):
        SearchJob(F16, [(6, 1)], (3, 4))
    with pytest.raises(InvalidParameters):
        SearchJob(F16, [(6, 1)], (3, 1))
    with pytest.raises(InvalidParameters):
        SearchJob(F16, [(6, 1)], (0, 3))
    with pytest.raises(InvalidParameters):
        SearchJob(F16, [(6, 1)], (3, 3))
    with pytest.raises(InvalidParameters):
        SearchJob(F16, [(6, 1)], (3, 6))
    with pytest.raises(InvalidParameters):
        SearchJob(F8, [(6, 1)], (9,))
    with pytest.raises(InvalidParameters):
        SearchJob(F16, [(6, 1)], (3,), budget=0)


def test_index_little_endian_roundtrip():
    job = SearchJob(F16, [(6, 1)], (3, 5))
    assert job.candidates == 256
    assert job.coeff_vector(7 + 3 * 16) == (7, 3)
    f = candidate(job, 55)
    assert dict(f.terms()) == {6: 1, 3: 7, 5: 3}
    assert job.coeff_vector(0) == (0, 0)
    assert candidate(job, 0) == PolyFunc.monomial(F16, 6)


def test_scan_degree6_m4_frozen():
    job = SearchJob(F16, [(6, 1)], (3, 5))
    res = scan(job)
    assert [h.coeffs for h in res.hits] == [(0, 0)]
    assert res.hits[0].delta == 2
    assert res.scanned == 256 and res.cursor == 256
    x3 = PolyFunc.monomial(F16, 3)
    assert res.hits[0].digest == fingerprint_digest(walsh_fingerprint(x3))


def test_scan_matches_direct_check():
    job = SearchJob(F8, [(5, 1)], (3,))
    res = scan(job)
    want = []
    for c in range(8):
        f = PolyFunc(F8, [(5, 1), (3, c)])
        if is_apn(f):
            want.append((c,))
    assert [h.coeffs for h in res.hits] == want


@functools.lru_cache(maxsize=None)
def _oracle_hits(m, fixed, free):
    """(index, coeffs, delta, digest) of every hit of the family, from
    the scalar scan of all candidates and the per-hit verification of
    each survivor."""
    field = Field(m)
    q = field.q
    ext, log = field.tables()
    job = SearchJob(field, fixed, free)
    monos = np.array([power_table(field, e) for e in free], dtype=np.int64)
    out = np.zeros(job.candidates, dtype=np.int64)
    n = scan_py(value_table(field, list(fixed)), monos.reshape(-1, q), q,
                len(free), 0, job.candidates, ext, log, out)
    hits = [verify_hit_py(job, index) for index in out[:n].tolist()]
    return [h for h in hits if h is not None]


def _oracle_range(m, fixed, free, lo, hi):
    return [h for h in _oracle_hits(m, fixed, free) if lo <= h[0] < hi]


def _as_tuples(hits):
    return [(h.index, h.coeffs, h.delta, h.digest) for h in hits]


def _count_kernel_candidates(monkeypatch):
    counted = [0]
    kernel = search.scan_range

    def counting(fixed, monos, field, lo, hi, runs):
        counted[0] += hi - lo
        return kernel(fixed, monos, field, lo, hi, runs)
    monkeypatch.setattr(search, "scan_range", counting)
    return counted


# elements of GF(16) outside GF(2): one in GF(4), and the generator
W4 = next(c for c in range(2, 16) if F16.pow_(c, 4) == c)
ALPHA = F16.generator

# (m, fixed terms, free degrees): an empty fixed part, a constant term,
# two fixed terms with a trivial scaling group but Frobenius, and
# x^6 + a3*x^3 + a9*x^9 at m = 4, whose nonzero top digits fall into
# three orbits; a fixed coefficient in GF(4), so that only the square of
# Frobenius keeps it, and one that generates the field, so that only
# the scaling group does.  Then families where translations x -> x + b
# join the plan: x^7 + a6*x^6 + a5*x^5 + a3*x^3, whose a6 moves by b;
# x^9 + a7*x^7 + a3*x^3, whose translations keep the absent x^6 and x^5
# only where a7 = 0; x^11 + a10*x^10 + a9*x^9 + a3*x^3, where b moves a3
# by b^8; and x^22 + x^18 + a6*x^6 + a5*x^5 + a3*x^3, whose fixed
# exponents fold to 7 and onto the free degree 3
ORBIT_FAMILIES = [
    (2, ((1, 1),), (3,)),
    (3, (), (3, 5, 6)),
    (4, ((0, 5), (3, 1)), (5, 10)),
    (4, ((9, 1), (5, 1)), (3, 6)),
    (4, ((6, 1),), (3, 9)),
    (4, ((6, 1),), (3, 5, 9)),
    (5, ((3, 1),), (6, 12)),
    (4, ((3, W4), (6, 1)), (5, 7, 9)),
    (4, ((3, ALPHA), (6, 1)), (5, 7, 9)),
    (4, ((7, 1),), (3, 5, 6)),
    (4, ((9, 1),), (3, 7)),
    (4, ((11, 1),), (3, 9, 10)),
    (4, ((18, 1), (22, 1)), (3, 5, 6)),
]


@pytest.mark.parametrize("m, fixed, free", ORBIT_FAMILIES, ids=[
    "m%d-fixed%s-free%s" % (m, "+".join(str(e) for e, _ in fixed) or "none",
                            "+".join(map(str, free)))
    + ("-gf4" if (3, W4) in fixed else "-generator" if (3, ALPHA) in fixed
       else "")
    for m, fixed, free in ORBIT_FAMILIES])
def test_orbit_scan_matches_direct_scan(m, fixed, free, monkeypatch):
    job = SearchJob(Field(m), fixed, free)
    total = job.candidates
    rng = random.Random(total + len(fixed))
    ranges = [(0, total)]
    for _ in range(8):
        lo, hi = sorted(rng.randrange(total + 1) for _ in range(2))
        ranges.append((lo, hi))
    counted = _count_kernel_candidates(monkeypatch)
    # kernel batches and verification chunks as large as the default
    # allows, then one candidate per kernel batch and one survivor per
    # verification chunk
    for cells in (search._BATCH_CELLS, 1):
        monkeypatch.setattr(kernels, "_BATCH_CELLS", cells)
        monkeypatch.setattr(search, "_BATCH_CELLS", cells)
        for lo, hi in ranges:
            counted[0] = 0
            res = scan(job, lo, hi)
            assert _as_tuples(res.hits) == _oracle_range(m, fixed, free,
                                                         lo, hi)
            assert res.scanned == hi - lo and res.cursor == hi
            # never more kernel work than the direct scan
            assert counted[0] <= hi - lo
        # the full range runs the kernel on one run per orbit of the
        # upper digits, one candidate per orbit of digit 0 where they are
        # all 0
        counted[0] = 0
        scan(job)
        assert counted[0] == orbit_scan_candidates(job)


# families with a fixed coefficient that generates the field, so that
# only the scaling group applies, and the kernel candidates of a
# full-range scan under the scaling-only plan that normalized the top
# digit of each level along block 0; where no nonzero digit has a
# nontrivial stabilizer the plan is the same, and x^6 + alpha*x^3 with
# a5, a7, a9 also shortens the blocks below a nonzero a9
GENERATOR_FAMILIES = [
    (4, ((3, ALPHA), (6, 1)), (5, 9), 246, 246),
    (5, ((3, Field(5).generator),), (5, 6, 9), 1058, 1058),
    (6, ((5, Field(6).generator),), (3, 6, 9), 4162, 4162),
    (4, ((3, ALPHA), (6, 1)), (5, 7, 9), 3926, 1526),
]


@pytest.mark.parametrize("m, fixed, free, scaling_only, want",
                         GENERATOR_FAMILIES)
def test_generator_family_keeps_scaling_plan(m, fixed, free, scaling_only,
                                             want, monkeypatch):
    job = SearchJob(Field(m), fixed, free)
    counted = _count_kernel_candidates(monkeypatch)
    scan(job)
    assert counted[0] == want == orbit_scan_candidates(job)
    assert want <= scaling_only


# x^6 + a3*x^3 + a5*x^5 + a9*x^9 at m = 4: blocks of 256 candidates per
# top digit, and the kernel runs on 131 of the 4096
SHORTENED = (4, ((6, 1),), (3, 5, 9))


def _force_processes(monkeypatch, p):
    """Make scan deal its runs to p processes whatever their cells, but
    no more than one per run (kernels._split_rows under a fixed rule);
    the row kernels of verification keep their own (kernels._processes)."""
    split = kernels._split_rows

    def forced(count, rows, cells):
        with monkeypatch.context() as patched:
            patched.setattr(kernels, "_processes",
                            lambda cells, parts: max(1, min(p, parts)))
            return split(count, rows, cells)
    monkeypatch.setattr(search, "_split_rows", forced)


def _record_forks(monkeypatch):
    """The list that kernels._fork appends each forked part's number to."""
    forks = []
    fork = kernels._fork
    monkeypatch.setattr(kernels, "_fork",
                        lambda part, i: forks.append(i) or fork(part, i))
    return forks


def test_worker_count_invariance(monkeypatch):
    job = SearchJob(F16, [(6, 1)], (3, 5))
    one = scan(job)
    _force_processes(monkeypatch, 3)
    three = scan(job)
    assert [h.index for h in one.hits] == [h.index for h in three.hits]
    assert one.scanned == three.scanned
    m, fixed, free = SHORTENED
    job = SearchJob(Field(m), fixed, free)
    for lo, hi in ((0, 4096), (77, 3001)):
        _force_processes(monkeypatch, 1)
        one = scan(job, lo, hi)
        _force_processes(monkeypatch, 3)
        three = scan(job, lo, hi)
        assert _as_tuples(three.hits) == _as_tuples(one.hits)
        assert _as_tuples(one.hits) == _oracle_range(m, fixed, free, lo, hi)
        assert one.scanned == three.scanned == hi - lo


def test_scan_shards_on_forked_processes(monkeypatch):
    # two processes over ranges that cross representative blocks of
    # SHORTENED, every other run in a forked child; the row kernels of
    # the verification stay in process
    _force_processes(monkeypatch, 2)
    forks = _record_forks(monkeypatch)
    m, fixed, free = SHORTENED
    job = SearchJob(Field(m), fixed, free)
    for lo, hi in ((0, 4096), (200, 3900), (2500, 2600)):
        forks.clear()
        res = scan(job, lo, hi)
        assert forks == [1]
        assert _as_tuples(res.hits) == _oracle_range(m, fixed, free, lo, hi)
        assert res.scanned == hi - lo and res.cursor == hi
    # runs that fail in the child fail the scan
    parent = os.getpid()
    kernel = search.scan_range

    def fails_in_child(fixed, monos, field, lo, hi, runs):
        hits, nh = kernel(fixed, monos, field, lo, hi, runs)
        return hits, nh + (hi - lo) * (os.getpid() != parent)
    monkeypatch.setattr(search, "scan_range", fails_in_child)
    with pytest.raises(ApnToolError, match="part 1: .* survivors"):
        scan(job)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scan_processes_follow_the_row_kernel_rule(monkeypatch):
    # scan asks kernels._processes, before its verification does, with
    # the cells of its runs, their candidates times q, and its run count;
    # the parts stay in process
    asked = []
    rule = kernels._processes
    monkeypatch.setattr(kernels, "_processes",
                        lambda cells, parts: asked.append((cells, parts))
                        or rule(cells, parts))
    m, fixed, free = DEGREE9
    job = SearchJob(Field(m), fixed, free)
    q = job.field.q
    for lo, hi in ((0, job.candidates), (5, 37), (4100, 40000)):
        asked.clear()
        scan(job, lo, hi)
        runs, _, _ = search._scan_plan(job, search._Twists(job), lo, hi)
        assert asked[0] == (runs.shape[0] * q * q, runs.shape[0])
    monkeypatch.setattr(kernels, "_CPUS", 64)
    half = kernels._FORK_CELLS // 2
    assert kernels._processes(2 * half - 1, 100) == 1
    assert kernels._processes(2 * half, 100) == 2
    assert kernels._processes(7 * half, 100) == 7
    assert kernels._processes(7 * half, 3) == 3
    monkeypatch.setattr(kernels, "_CPUS", 2)
    assert kernels._processes(1 << 40, 100) == 2


def test_classify_scans_stay_in_process(monkeypatch):
    # the runs of every scan of the nine repro/ classifications, one per
    # classification, are below the fork threshold, on any CPU count, so
    # they are split into one part, and all its scan_range calls run in
    # this process, where a trace sees them
    monkeypatch.setattr(kernels, "_CPUS", 64)
    nparts = []
    split = search._split_rows

    def counted(count, rows, cells):
        parts = split(count, rows, cells)
        nparts.append(len(parts))
        return parts
    monkeypatch.setattr(search, "_split_rows", counted)
    for d in (6, 7, 9):
        for m in (4, 5, 6):
            classify(d, m)
    assert nparts == [1] * 9


@pytest.mark.parametrize("p", [2, 3])
def test_runs_dealt_over_forced_processes(monkeypatch, p):
    # the runs of SHORTENED's ranges, 11 and 5 of them, dealt over p
    # processes as interleaved parts of unequal length, give the
    # oracle's hits
    _force_processes(monkeypatch, p)
    forks = _record_forks(monkeypatch)
    m, fixed, free = SHORTENED
    job = SearchJob(Field(m), fixed, free)
    tw = search._Twists(job)
    for lo, hi in ((200, 3900), (1000, 1100)):
        runs, _, _ = search._scan_plan(job, tw, lo, hi)
        assert runs.shape[0] % p
        forks.clear()
        res = scan(job, lo, hi)
        assert forks == list(range(1, p))
        assert _as_tuples(res.hits) == _oracle_range(m, fixed, free, lo, hi)
    # a range inside one run plans parts only, which stay in process
    runs, parts, _ = search._scan_plan(job, tw, 83, 91)
    assert runs.shape[0] == 0 and parts == [[83, 91]]
    forks.clear()
    res = scan(job, 83, 91)
    assert forks == []
    assert _as_tuples(res.hits) == _oracle_range(m, fixed, free, 83, 91)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the full degree-9 family at m = 4: its top digit a7 has the orbits {0}
# and the nonzero values, translations take a6 to 0 where a7 != 0,
# Frobenius shortens the blocks below, and the kernel runs on 227 of the
# 65,536 candidates
DEGREE9 = (4, ((9, 1),), (3, 5, 6, 7))


def _plan_bytes(plan):
    """A _scan_plan result as bytes, dtypes included."""
    runs, parts, maps = plan
    return (runs.dtype.str, runs.tobytes(), parts,
            [(level, [(x.dtype.str, x.tobytes()) for x in arrays])
             for level, *arrays in maps])


@pytest.mark.parametrize("m, fixed, free",
                         ORBIT_FAMILIES + [(5,) + DEGREE9[1:]])
def test_least_images_match_per_pair_reduction(m, fixed, free, monkeypatch):
    # every level's images, least coset elements and moves equal those
    # of reducing each pair's images on its own, and so does the plan,
    # over the full range and over partial ones
    job = SearchJob(Field(m), fixed, free)
    tw = search._Twists(job)
    fast = search._least_images
    calls = [0]

    def checked(*args):
        got = fast(*args)
        want = least_images_per_pair(*args)
        assert [(x.dtype, x.tolist()) for x in got] == [
            (x.dtype, x.tolist()) for x in want]
        calls[0] += 1
        return got
    rng = random.Random(job.candidates)
    ranges = [(0, job.candidates)] + [
        tuple(sorted(rng.randrange(job.candidates + 1) for _ in range(2)))
        for _ in range(3)]
    for lo, hi in ranges:
        monkeypatch.setattr(search, "_least_images", checked)
        plan = search._scan_plan(job, tw, lo, hi)
        monkeypatch.setattr(search, "_least_images", least_images_per_pair)
        assert _plan_bytes(search._scan_plan(job, tw, lo, hi)) == _plan_bytes(
            plan)
    assert calls[0] > 0


@pytest.mark.parametrize("cells", [None, 1])
def test_budget_resume_and_workers_on_frobenius_family(cells, monkeypatch):
    if cells:
        # one candidate per kernel batch and one survivor per
        # verification chunk
        monkeypatch.setattr(kernels, "_BATCH_CELLS", cells)
        monkeypatch.setattr(search, "_BATCH_CELLS", cells)
    m, fixed, free = DEGREE9
    job = SearchJob(Field(m), fixed, free)
    full = scan(job)
    assert full.scanned == full.cursor == job.candidates
    # the blocks mapped by translations and pairs give the hits of the
    # scalar scan of every candidate
    assert _as_tuples(full.hits) == _oracle_hits(m, fixed, free)
    # stopped inside the run of upper digits 0, where digit 0 is planned
    # too, inside the representative run of a7 = 0, inside the
    # representative block a6 = 0 of a7 = 1 and a block translated from
    # it, and inside a block mapped by a scaling
    for cursor in (5, 37, 4100, 5000, 40000):
        small = SearchJob(Field(m), fixed, free, budget=cursor * 256)
        with pytest.raises(BudgetExceeded) as err:
            scan(small)
        part = err.value.partial
        assert part.cursor == part.scanned == cursor
        assert _as_tuples(part.hits) == _oracle_range(m, fixed, free, 0,
                                                      cursor)
        rest = scan(job, part.cursor)
        assert _as_tuples(part.hits + rest.hits) == _as_tuples(full.hits)
        assert part.scanned + rest.scanned == full.scanned
        assert rest.cursor == full.cursor
    if cells:
        return
    for lo, hi in ((0, job.candidates), (4100, 40000)):
        _force_processes(monkeypatch, 1)
        one = scan(job, lo, hi)
        _force_processes(monkeypatch, 2)
        two = scan(job, lo, hi)
        assert _as_tuples(two.hits) == _as_tuples(one.hits)
        assert (two.scanned, two.cursor) == (one.scanned, one.cursor)


def test_split_scan_equals_full_scan():
    job = SearchJob(F16, [(6, 1)], (3, 5))
    full = scan(job)
    a = scan(job, 0, 100)
    b = scan(job, 100)
    assert a.cursor == 100 and b.start == 100
    got = [h.index for h in a.hits] + [h.index for h in b.hits]
    assert got == [h.index for h in full.hits]
    # resumed from cursors inside a block of 256
    m, fixed, free = SHORTENED
    job = SearchJob(Field(m), fixed, free)
    full = scan(job)
    assert _as_tuples(full.hits) == _oracle_hits(m, fixed, free)
    for cursor in (700, 1000, 2561):
        a = scan(job, 0, cursor)
        b = scan(job, a.cursor)
        assert b.start == cursor
        assert _as_tuples(a.hits + b.hits) == _as_tuples(full.hits)


def test_checkpoint_roundtrip(tmp_path):
    job = SearchJob(F16, [(6, 1)], (3, 5))
    path = tmp_path / "ck"
    checkpoint_save(path, job, 100)
    assert checkpoint_resume(path, job) == 100


def test_checkpoint_failed_write_keeps_previous(tmp_path, monkeypatch):
    job = SearchJob(F16, [(6, 1)], (3, 5))
    path = tmp_path / "ck"
    checkpoint_save(path, job, 100)

    def fail(fd):
        raise OSError("disk full")
    monkeypatch.setattr(search.os, "fsync", fail)
    with pytest.raises(OSError):
        checkpoint_save(path, job, 200)
    assert checkpoint_resume(path, job) == 100
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


def test_checkpoint_rejects_garbage(tmp_path):
    job = SearchJob(F16, [(6, 1)], (3, 5))
    path = tmp_path / "ck"
    path.write_text("not a checkpoint\n")
    with pytest.raises(CorruptCheckpoint):
        checkpoint_resume(path, job)
    path.write_text("feedbeef 100\n")
    with pytest.raises(CorruptCheckpoint):
        checkpoint_resume(path, job)
    checkpoint_save(path, job, 10)
    other = SearchJob(F16, [(6, 1)], (3,))
    with pytest.raises(CorruptCheckpoint):
        checkpoint_resume(path, other)
    path.write_text("%s %d\n" % (job.family_hash(), 10 ** 6))
    with pytest.raises(CorruptCheckpoint):
        checkpoint_resume(path, job)
    with pytest.raises(CorruptCheckpoint):
        checkpoint_resume(tmp_path / "missing", job)


def test_non_apn_survivor_raises(monkeypatch):
    # every candidate of each scan_range call reaches verification, the
    # non-APN maps among them too
    def everyone(fixed, monos, field, lo, hi, runs):
        at = np.arange(lo, hi, dtype=np.int64)
        return runs[at // field.q] * field.q + at % field.q, hi - lo
    monkeypatch.setattr(search, "scan_range", everyone)
    with pytest.raises(ApnToolError, match="has differential uniformity"):
        scan(SearchJob(F16, [(6, 1)], (3, 5)))


def _stacked_against_per_hit(job, survivors):
    """The stacked verification of survivors and verify_hit_py on each,
    as hit tuples or the message of the error raised."""
    field = job.field
    fixed = value_table(field, list(job.fixed_terms))
    monos = np.array([power_table(field, e) for e in job.free_degrees],
                     dtype=np.int64).reshape(-1, field.q)
    try:
        got = _as_tuples(search._verify_survivors(
            job, fixed, monos, np.array(survivors, dtype=np.int64)))
    except ApnToolError as e:
        got = str(e)
    try:
        want = [h for h in map(functools.partial(verify_hit_py, job),
                               survivors) if h is not None]
    except ApnToolError as e:
        want = str(e)
    return got, want


# (m, fixed terms, free degrees) verified on every candidate the per-hit
# oracle accepts or rejects: an empty fixed part, whose index 0 is the
# zero map; a constant and a power-of-two term; x^(q+2), which folds onto
# free degree 3 where a3 = 7 cancels it, alone and beside x^6; and m = 2
# and 3
VERIFY_FAMILIES = [
    (4, (), (3, 5)),
    (4, ((0, 5), (2, 1)), (3, 5)),
    (4, ((18, 7),), (3, 5)),
    (4, ((18, 7), (6, 1)), (3, 5)),
    (2, ((1, 1),), (3,)),
    (3, (), (3, 5, 6)),
]


@pytest.mark.parametrize("chunk_cells", [1 << 20, 3 * 16])
def test_stacked_verification_matches_per_hit(monkeypatch, chunk_cells):
    # chunks of three survivors at q = 16 put chunk boundaries between
    # hits; the default takes every survivor in one pass
    monkeypatch.setattr(search, "_BATCH_CELLS", chunk_cells)
    raised = 0
    for m, fixed, free in VERIFY_FAMILIES:
        job = SearchJob(Field(m), fixed, free)
        # the zero and affine maps, which no scan hands over, are left out
        accepted, rejected = [], []
        for index in range(job.candidates):
            try:
                if verify_hit_py(job, index) is not None:
                    accepted.append(index)
            except ApnToolError:
                rejected.append(index)
        got, want = _stacked_against_per_hit(job, accepted)
        assert got == want and len(want) > 0, (m, fixed, free)
        # the first non-APN survivor raises the same error on both paths
        if rejected:
            mixed = sorted(accepted[:5] + rejected[:2])
            got, want = _stacked_against_per_hit(job, mixed)
            assert got == want and "has differential uniformity" in got
            raised += 1
    assert raised == len(VERIFY_FAMILIES) - 1
    # the zero map, fed in directly, raises
    got, want = _stacked_against_per_hit(SearchJob(Field(4), [], (3, 5)), [0])
    assert want == [] and got == ("scan survivor 0 has differential "
                                  "uniformity 16")
    if chunk_cells < 1 << 20:
        return
    # every scan of the nine classifications, on the survivors it verifies
    seen = []
    stacked = search._verify_survivors

    def capture(job, fixed, monos, survivors):
        hits = stacked(job, fixed, monos, survivors)
        seen.append((job, survivors.tolist(), _as_tuples(hits)))
        return hits
    monkeypatch.setattr(search, "_verify_survivors", capture)
    for d in (6, 7, 9):
        for m in (4, 5, 6):
            classify(d, m)
    assert sum(len(hits) for _, _, hits in seen) == 435
    for job, survivors, hits in seen:
        assert hits == [h for h in (verify_hit_py(job, i) for i in survivors)
                        if h is not None]


def test_shard_survivor_overflow_raises(monkeypatch):
    monkeypatch.setattr(search, "scan_range",
                        lambda fixed, monos, field, lo, hi, runs:
                        ([], hi - lo + 1))
    with pytest.raises(ApnToolError, match="survivors"):
        scan(SearchJob(F16, [(6, 1)], (3, 5)))


def test_budget_exceeded_carries_partial_and_resumes():
    q2 = 16 * 16
    small = SearchJob(F16, [(6, 1)], (3, 5), budget=50 * q2)
    with pytest.raises(BudgetExceeded) as err:
        scan(small)
    partial = err.value.partial
    assert partial.cursor == 50 and partial.scanned == 50
    rest = scan(SearchJob(F16, [(6, 1)], (3, 5)), start=partial.cursor)
    full = scan(SearchJob(F16, [(6, 1)], (3, 5)))
    got = [h.index for h in partial.hits] + [h.index for h in rest.hits]
    assert got == [h.index for h in full.hits]
    # the partial result is the direct scan of the covered prefix, which
    # ends inside a block of 256
    m, fixed, free = SHORTENED
    small = SearchJob(Field(m), fixed, free, budget=700 * q2)
    for start in (0, 300):
        with pytest.raises(BudgetExceeded) as err:
            scan(small, start)
        partial = err.value.partial
        assert partial.cursor == start + 700 and partial.scanned == 700
        assert _as_tuples(partial.hits) == _oracle_range(
            m, fixed, free, start, start + 700)


def test_budget_too_small_for_anything():
    # one free degree, and three, where the plan goes below the top digit
    m, fixed, free = SHORTENED
    for job in (SearchJob(F16, [(6, 1)], (3,), budget=10),
                SearchJob(Field(m), fixed, free, budget=100)):
        with pytest.raises(BudgetExceeded) as err:
            scan(job)
        assert err.value.partial.cursor == 0
        assert err.value.partial.scanned == 0
        assert err.value.partial.hits == []


def test_empty_range_scans_nothing():
    m, fixed, free = SHORTENED
    for job in (SearchJob(F16, [(6, 1)], (3,)),
                SearchJob(Field(m), fixed, free),
                SearchJob(Field(m), [(9, 1)], (3, 5, 6, 7))):
        for at in (0, 5, job.candidates):
            res = scan(job, at, at)
            assert res.hits == [] and res.scanned == 0 and res.cursor == at
        res = scan(job, job.candidates)
        assert res.hits == [] and res.cursor == job.candidates


def test_empty_and_fixed_only_families():
    empty = SearchJob(F8, [], ())
    res = scan(empty)
    assert res.hits == [] and res.scanned == 1 and res.cursor == 1
    fixed = SearchJob(F8, [(3, 1)], ())
    res = scan(fixed)
    assert len(res.hits) == 1 and res.hits[0].coeffs == ()


def test_jsonl_shape():
    res = scan(SearchJob(F16, [(6, 1)], (3, 5)))
    lines = res.to_jsonl().strip().split("\n")
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["coeffs"] == ["0x0", "0x0"]
    assert rec["delta"] == 2 and len(rec["digest"]) == 64
    none = scan(SearchJob(F8, [], ()))
    assert none.to_jsonl() == ""


def test_hits_closed_under_scaling():
    job = SearchJob(F16, [(9, 1)], (3, 6))
    res = scan(job)
    hitset = {h.coeffs for h in res.hits}
    assert (0, 0) in hitset
    for a3, a6 in hitset:
        for a in range(1, 16):
            ia = F16.inv(a)
            moved = (F16.mul(a3, F16.pow_(ia, 6)),
                     F16.mul(a6, F16.pow_(ia, 3)))
            assert moved in hitset, (a3, a6, a)


def test_classify_degree6():
    for m in (4, 5):
        rep = classify(6, m)
        [fam] = rep.scans
        assert fam.label == "x^6+a5*x^5+a3*x^3"
        assert [h.coeffs for h in fam.hits] == [(0, 0)]
        assert rep.reference_digests["x^3"] == rep.reference_digests["x^6"]
        assert fam.hits[0].digest == rep.reference_digests["x^3"]
        assert any("necessary but not sufficient" in n for n in rep.notes)
    with pytest.raises(InvalidParameters,
                       match="degree-6 classification needs 3 <= m <= 7"):
        classify(6, 2)


def test_classify_degree7_m4_and_m5():
    rep4 = classify(7, 4)
    assert rep4.scans[0].hits == []
    assert rep4.scans[0].label == "x^7+a6*x^6+a5*x^5+a3*x^3"
    rep5 = classify(7, 5)
    hits = rep5.scans[0].hits
    assert hits
    coeffs = {h.coeffs for h in hits}
    assert (0, 0, 0) in coeffs
    ref = rep5.reference_digests["x^7"]
    assert all(h.digest == ref for h in hits)
    assert any("matches" in n for n in rep5.notes)


def test_classify_degree9_m4():
    # one scan, the whole family; two references, so no matching note
    rep = classify(9, 4)
    [full] = rep.scans
    assert full.label == "x^9+a7*x^7+a6*x^6+a5*x^5+a3*x^3"
    assert full.free_degrees == (3, 5, 6, 7)
    assert full.scanned == 16 ** 4 and len(full.hits) == 326
    assert (0, 0, 0, 0) in {h.coeffs for h in full.hits}
    assert sorted(rep.reference_digests) == ["x^3", "x^9"]
    assert len(rep.notes) == 2 and "m_max = 9" in rep.notes[1]
    as_json = json.dumps(rep.as_dict())
    assert "a6" in as_json


def test_classify_coupled_hits_are_in_the_full_family():
    # x^9 + a6*x^6 + a6^2*x^3, a6 != 0, decided map by map, has the hits
    # of the full family with a7 = a5 = 0 and a3 = a6^2 != 0
    for m in (4, 5, 6):
        field = Field(m)
        want = [a6 for a6 in range(1, field.q) if is_apn(PolyFunc(
            field, [(9, 1), (6, a6), (3, field.mul(a6, a6))]))]
        got = [a6 for a3, a5, a6, a7 in (h.coeffs for h in
                                         classify(9, m).scans[0].hits)
               if a6 and a3 == field.mul(a6, a6) and a5 == a7 == 0]
        assert got == want, m


def test_classify_guards():
    for d, m in ((6, 8), (7, 2), (7, 7), (9, 3), (9, 7)):
        with pytest.raises(InvalidParameters,
                           match="degree-%d classification needs" % d):
            classify(d, m)
    with pytest.raises(InvalidParameters, match="no classification"):
        classify(8, 4)


def test_classify_report_dict_roundtrip():
    rep = classify(6, 4)
    d = rep.as_dict()
    assert d["degree"] == 6 and d["m"] == 4
    assert d["scans"][0]["hits"][0]["coeffs"] == {"a3": 0, "a5": 0}
    json.loads(json.dumps(d))


def test_degree9_translation_closed_form():
    # x -> x + b on x^9 + a7*x^7 + a6*x^6 + a5*x^5 + a3*x^3 moves a_k by
    # a7*b^(7 - k) once normalize drops the affine terms (Lucas), the
    # closed form by which translations take a6 to 0 where a7 != 0
    rng = random.Random(11)
    for m in (4, 5, 6):
        field = Field(m)
        q = field.q
        for _ in range(6):
            a3, a5, a6, a7 = (rng.choice((0, rng.randrange(q)))
                              for _ in range(4))
            f = PolyFunc(field, [(9, 1), (7, a7), (6, a6), (5, a5), (3, a3)])
            for b in range(q):
                want = dict(normalize(affine_transform(f, 1, b, 1)).terms())
                got = {9: 1, 7: a7,
                       6: a6 ^ field.mul(a7, b),
                       5: a5 ^ field.mul(a7, field.pow_(b, 2)),
                       3: a3 ^ field.mul(a7, field.pow_(b, 4))}
                assert {k: c for k, c in got.items() if c} == want, (m, f, b)


# families where translations move the free digits: the first four
# translation families of ORBIT_FAMILIES, and the full degree-9 family
TRANSLATION_FAMILIES = ORBIT_FAMILIES[-4:] + [DEGREE9]


@pytest.mark.parametrize("m, fixed, free", TRANSLATION_FAMILIES)
def test_translation_moves_match_affine_transform(m, fixed, free):
    # x -> x + b moves the coefficient of each non-affine x^k by the
    # plan's closed form, once normalize drops the affine terms (Lucas),
    # on random members at every b
    field = Field(m)
    job = SearchJob(field, fixed, free)
    tw = search._Twists(job)
    rng = random.Random(11)
    b = np.arange(field.q, dtype=np.int64)
    for _ in range(6):
        index = rng.randrange(job.candidates)
        f = candidate(job, index)
        digits = np.array([job.coeff_vector(index)] * field.q,
                          dtype=np.int64)
        coeff = dict(f.terms())
        moves = {k: tw.lift(k, b, digits).tolist()
                 for k in range(3, field.q) if k & (k - 1)}
        for bb in range(field.q):
            want = dict(normalize(affine_transform(f, 1, bb, 1)).terms())
            got = {k: coeff.get(k, 0) ^ mv[bb] for k, mv in moves.items()}
            assert {k: c for k, c in got.items() if c} == want, (f, bb)

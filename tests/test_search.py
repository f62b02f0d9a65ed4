"""Family scans, checkpointing, and the fixed-degree classifications."""

import functools
import json
import random

import numpy as np
import pytest

import apnsurf.search as search
from apnsurf.differential import fingerprint_digest, is_apn, walsh_fingerprint
from apnsurf.errors import (ApnToolError, BecameZero, BudgetExceeded,
                            CorruptCheckpoint, InvalidParameters)
from apnsurf.gf2m import Field
from apnsurf.kernels import power_table, value_table
from apnsurf.polyfunc import PolyFunc, affine_transform, normalize
from apnsurf.search import (Hit, SearchJob, SearchResult, checkpoint_resume,
                            checkpoint_save, classify_degree6,
                            classify_degree7, classify_degree9, scan)
from oracles import (candidate, reduction_note_brute_force, scan_py,
                     verify_hit_py)

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
    assert search._base_q_index((7, 3), 16) == 55
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
    assert res.aborted_early == 255
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
    ext, log, _ = field.tables()
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

    def counting(fixed, monos, field, lo, hi):
        counted[0] += hi - lo
        return kernel(fixed, monos, field, lo, hi)
    monkeypatch.setattr(search, "scan_range", counting)
    return counted


# (m, fixed terms, free degrees): an empty fixed part, a constant term,
# two fixed terms with a trivial scaling group, and x^6 + a3*x^3 + a9*x^9
# at m = 4, whose nonzero top digits fall into three orbits
ORBIT_FAMILIES = [
    (2, ((1, 1),), (3,)),
    (3, (), (3, 5, 6)),
    (4, ((0, 5), (3, 1)), (5, 10)),
    (4, ((9, 1), (5, 1)), (3, 6)),
    (4, ((6, 1),), (3, 9)),
    (4, ((6, 1),), (3, 5, 9)),
    (5, ((3, 1),), (6, 12)),
]


@pytest.mark.parametrize("m, fixed, free", ORBIT_FAMILIES, ids=[
    "m%d-fixed%s-free%s" % (m, "+".join(str(e) for e, _ in fixed) or "none",
                            "+".join(map(str, free)))
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
    for lo, hi in ranges:
        counted[0] = 0
        res = scan(job, lo, hi)
        assert _as_tuples(res.hits) == _oracle_range(m, fixed, free, lo, hi)
        assert res.scanned == hi - lo and res.cursor == hi
        # never more kernel work than the direct scan
        assert counted[0] <= hi - lo
    # the full range is shortened unless the scaling group is trivial
    counted[0] = 0
    scan(job)
    assert (counted[0] < total) == (fixed != ((9, 1), (5, 1)))


# x^6 + a3*x^3 + a5*x^5 + a9*x^9 at m = 4: blocks of 256 candidates per
# top digit, and the kernel runs on 788 of the 4096
SHORTENED = (4, ((6, 1),), (3, 5, 9))


def test_worker_count_invariance(monkeypatch):
    monkeypatch.setattr(search, "SHARD", 32)
    job = SearchJob(F16, [(6, 1)], (3, 5))
    one = scan(job, workers=1)
    three = scan(job, workers=3)
    assert [h.index for h in one.hits] == [h.index for h in three.hits]
    assert one.scanned == three.scanned
    m, fixed, free = SHORTENED
    job = SearchJob(Field(m), fixed, free)
    for lo, hi in ((0, 4096), (77, 3001)):
        one = scan(job, lo, hi, workers=1)
        three = scan(job, lo, hi, workers=3)
        assert _as_tuples(three.hits) == _as_tuples(one.hits)
        assert _as_tuples(one.hits) == _oracle_range(m, fixed, free, lo, hi)
        assert one.scanned == three.scanned == hi - lo


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
    # every candidate of each shard reaches verification, the non-APN
    # maps among them too
    monkeypatch.setattr(search, "scan_range",
                        lambda fixed, monos, field, lo, hi:
                        (np.arange(lo, hi, dtype=np.int64), hi - lo))
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


# (m, fixed terms, free degrees) verified on every candidate that is not
# rejected per hit: an empty fixed part, whose index 0 is the zero map; a
# constant and a power-of-two term; x^(q+2), which folds onto free degree
# 3 where a3 = 7 cancels it, alone and beside x^6; and m = 2 and 3
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
        accepted, rejected = [], []
        for index in range(job.candidates):
            try:
                verify_hit_py(job, index)
                accepted.append(index)
            except ApnToolError:
                rejected.append(index)
        got, want = _stacked_against_per_hit(job, accepted)
        assert got == want and len(want) > 0, (m, fixed, free)
        if job.free_degrees and job.fixed_terms == ():
            # index 0 is the zero map, dropped on both paths
            assert want[0][0] != 0 and accepted[0] == 0
        # the first non-APN survivor raises the same error on both paths
        if rejected:
            mixed = sorted(accepted[:5] + rejected[:2])
            got, want = _stacked_against_per_hit(job, mixed)
            assert got == want and "has differential uniformity" in got
            raised += 1
    assert raised == len(VERIFY_FAMILIES) - 1
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
    for m in (4, 5, 6):
        classify_degree6(m)
        classify_degree7(m)
        classify_degree9(m)
    assert sum(len(hits) for _, _, hits in seen) == 541
    for job, survivors, hits in seen:
        assert hits == [h for h in (verify_hit_py(job, i) for i in survivors)
                        if h is not None]


def test_shard_survivor_overflow_raises(monkeypatch):
    monkeypatch.setattr(search, "scan_range",
                        lambda fixed, monos, field, lo, hi:
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
        assert partial.aborted_early == 700 - len(partial.hits)


def test_budget_too_small_for_anything():
    job = SearchJob(F16, [(6, 1)], (3,), budget=10)
    with pytest.raises(BudgetExceeded) as err:
        scan(job)
    assert err.value.partial.cursor == 0
    assert err.value.partial.scanned == 0


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
        rep = classify_degree6(m)
        assert [h.coeffs for h in rep.all_hits()] == [(0, 0)]
        assert rep.reference_digests["x^3"] == rep.reference_digests["x^6"]
        assert rep.all_hits()[0].digest == rep.reference_digests["x^3"]
        assert any("necessary but not sufficient" in n for n in rep.notes)
    with pytest.raises(InvalidParameters):
        classify_degree6(2)


def test_classify_degree7_m4_and_m5():
    rep4 = classify_degree7(4)
    assert rep4.all_hits() == []
    rep5 = classify_degree7(5)
    hits = rep5.all_hits()
    assert hits
    coeffs = {h.coeffs for h in hits}
    assert (0, 0, 0) in coeffs
    ref = rep5.reference_digests["x^7"]
    assert all(h.digest == ref for h in hits)
    assert any("matches" in n for n in rep5.notes)


def test_classify_degree9_m4():
    rep = classify_degree9(4)
    labels = [s.label for s in rep.scans]
    assert len(labels) == 6
    assert any("a6^2" in lbl for lbl in labels)
    by_label = {s.label: s for s in rep.scans}
    plain = by_label["x^9+a6*x^6+a3*x^3"]
    assert (0, 0) in {h.coeffs for h in plain.hits}
    assert any("maps into a reduced family" in n for n in rep.notes)
    full = by_label["x^9+a7*x^7+a6*x^6+a5*x^5+a3*x^3"]
    assert (0, 0, 0, 0) in {h.coeffs for h in full.hits}
    as_json = json.dumps(rep.as_dict())
    assert "a6" in as_json


def test_classify_report_dict_roundtrip():
    rep = classify_degree6(4)
    d = rep.as_dict()
    assert d["degree"] == 6 and d["m"] == 4
    assert d["scans"][0]["hits"][0]["coeffs"] == {"a3": 0, "a5": 0}
    json.loads(json.dumps(d))


def test_orbit_coefficients_match_affine_transform():
    rng = random.Random(11)
    for m in range(2, 7):
        field = Field(m)
        q = field.q
        for _ in range(4 if m < 6 else 2):
            f = PolyFunc(field, [(e, rng.randrange(q) if rng.random() < 0.7
                                  else 0) for e in range(10)])
            grids = search._orbit_coefficients(f, 9)
            for a in range(1, q):
                c = field.pow_(field.inv(a), 9)
                for b in range(q):
                    try:
                        want = dict(normalize(
                            affine_transform(f, a, b, c)).terms())
                    except BecameZero:
                        want = {}
                    got = {k: int(g[a - 1, b]) for k, g in grids.items()
                           if g[a - 1, b]}
                    assert got == want, (m, f, a, b)


def test_reduction_note_matches_brute_force(monkeypatch):
    captured = []
    note = search._degree9_reduction_note

    def capture(field, full_hits, reduced_hit_sets):
        captured.append((field, full_hits, reduced_hit_sets))
        return note(field, full_hits, reduced_hit_sets)
    monkeypatch.setattr(search, "_degree9_reduction_note", capture)
    for m in (4, 5):
        classify_degree9(m)
    escaped = 0
    for field, full_hits, reduced in captured:
        # every other hit of x^9+a6*x^6+a3*x^3, none of x^9+a6*x^6+x^5+a3*x^3
        thinned = list(reduced)
        degs, ones, hitset = thinned[2]
        thinned[2] = (degs, ones, set(sorted(hitset)[::2]))
        degs, ones, _ = thinned[1]
        thinned[1] = (degs, ones, set())
        for sets in (reduced, thinned):
            got = note(field, full_hits, sets)
            assert got == reduction_note_brute_force(field, full_hits, sets)
            escaped += "escaping" in got
    assert escaped == 2


def test_reduction_note_random_hit_sets():
    # dense random hit sets, so the shape and pinned-coefficient tests
    # decide most cells instead of the lookup alone
    rng = random.Random(13)
    q = F16.q
    pairs = [(x, y) for x in range(q) for y in range(q)]
    for _ in range(4):
        full_hits = [Hit(0, tuple(rng.choice((0, rng.randrange(q)))
                                  for _ in range(4)), 2, "")
                     for _ in range(6)]
        reduced = [(degs, ones, set(rng.sample(pairs, q * q // 2)))
                   for degs, ones in (((3, 5), (7,)), ((3, 6), (5,)),
                                      ((3, 6), ()), ((3, 5), ()))]
        got = search._degree9_reduction_note(F16, full_hits, reduced)
        assert got == reduction_note_brute_force(F16, full_hits, reduced)

"""Exhaustive search for almost perfectly nonlinear maps in
coefficient families.

A family is a fixed polynomial part plus free coefficients attached to
a set of monomial degrees.  Candidates are indexed by little-endian
base-q integers: digit j of the index is the coefficient of the j-th
free degree (ascending).  A scan covers a contiguous index range.  The
early-abort differential kernel runs on one block of candidates per
scaling orbit of the top free digit; the survivors of the other blocks
are mapped from it (see _scan_plan).  Every surviving candidate, mapped
or not, is then verified on a value table built from its own digits,
with a full spectrum and its Walsh fingerprint, so a reported hit never
rests on the fast path alone.  The survivors are verified together, in
stacked kernel passes over chunks of them (_verify_survivors).

Free degrees may not be powers of two: a linearized summand never
changes differential behaviour, so scanning over its coefficient would
multiply the work by q for nothing.
"""

import contextlib
import hashlib
import json
import math
import os

import numpy as np

from .differential import (fingerprint_digest, walsh_fingerprint,
                           walsh_fingerprints)
from .errors import (ApnToolError, BudgetExceeded, CorruptCheckpoint,
                     InvalidParameters)
from .gf2m import Field, _is_pow2
from .kernels import (_BATCH_CELLS, _COUNT_CELLS, _fan_out, power_table,
                      scan_range, scaling_rows, spectrum_hist, value_table)
from .polyfunc import PolyFunc

DEFAULT_BUDGET = 1 << 30
SHARD = 4096


def _base_q_index(digits, q):
    """Little-endian base-q number with the given digits; the digits may
    be ints or int64 arrays of equal shape."""
    index = 0
    for c in reversed(digits):
        index = index * q + c
    return index


class SearchJob:
    """A coefficient family over one field, with a work budget.

    fixed_terms: iterable of (exponent, coefficient) for the bound part.
    free_degrees: monomial degrees carrying free coefficients; stored
    ascending.  The budget caps covered candidates times q^2: a scan
    covers at most budget // q^2 indices, however few of them the
    kernel runs on.
    """

    __slots__ = ("field", "fixed_terms", "free_degrees", "budget")

    def __init__(self, field, fixed_terms, free_degrees, budget=DEFAULT_BUDGET):
        if budget <= 0:
            raise InvalidParameters("budget must be positive")
        q = field.q
        degs = tuple(sorted(free_degrees))
        if len(set(degs)) != len(degs):
            raise InvalidParameters("duplicate free degree")
        fixed = []
        fixed_degs = set()
        for e, c in fixed_terms:
            c = field.check(c)
            if c:
                fixed.append((int(e), c))
                fixed_degs.add(int(e))
        for e in degs:
            if not 0 < e < q:
                raise InvalidParameters(
                    "free degree %d outside 1..%d" % (e, q - 1))
            if _is_pow2(e):
                raise InvalidParameters(
                    "free degree %d is linearized; strip it" % e)
            if e in fixed_degs:
                raise InvalidParameters(
                    "degree %d is both fixed and free" % e)
        self.field = field
        self.fixed_terms = tuple(sorted(fixed))
        self.free_degrees = degs
        self.budget = budget

    @property
    def candidates(self):
        return self.field.q ** len(self.free_degrees)

    def coeff_vector(self, index):
        """Little-endian base-q digits of index, one per free degree."""
        q = self.field.q
        out = []
        for _ in self.free_degrees:
            out.append(index % q)
            index //= q
        return tuple(out)

    def family_hash(self):
        desc = "m=%d;poly=%#x;fixed=%r;free=%r" % (
            self.field.m, self.field.poly, self.fixed_terms,
            self.free_degrees)
        return hashlib.sha256(desc.encode()).hexdigest()

    def __repr__(self):
        return "SearchJob(m=%d, fixed=%r, free=%r)" % (
            self.field.m, self.fixed_terms, self.free_degrees)


class Hit:
    """One verified family member with differential uniformity two."""

    __slots__ = ("index", "coeffs", "delta", "digest")

    def __init__(self, index, coeffs, delta, digest):
        self.index = index
        self.coeffs = coeffs
        self.delta = delta
        self.digest = digest

    def __repr__(self):
        return "Hit(index=%d, coeffs=%r, delta=%d)" % (
            self.index, self.coeffs, self.delta)


class SearchResult:
    """Outcome of one contiguous scan.

    cursor is the first index not yet processed; feeding it back as
    start continues the scan with an identical combined hit list.
    """

    __slots__ = ("job", "start", "cursor", "hits", "scanned")

    def __init__(self, job, start, cursor, hits, scanned):
        self.job = job
        self.start = start
        self.cursor = cursor
        self.hits = hits
        self.scanned = scanned

    def to_jsonl(self):
        lines = []
        for h in self.hits:
            lines.append(json.dumps({
                "index": h.index,
                "coeffs": ["%#x" % c for c in h.coeffs],
                "delta": h.delta,
                "digest": h.digest,
            }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self):
        return ("SearchResult(hits=%d, scanned=%d, cursor=%d)"
                % (len(self.hits), self.scanned, self.cursor))


def _uniformities(tables, q, rows=None):
    """Differential uniformity of each value table in an (n, q) stack:
    the largest solution count in its full spectrum."""
    hist = spectrum_hist(tables, q, rows)
    return q - np.argmax(hist[:, ::-1] > 0, axis=1)


def _verify_survivors(job, fixed_table, mono_tables, survivors):
    """The ascending survivors as hits, each verified on its own value
    table, in stacked passes of at most _BATCH_CELLS table cells.

    A survivor's table is fixed_table xor its digits times mono_tables,
    the value tables of the fixed part and of the free monomials; its
    spectrum walks every nonzero a, since the fixed part's scaling group
    need not hold once free terms are present.  Every survivor must have
    uniformity two, else ApnToolError: a zero or affine map has every
    count equal to q, which the early-abort kernel never passes for
    q >= 4."""
    field = job.field
    q = field.q
    if q == 2:
        # every map over GF(2) is affine; its uniformity q reads as two,
        # but an affine map is never reported
        return []
    chunk = max(1, _BATCH_CELLS // q)
    hits = []
    for lo in range(0, survivors.shape[0], chunk):
        index = survivors[lo:lo + chunk]
        digits = [index // q ** j % q for j in range(len(job.free_degrees))]
        tables = np.broadcast_to(fixed_table, (index.shape[0], q)).copy()
        for d, mono in zip(digits, mono_tables):
            tables ^= field.mul_vec(d[:, None], mono[None, :])
        deltas = _uniformities(tables, q)
        bad = np.flatnonzero(deltas != 2)
        if bad.shape[0]:
            raise ApnToolError(
                "scan survivor %d has differential uniformity %d"
                % (index[bad[0]], deltas[bad[0]]))
        for i, fp in zip(index.tolist(), walsh_fingerprints(field, tables)):
            hits.append(Hit(i, job.coeff_vector(i), 2,
                            fingerprint_digest(fp)))
    return hits


def _scan_plan(job, lo, hi):
    """Cover the candidates [lo, hi) by ranges to scan and blocks to map.

    For lam in the scaling group G of the fixed part (kernels.scaling_rows,
    e0 its least exponent), lam^-e0 * f(lam*x) keeps the fixed part,
    sends free coefficient a_e to a_e * lam^(e - e0) and keeps the
    differential uniformity.  With k free digits left, the block of top
    digit t is [t*B, (t + 1)*B), B = q^(k - 1).  A block the range fully
    covers with t != 0 is taken from the block of r, the least t * lam^d
    over G with d = e_top - e0: r's block is scanned, once, and mapped
    onto t's with the lam for which r * lam^d = t.  The at most two
    blocks the range partly covers are scanned; block 0 goes down one
    digit.  So no more is scanned than [lo, hi), and exactly that when
    no top digit has a nontrivial orbit.

    Returns (ranges, maps): ranges lists the ascending disjoint [a, b)
    ranges to scan; maps lists (r_lo, size, mults), the block
    [r_lo, r_lo + size) whose survivors give a covered block once digit
    j is multiplied by mults[j].
    """
    field = job.field
    q = field.q
    n = q - 1
    degs = job.free_degrees
    _, g = scaling_rows(field, job.fixed_terms)[0]
    e0 = job.fixed_terms[0][0] if job.fixed_terms else 0
    ranges, maps = [], []
    for k in range(len(degs), 0, -1):
        size = q ** (k - 1)
        head = max(lo, size)
        first, last = -(-head // size), hi // size
        if first >= last:
            ranges.append((head, hi))
        else:
            ranges += [(head, first * size), (last * size, hi)]
            # lam^d runs over the subgroup of order s generated by
            # alpha^w, so column c of orbits is the orbit of alpha^c
            d = degs[k - 1] - e0
            h = math.gcd(g, d)
            s = g // h
            w = n // s
            orbits = field._exp.reshape(s, w)
            low = orbits.argmin(axis=0)
            step = pow(d // h, -1, s)
            for t in range(first, last):
                i, c = divmod(int(field._log[t]), w)
                r = int(orbits[low[c], c])
                ranges.append((r * size, (r + 1) * size))
                if r != t:
                    # log of the lam = alpha^(j*n/g) with
                    # lam^d = alpha^(w*(i - low[c])) = t / r
                    lam = (i - int(low[c])) * step % s * (n // g)
                    maps.append((r * size, size, [
                        int(field._exp[lam * (e - e0) % n])
                        for e in degs[:k]]))
        hi = min(hi, size)
    ranges.append((lo, hi))
    return _merge_ranges(ranges), maps


def _merge_ranges(ranges):
    """The union of [a, b) ranges as ascending disjoint ranges."""
    out = []
    for a, b in sorted(ranges):
        if a >= b:
            continue
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _map_block(field, cands, mults):
    """The candidates whose digit j is digit j of cands times mults[j]."""
    q = field.q
    return _base_q_index([field.mul_vec(cands // q ** j % q, mu)
                          for j, mu in enumerate(mults)], q)


def scan(job, start=0, stop=None, workers=1):
    """Scan candidate indices [start, stop) in ascending order.

    The shards of the range are dealt out to workers processes, all but
    one forked (kernels._fan_out).  The survivors of the early-abort
    kernel are verified in stacked passes, each on its own full spectrum
    and fingerprint.  The hit list is deterministic and independent of
    worker count.
    When the job's budget cannot cover the range, the covered prefix is
    scanned and BudgetExceeded is raised with the partial result (its
    cursor marks the restart point) attached.
    """
    total = job.candidates
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise InvalidParameters(
            "bad range [%d, %d) for %d candidates" % (start, stop, total))
    if workers < 1:
        raise InvalidParameters("workers must be positive")
    field = job.field
    q = field.q
    allowed = job.budget // (q * q)
    eff_stop = min(stop, start + allowed)

    fixed_table = value_table(field, list(job.fixed_terms))
    monos = [power_table(field, e) for e in job.free_degrees]
    mono_tables = (np.array(monos, dtype=np.int64) if monos
                   else np.zeros((0, q), dtype=np.int64))

    ranges, maps = _scan_plan(job, start, eff_stop)
    shards = [(s, min(s + SHARD, b)) for a, b in ranges
              for s in range(a, b, SHARD)]

    def run(group):
        parts = [np.zeros(0, dtype=np.int64)]
        for lo, hi in group:
            hits, nh = scan_range(fixed_table, mono_tables, field, lo, hi)
            if nh > hi - lo:
                raise ApnToolError("shard [%d, %d) reported %d survivors"
                                   % (lo, hi, nh))
            parts.append(hits)
        return np.concatenate(parts)
    p = max(1, min(workers, len(shards)))
    survivors = np.sort(np.concatenate(
        _fan_out(lambda i: run(shards[i::p]), p)))
    raw = [survivors[(survivors >= start) & (survivors < eff_stop)]]
    for r_lo, size, mults in maps:
        a, b = np.searchsorted(survivors, (r_lo, r_lo + size))
        if a < b:
            raw.append(_map_block(field, survivors[a:b], mults))

    hits = _verify_survivors(job, fixed_table, mono_tables,
                             np.sort(np.concatenate(raw)))
    result = SearchResult(job, start, eff_stop, hits, eff_stop - start)
    if eff_stop < stop:
        raise BudgetExceeded(
            "budget %d covers %d of %d candidates" %
            (job.budget, allowed, stop - start), partial=result)
    return result


# ------------------------------------------------------------- checkpoints

def checkpoint_save(path, job, cursor):
    """Write the family hash and cursor as one line of plain text.

    The line goes to a temporary file next to path, is synced to disk and
    then renamed over path, so a failed or killed write leaves the
    previous checkpoint intact.
    """
    tmp = "%s.tmp" % os.fspath(path)
    try:
        with open(tmp, "w") as fh:
            fh.write("%s %d\n" % (job.family_hash(), cursor))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def checkpoint_resume(path, job):
    """Read a cursor back; the stored hash must match the job."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise CorruptCheckpoint("unreadable checkpoint: %s" % e)
    parts = text.split()
    if len(parts) != 2:
        raise CorruptCheckpoint("expected two fields, got %d" % len(parts))
    if parts[0] != job.family_hash():
        raise CorruptCheckpoint("checkpoint belongs to a different family")
    try:
        cursor = int(parts[1])
    except ValueError:
        raise CorruptCheckpoint("non-integer cursor %r" % parts[1])
    if not 0 <= cursor <= job.candidates:
        raise CorruptCheckpoint("cursor %d out of range" % cursor)
    return cursor


# ----------------------------------------------------------- classification

FINGERPRINT_CAVEAT = ("fingerprint equality is necessary but not "
                      "sufficient for equivalence of maps")


class FamilyScan:
    """One family's scan inside a classification report."""

    __slots__ = ("label", "free_degrees", "hits", "scanned")

    def __init__(self, label, free_degrees, hits, scanned):
        self.label = label
        self.free_degrees = free_degrees
        self.hits = hits
        self.scanned = scanned

    def coeff_maps(self):
        """Hits as degree-keyed dicts, e.g. {"a3": 1, "a6": 9}."""
        out = []
        for h in self.hits:
            out.append({"a%d" % e: c
                        for e, c in zip(self.free_degrees, h.coeffs)})
        return out

    def as_dict(self):
        return {"label": self.label,
                "free_degrees": list(self.free_degrees),
                "scanned": self.scanned,
                "hits": [{"coeffs": coeffs, "delta": h.delta,
                          "digest": h.digest}
                         for h, coeffs in zip(self.hits, self.coeff_maps())]}


class ClassifyReport:
    """Structured outcome of a fixed-degree classification run."""

    __slots__ = ("degree", "m", "scans", "reference_digests", "notes")

    def __init__(self, degree, m, scans, reference_digests, notes):
        self.degree = degree
        self.m = m
        self.scans = scans
        self.reference_digests = reference_digests
        self.notes = notes

    def as_dict(self):
        return {"degree": self.degree, "m": self.m,
                "scans": [s.as_dict() for s in self.scans],
                "reference_digests": self.reference_digests,
                "notes": list(self.notes)}

    def __repr__(self):
        return "ClassifyReport(degree=%d, m=%d, hits=%d)" % (
            self.degree, self.m, sum(len(s.hits) for s in self.scans))


def _reference_digest(field, e):
    f = PolyFunc.monomial(field, e)
    return fingerprint_digest(walsh_fingerprint(f))


def classify_degree6(m, workers=1):
    """Scan x^6 + a5*x^5 + a3*x^3 and compare hits against x^3."""
    if not 3 <= m <= 7:
        raise InvalidParameters("degree-6 classification needs 3 <= m <= 7")
    field = Field(m)
    result = scan(SearchJob(field, [(6, 1)], (3, 5)), workers=workers)
    refs = {"x^3": _reference_digest(field, 3),
            "x^6": _reference_digest(field, 6)}
    notes = [FINGERPRINT_CAVEAT,
             "x^6 is a doubling twist of x^3, so their fingerprints agree"]
    scans = [FamilyScan("x^6+a5*x^5+a3*x^3", result.job.free_degrees,
                        result.hits, result.scanned)]
    return ClassifyReport(6, m, scans, refs, notes)


def classify_degree7(m, workers=1):
    """Scan x^7 + a6*x^6 + a5*x^5 + a3*x^3; compare hits against x^7."""
    if not 3 <= m <= 6:
        raise InvalidParameters("degree-7 classification needs 3 <= m <= 6")
    field = Field(m)
    result = scan(SearchJob(field, [(7, 1)], (3, 5, 6)), workers=workers)
    refs = {"x^7": _reference_digest(field, 7)}
    matched = all(h.digest == refs["x^7"] for h in result.hits)
    notes = [FINGERPRINT_CAVEAT]
    if result.hits:
        notes.append("every hit's fingerprint %s that of x^7" %
                     ("matches" if matched else "DOES NOT match"))
    scans = [FamilyScan("x^7+a6*x^6+a5*x^5+a3*x^3", result.job.free_degrees,
                        result.hits, result.scanned)]
    return ClassifyReport(7, m, scans, refs, notes)


def _orbit_coefficients(field, exps, coeffs, d):
    """Coefficients of a^-d * f_h(a*x + b) for every map f_h of a stack,
    every a != 0 and every b, in chunks of maps.

    f_h is the sum of coeffs[h, j] * x^exps[j]: coeffs is an int64
    (H, len(exps)) stack over exponents below q.  Yields (lo, grids) per
    chunk of maps lo, lo + 1, ...: grids maps each exponent k that
    normalize keeps (not 0, not a power of two) and some exponent
    reaches to an int64 array of shape (n, q - 1, q), and
    grids[k][h, a - 1, b] is the coefficient of x^k in map lo + h.  As
    in affine_transform, (a*x + b)^e expands over the bit-submasks k of
    e into (a*x)^k * b^(e - k), so the coefficient of x^k is the row
    factor a^(k - d) times the column sum of coeff_e * b^(e - k) over
    the exponents e containing k.  The column sums of the whole stack,
    one mul_vec per (e, k), and the row factors are taken once; a chunk
    holds at most _COUNT_CELLS cells per grid.
    """
    q = field.q
    cols = {}
    for j, e in enumerate(exps):
        k = e
        while k:
            if not _is_pow2(k):
                col = field.mul_vec(coeffs[:, j, None],
                                    power_table(field, e - k)[None, :])
                cols[k] = cols[k] ^ col if k in cols else col
            k = (k - 1) & e
    rows = {k: power_table(field, (k - d) % (q - 1))[1:, None] for k in cols}
    chunk = max(1, _COUNT_CELLS // (q * (q - 1)))
    for lo in range(0, coeffs.shape[0], chunk):
        yield lo, {k: field.mul_vec(rows[k], col[lo:lo + chunk, None, :])
                   for k, col in cols.items()}


def _degree9_reduction_note(job, hits, reduced_hit_sets):
    """Check every hit of the full family job lands in a reduced family
    under some substitution x -> a*x + b with the output rescaled monic,
    and report the outcome.

    A hit's map is the job's fixed terms plus its coefficients on
    job.free_degrees.  The hits' (a, b) grids are swept in stacked
    chunks (_orbit_coefficients): a family accepts a cell when every
    coefficient outside its shape is 0, every pinned coefficient is 1
    and the free coefficients, read as the little-endian base-q index
    of SearchJob.coeff_vector, name one of its hits.  A hit maps in
    when some family accepts some cell of its grid.
    """
    field = job.field
    q = field.q
    families = []
    for degs, ones, hitset in reduced_hit_sets:
        table = np.zeros(q ** len(degs), dtype=bool)
        for coeffs in hitset:
            table[_base_q_index(coeffs, q)] = True
        families.append(({9} | set(degs) | set(ones), degs, ones, table))
    exps = [e for e, _ in job.fixed_terms] + list(job.free_degrees)
    coeffs = np.array([[c for _, c in job.fixed_terms] + list(h.coeffs)
                       for h in hits], dtype=np.int64).reshape(-1, len(exps))
    found = np.zeros(len(hits), dtype=bool)
    for lo, grids in _orbit_coefficients(field, exps, coeffs, 9):
        vanish = {k: grid == 0 for k, grid in grids.items()}
        for shape, degs, ones, table in families:
            mask = table[_base_q_index([grids[e] for e in degs], q)]
            for k in vanish.keys() - shape:
                mask &= vanish[k]
            for e in ones:
                mask &= grids[e] == 1
            found[lo:lo + mask.shape[0]] |= mask.any(axis=(1, 2))
    escapees = [h.coeffs for h, ok in zip(hits, found.tolist()) if not ok]
    if escapees:
        return ("full-family hits escaping the reduced families: %r"
                % (escapees,))
    return ("every full-family hit maps into a reduced family under "
            "affine substitution")


def classify_degree9(m, workers=1):
    """Scan the reduced degree-9 families; at m <= 5 also scan the full
    family to confirm the reduction loses no hit.

    The confirming note tries every full-family hit under every
    substitution x -> a*x + b with a != 0, output rescaled monic,
    against the four reduced families, and lists the escapees.
    """
    if not 4 <= m <= 6:
        raise InvalidParameters("degree-9 classification needs 4 <= m <= 6")
    field = Field(m)
    q = field.q
    families = [
        ("x^9+x^7+a5*x^5+a3*x^3", [(9, 1), (7, 1)], (3, 5)),
        ("x^9+a6*x^6+x^5+a3*x^3", [(9, 1), (5, 1)], (3, 6)),
        ("x^9+a6*x^6+a3*x^3", [(9, 1)], (3, 6)),
        ("x^9+a5*x^5+a3*x^3", [(9, 1)], (3, 5)),
    ]
    scans = []
    for label, fixed, free in families:
        result = scan(SearchJob(field, fixed, free), workers=workers)
        scans.append(FamilyScan(label, result.job.free_degrees,
                                result.hits, result.scanned))

    # coupled one-parameter family, nonzero parameter by construction, so
    # every member has the support {3, 6, 9} and its scaling rows
    a6 = np.arange(1, q, dtype=np.int64)
    tables = (power_table(field, 9)
              ^ field.mul_vec(a6[:, None], power_table(field, 6))
              ^ field.mul_vec(field.mul_vec(a6, a6)[:, None],
                              power_table(field, 3)))
    rows, walsh_rows = scaling_rows(field, [(3, 1), (6, 1), (9, 1)])
    apn = _uniformities(tables, q, rows) == 2
    coupled_hits = [
        Hit(a, (a,), 2, fingerprint_digest(fp))
        for a, fp in zip(a6[apn].tolist(),
                         walsh_fingerprints(field, tables[apn], walsh_rows))]
    scans.append(FamilyScan("x^9+a6*x^6+a6^2*x^3 (a6 nonzero)", (6,),
                            coupled_hits, q - 1))

    refs = {"x^3": _reference_digest(field, 3),
            "x^9": _reference_digest(field, 9)}
    notes = [
        FINGERPRINT_CAVEAT,
        "isolated-regime exact bound gives m_max = 9 for degree 9; a "
        "weaker constant in the same count argument reads as m <= 13; "
        "both are reported, neither is silently preferred",
    ]
    if m <= 5:
        full = scan(SearchJob(field, [(9, 1)], (3, 5, 6, 7)),
                    workers=workers)
        scans.append(FamilyScan("x^9+a7*x^7+a6*x^6+a5*x^5+a3*x^3",
                                full.job.free_degrees, full.hits,
                                full.scanned))
        reduced_sets = [
            ((3, 5), (7,), {h.coeffs for h in scans[0].hits}),
            ((3, 6), (5,), {h.coeffs for h in scans[1].hits}),
            ((3, 6), (), {h.coeffs for h in scans[2].hits}),
            ((3, 5), (), {h.coeffs for h in scans[3].hits}),
        ]
        notes.append(_degree9_reduction_note(full.job, full.hits,
                                             reduced_sets))
    return ClassifyReport(9, m, scans, refs, notes)

"""Exhaustive search for almost perfectly nonlinear maps in
coefficient families.

A family is a fixed polynomial part plus free coefficients attached to
a set of monomial degrees.  Candidates are indexed by little-endian
base-q integers: digit j of the index is the coefficient of the j-th
free degree (ascending).  A scan covers a contiguous index range, on
forked processes when it is large (kernels._processes).  The
early-abort differential kernel runs on one run of q candidates (all
values of digit 0) per orbit of the higher digits under the scalings
x -> lam*x and the Frobenius twists that keep the fixed part, and on
one candidate per orbit of digit 0 where the higher digits are all 0;
the survivors of the others are mapped from them (see _scan_plan).  Every
surviving candidate, mapped or not, is then verified on a value table
built from its own digits, with a full spectrum and its Walsh
fingerprint, so a reported hit never rests on the fast path alone.  The
survivors are verified together, in stacked kernel passes over chunks
of them (_verify_survivors).

Free degrees may not be powers of two: a linearized summand never
changes differential behaviour, so scanning over its coefficient would
multiply the work by q for nothing.
"""

import contextlib
import hashlib
import json
import os

import numpy as np

from .differential import (fingerprint_digest, walsh_fingerprint,
                           walsh_fingerprints)
from .errors import (ApnToolError, BudgetExceeded, CorruptCheckpoint,
                     InvalidParameters)
from .gf2m import Field, _is_pow2
from .kernels import (_BATCH_CELLS, _fan_out, _processes, power_table,
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


class _Twists:
    """The group of pairs (lam, i) that keep a family's fixed part: the
    pair sends free coefficient a_e to lam^(e - e0) * a_e^(2^i).

    lam runs over the scaling group G of the fixed part
    (kernels.scaling_rows, order g, e0 the least fixed exponent) and i
    over the r = m/k multiples f*k of k, the least divisor of m with
    c^(2^k) = c for every fixed coefficient c: k = 1 when each is 0 or 1,
    m when one generates the field.  A pair is held as (log lam, f)."""

    __slots__ = ("field", "g", "r", "pw", "logfrob", "shifts")

    def __init__(self, job):
        field = job.field
        m, n = field.m, field.q - 1
        _, self.g = scaling_rows(field, job.fixed_terms)[0]
        e0 = job.fixed_terms[0][0] if job.fixed_terms else 0
        _, log = field.tables()
        logs = [int(log[c]) for _, c in job.fixed_terms]
        k = next(k for k in range(1, m + 1) if m % k == 0 and all(
            lg * ((1 << k) - 1) % n == 0 for lg in logs))
        self.field = field
        self.r = m // k
        self.pw = np.array([pow(2, f * k, n) for f in range(self.r)],
                           dtype=np.int64)
        # row f: the log of t^(2^(f*k)), the zero sentinel 2n at t = 0
        self.logfrob = self.pw[:, None] * log % n
        self.logfrob[:, 0] = 2 * n
        self.shifts = [(e - e0) % n for e in job.free_degrees]

    def group(self):
        """Every pair of the group, as arrays (lam, f)."""
        n = self.field.q - 1
        lam = np.arange(self.g, dtype=np.int64) * (n // self.g)
        return (np.repeat(lam, self.r),
                np.tile(np.arange(self.r, dtype=np.int64), self.g))

    def inverse(self, lam, f):
        """The pairs undoing the pairs (lam, f).  (lam, f) and then
        (lam', f') send a_e to lam''^(e - e0) * a_e^(2^((f + f')*k)) with
        lam'' = lam' * lam^(2^(f'*k)), the identity when f' = -f modulo r
        and lam' = lam^-(2^(f'*k))."""
        n = self.field.q - 1
        f = -f % self.r
        return -lam * self.pw[f] % n, f

    def image(self, lam, f, j, digits=None):
        """Values digits of free digit j under the pairs (lam, f), all
        three of one shape; with digits None, the row of the images of
        every value per pair."""
        ext, _ = self.field.tables()
        n = self.field.q - 1
        shift = lam * self.shifts[j] % n
        if digits is None:
            return ext[shift[:, None] + self.logfrob[f]]
        return ext[shift + self.logfrob[f, digits]]


def _plan_level(tw, level, base, lo, hi, own, lam, f, last):
    """One digit of _scan_plan for nodes with level free digits: node i
    covers [lo[i], hi[i]) of the block at base[i], and its stabilizer is
    listed as the pairs (lam[p], f[p]) with own[p] = i, own ascending.

    Returns (children, maps): children is (base, lo, hi, own, lam, f) of
    the blocks to plan one digit down, listed the same way (the pairs
    None when last), and maps is (src, lam, f): block src gives a
    covered block under the pair (lam, f)."""
    q = tw.field.q
    size = q ** (level - 1)
    t = np.arange(q, dtype=np.int64)
    npairs = own.shape[0]
    starts = np.searchsorted(own, np.arange(base.shape[0] + 1))
    # per node and digit t, the least image of t over the node's pairs
    # and the first pair giving it, as image * npairs + pair
    img = tw.image(lam, f, level - 1)
    key = np.minimum.reduceat(img * npairs + np.arange(npairs)[:, None],
                              starts[:-1])
    rep = key // npairs
    clo = np.minimum(np.maximum(lo[:, None] - t * size, 0), size)
    chi = np.minimum(np.maximum(hi[:, None] - t * size, 0), size)
    full = chi - clo == size
    least = rep == t
    node, col = np.nonzero(full & ~least)
    need = np.zeros_like(least)
    need[node, rep[node, col]] = True
    keep = least & ((chi > clo) | need) | ~least & (chi > clo) & ~full
    # the pair taking t to its least undone takes the least to t
    at = key[node, col] % npairs
    maps = (base[node] // size + rep[node, col],
            *tw.inverse(lam[at], f[at]))
    node, col = np.nonzero(keep)
    children = [base[node] + col * size, np.where(need, 0, clo)[node, col],
                np.where(need, size, chi)[node, col], None, None, None]
    if not last:
        # the block of t keeps the pairs of its node that fix t
        count = starts[node + 1] - starts[node]
        child = np.repeat(np.arange(node.shape[0]), count)
        p = np.arange(child.shape[0]) + np.repeat(
            starts[node] - np.cumsum(count) + count, count)
        fix = img[p, col[child]] == col[child]
        children[3:] = child[fix], lam[p[fix]], f[p[fix]]
    return children, maps


def _plan_nodes(tw, level, nodes):
    """_plan_level over all nodes of a level, in chunks of whole nodes
    whose pairs times q digits come to at most _BATCH_CELLS cells (a node
    whose pairs alone come to more is a chunk of its own); the children
    and maps of the chunks joined in order."""
    base, lo, hi, own, lam, f = nodes
    starts = np.searchsorted(own, np.arange(base.shape[0] + 1))
    limit = max(1, _BATCH_CELLS // tw.field.q)
    children, maps = [[] for _ in range(6)], [[] for _ in range(3)]
    a = done = 0
    while a < base.shape[0]:
        b = max(a + 1, int(np.searchsorted(starts, starts[a] + limit,
                                           "right")) - 1)
        pa, pb = starts[a], starts[b]
        part, moved = _plan_level(tw, level, base[a:b], lo[a:b], hi[a:b],
                                  own[pa:pb] - a, lam[pa:pb], f[pa:pb],
                                  level <= 2)
        if part[3] is not None:
            # the chunk's children are numbered after those before it
            part[3] = part[3] + done
        done += part[0].shape[0]
        for out, x in zip(children + maps, part + list(moved)):
            out.append(x)
        a = b
    return ([None if x[0] is None else np.concatenate(x) for x in children],
            [np.concatenate(x) for x in maps])


def _scan_plan(job, tw, lo, hi):
    """Cover the candidates [lo, hi) by runs to scan and blocks to map.

    tw is the job's _Twists group.  Each pair (lam, i) of it keeps the
    fixed part, and lam^-e0 * sigma^i(f(lam*x)), sigma(x) = x^2 acting on
    the coefficients, keeps the differential uniformity, the affine test
    and the Walsh multiset of f.  A node is a block of the candidates
    whose digits above its level are fixed, with the stabilizer of those
    digits, listed pair by pair; the root is the whole family under the
    whole group.  In a node with k free digits the block of top digit t
    is [t*B, (t + 1)*B), B = q^(k - 1).  A block the node's range fully
    covers, whose t is not the least of its orbit under the stabilizer,
    is mapped from the block of that least r with a pair taking r to t;
    r's block is then planned in full, under the stabilizer of r.  The
    other blocks the range touches are planned over the part of it they
    hold, under the stabilizer of their t.  Planning stops at digit 1,
    so each scanned run of q candidates still shares digit 0 in
    kernels._candidate_tables, except in the run whose upper digits are
    all 0: it keeps the whole group, and digit 0 is planned there too, as
    one-candidate blocks.  Every scanned block is a partly covered one or
    the representative of at least one covered block, so no more is
    scanned than [lo, hi).  The nodes of a level are planned together
    (_plan_nodes).

    Returns (runs, parts, maps): runs is the ascending int64 array of runs
    r to scan in full (candidates r*q .. r*q + q - 1), parts lists the
    ascending [a, b) ranges inside one run to scan, and maps lists
    (level, src, lam, f) by ascending level: the survivors of the block
    src of q^(level - 1) candidates, under the pair (lam, f) applied to
    their level lowest digits by _map_block, give a covered block.  src
    is ascending, and a block repeats once per block it gives.
    """
    q = job.field.q
    level = len(job.free_degrees)
    lam, f = tw.group()
    root = [np.zeros(1, dtype=np.int64), np.array([lo], dtype=np.int64),
            np.array([hi], dtype=np.int64),
            np.zeros(lam.shape[0], dtype=np.int64), lam, f]
    nodes, maps = root, []
    while level > 1 and nodes[0].shape[0]:
        nodes, moved = _plan_nodes(tw, level, nodes)
        maps.append((level, moved))
        level -= 1
    base, nlo, nhi = nodes[:3]
    if level == 1 and base.shape[0] and base[0] == 0:
        # the run of upper digits 0, under the root's pairs
        top, moved = _plan_nodes(tw, 1, [base[:1], nlo[:1], nhi[:1]]
                                 + root[3:])
        maps.append((1, moved))
        base, nlo, nhi = (np.concatenate([x, y[1:]]) for x, y in zip(
            top, (base, nlo, nhi)))
    whole = nhi - nlo == q
    parts = []
    for a, b in zip((base + nlo)[~whole].tolist(),
                    (base + nhi)[~whole].tolist()):
        if parts and parts[-1][1] == a and a % q:
            parts[-1][1] = b
        elif a < b:
            parts.append([a, b])
    out = []
    for level, (src, lam, f) in maps[::-1]:
        order = np.argsort(src, kind="stable")
        out.append((level, src[order], lam[order], f[order]))
    return base[whole] // q, parts, out


def _map_block(tw, cands, lam, f, level):
    """The candidates whose digits below level are those of cands under
    the pairs (lam, f), digit by digit (digit -> mult * digit^(2^i)),
    with the higher digits kept."""
    q = tw.field.q
    out = cands - cands % q ** level
    for j in range(level):
        out += tw.image(lam, f, j, cands // q ** j % q) * q ** j
    return out


def _mapped(tw, survivors, maps):
    """survivors together with every candidate the maps give from them,
    taken by ascending level, so that each source block is complete
    before it is mapped."""
    q = tw.field.q
    for level, src, lam, f in maps:
        blocks = survivors // q ** (level - 1)
        a = np.searchsorted(src, blocks)
        count = np.searchsorted(src, blocks, "right") - a
        total = int(count.sum())
        if not total:
            continue
        which = np.repeat(np.arange(survivors.shape[0]), count)
        at = a[which] + np.arange(total) - np.repeat(
            np.cumsum(count) - count, count)
        survivors = np.concatenate([survivors, _map_block(
            tw, survivors[which], lam[at], f[at], level)])
    return survivors


def scan(job, start=0, stop=None):
    """Scan candidate indices [start, stop) in ascending order.

    The early-abort kernel runs on the runs and parts of _scan_plan,
    dealt out as shards of at most SHARD candidates to the processes
    kernels._processes gives for their cells, all but one forked; a
    shard of runs is one scan_range call.  The survivors of the mapped
    blocks are taken from their representatives (_mapped), and every
    survivor in the range, mapped or not, is verified in stacked passes,
    each on its own full spectrum and fingerprint.  The hit list is
    deterministic and independent of the process count.
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
    field = job.field
    q = field.q
    allowed = job.budget // (q * q)
    eff_stop = min(stop, start + allowed)

    fixed_table = value_table(field, list(job.fixed_terms))
    monos = [power_table(field, e) for e in job.free_degrees]
    mono_tables = (np.array(monos, dtype=np.int64) if monos
                   else np.zeros((0, q), dtype=np.int64))

    tw = _Twists(job)
    runs, parts, maps = _scan_plan(job, tw, start, eff_stop)
    shards = [(a % q, b - a + a % q, np.array([a // q], dtype=np.int64))
              for a, b in parts]
    shards += [(s, min(s + SHARD, runs.shape[0] * q), runs)
               for s in range(0, runs.shape[0] * q, SHARD)]

    def run(group):
        out = [np.zeros(0, dtype=np.int64)]
        for lo, hi, rs in group:
            hits, nh = scan_range(fixed_table, mono_tables, field, lo, hi, rs)
            if nh > hi - lo:
                raise ApnToolError("shard [%d, %d) reported %d survivors"
                                   % (lo, hi, nh))
            out.append(hits)
        return np.concatenate(out)
    cells = (runs.shape[0] * q + sum(b - a for a, b in parts)) * q
    p = _processes(cells, len(shards))
    survivors = _mapped(tw, np.concatenate(
        _fan_out(lambda i: run(shards[i::p]), p)), maps)
    survivors = np.sort(
        survivors[(survivors >= start) & (survivors < eff_stop)])
    hits = _verify_survivors(job, fixed_table, mono_tables, survivors)
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


def classify_degree6(m):
    """Scan x^6 + a5*x^5 + a3*x^3 and compare hits against x^3."""
    if not 3 <= m <= 7:
        raise InvalidParameters("degree-6 classification needs 3 <= m <= 7")
    field = Field(m)
    result = scan(SearchJob(field, [(6, 1)], (3, 5)))
    refs = {"x^3": _reference_digest(field, 3),
            "x^6": _reference_digest(field, 6)}
    notes = [FINGERPRINT_CAVEAT,
             "x^6 is a doubling twist of x^3, so their fingerprints agree"]
    scans = [FamilyScan("x^6+a5*x^5+a3*x^3", result.job.free_degrees,
                        result.hits, result.scanned)]
    return ClassifyReport(6, m, scans, refs, notes)


def classify_degree7(m):
    """Scan x^7 + a6*x^6 + a5*x^5 + a3*x^3; compare hits against x^7."""
    if not 3 <= m <= 6:
        raise InvalidParameters("degree-7 classification needs 3 <= m <= 6")
    field = Field(m)
    result = scan(SearchJob(field, [(7, 1)], (3, 5, 6)))
    refs = {"x^7": _reference_digest(field, 7)}
    matched = all(h.digest == refs["x^7"] for h in result.hits)
    notes = [FINGERPRINT_CAVEAT]
    if result.hits:
        notes.append("every hit's fingerprint %s that of x^7" %
                     ("matches" if matched else "DOES NOT match"))
    scans = [FamilyScan("x^7+a6*x^6+a5*x^5+a3*x^3", result.job.free_degrees,
                        result.hits, result.scanned)]
    return ClassifyReport(7, m, scans, refs, notes)


def _degree9_reduction_note(job, hits, reduced_hit_sets):
    """Check every hit of the full family job, x^9 + a7*x^7 + a6*x^6 +
    a5*x^5 + a3*x^3, lands in a reduced family under some substitution
    x -> a*x + b with the output rescaled monic, and report the outcome.

    By Lucas, x -> x + b keeps a7 and, once normalize drops the affine
    terms, sends a_k to a_k + a7*b^(7 - k) for k = 6, 5, 3.  A hit with
    a7 != 0 keeps x^7 under every scaling, so of the reduced families
    of classify_degree9 only x^9+x^7+a5*x^5+a3*x^3 can take it, and
    that needs a6 = 0: b = a6/a7.  A translation fixes a hit with
    a7 = 0.  So trying every (a, b) is the same as translating each hit
    at its one b (0 when a7 = 0) and trying every scaling x -> a*x,
    which takes the coefficient of x^k to a^(k - 9) times it.  A family
    accepts a scaling when every coefficient outside its shape is 0,
    every pinned coefficient is 1 and the free coefficients, read as the
    little-endian base-q index of SearchJob.coeff_vector, name one of
    its hits.
    """
    field = job.field
    q = field.q
    coef = dict(zip(job.free_degrees, np.array(
        [h.coeffs for h in hits], dtype=np.int64).reshape(-1, 4).T))
    b = field.mul_vec(coef[6], power_table(field, q - 2)[coef[7]])
    for k in (3, 5, 6):
        coef[k] ^= field.mul_vec(coef[7], power_table(field, 7 - k)[b])
    grids = {k: field.mul_vec(c[:, None],
                              power_table(field, (k - 9) % (q - 1))[1:])
             for k, c in coef.items()}
    found = np.zeros(len(hits), dtype=bool)
    for degs, ones, hitset in reduced_hit_sets:
        table = np.zeros(q ** len(degs), dtype=bool)
        table[[_base_q_index(c, q) for c in hitset]] = True
        mask = table[_base_q_index([grids[e] for e in degs], q)]
        for k in grids.keys() - set(degs) - set(ones):
            mask &= grids[k] == 0
        for e in ones:
            mask &= grids[e] == 1
        found |= mask.any(axis=1)
    escapees = [h.coeffs for h, ok in zip(hits, found.tolist()) if not ok]
    if escapees:
        return ("full-family hits escaping the reduced families: %r"
                % (escapees,))
    return ("every full-family hit maps into a reduced family under "
            "affine substitution")


def classify_degree9(m):
    """Scan the reduced degree-9 families; at m <= 5 also scan the full
    family to confirm the reduction loses no hit.

    The confirming note maps every full-family hit into the four reduced
    families by its one forced translation x -> x + b and every scaling
    x -> a*x, output rescaled monic, which is the same as trying every
    substitution x -> a*x + b, and lists the escapees.
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
        result = scan(SearchJob(field, fixed, free))
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
        full = scan(SearchJob(field, [(9, 1)], (3, 5, 6, 7)))
        scans.append(FamilyScan("x^9+a7*x^7+a6*x^6+a5*x^5+a3*x^3",
                                full.job.free_degrees, full.hits,
                                full.scanned))
        # a family's pinned ones are its fixed exponents below 9
        reduced_sets = [
            (free, tuple(e for e, _ in fixed if e < 9),
             {h.coeffs for h in s.hits})
            for (_, fixed, free), s in zip(families, scans)]
        notes.append(_degree9_reduction_note(full.job, full.hits,
                                             reduced_sets))
    return ClassifyReport(9, m, scans, refs, notes)

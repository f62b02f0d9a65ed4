"""Exhaustive search for almost perfectly nonlinear maps in
coefficient families.

A family is a fixed polynomial part plus free coefficients attached to
a set of monomial degrees.  Candidates are indexed by little-endian
base-q integers: digit j of the index is the coefficient of the j-th
free degree (ascending).  A scan covers a contiguous index range; its
runs split over forked processes when they are large
(kernels._split_rows).  The early-abort differential kernel runs on
one run of q candidates (all values of digit 0) per orbit of the
higher digits under the scalings x -> lam*x, the Frobenius twists and
the translations x -> x + b that keep the family, and on one candidate
per orbit of digit 0 where the higher digits are all 0; the survivors
of the others are mapped from them (see _scan_plan).  Every surviving
candidate, mapped or not, is then verified on a value table built from
its own digits, with a full spectrum and its Walsh fingerprint, so a
reported hit never rests on the fast path alone.  The survivors are
verified together, in stacked kernel passes over chunks of them
(_verify_survivors).

Each stage does its work once: the plan reduces each digit value once
per node, not once per pair (_least_images); the kernel walks half of
each derivative row (kernels._apn_survivors); and verification builds
one fingerprint per distinct Walsh histogram and one digest per
distinct fingerprint.

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
from .kernels import (_BATCH_CELLS, _split_rows, power_table, scan_range,
                      scaling_rows, spectrum_hist, value_table)
from .polyfunc import PolyFunc

DEFAULT_BUDGET = 1 << 30


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


def _uniformities(tables, q):
    """Differential uniformity of each value table in an (n, q) stack:
    the largest solution count in its full spectrum."""
    hist = spectrum_hist(tables, q)
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
        # equal fingerprints are one dict (walsh_fingerprints), digested
        # once; the list keeps every dict, and so its id, alive
        digests = {}
        for i, fp in zip(index.tolist(), walsh_fingerprints(field, tables)):
            if id(fp) not in digests:
                digests[id(fp)] = fingerprint_digest(fp)
            hits.append(Hit(i, job.coeff_vector(i), 2, digests[id(fp)]))
    return hits


def _eliminate(w, v, m):
    """Gaussian elimination over F2 of each node's rows w[i] = L(v[i]), L
    additive, as (w, v, lead): the rows with lead >= 0 are the reduced
    echelon basis of the span of w, pivot bit lead set in no other row;
    the labels v of the others, now w = 0, span the kernel of L."""
    w, v = w.copy(), v.copy()
    lead = np.full(w.shape, -1, dtype=np.int64)
    nodes = np.arange(w.shape[0])
    for p in range(m - 1, -1, -1):
        bit = (w >> p) & 1
        free = bit * (lead < 0)
        node = nodes[free.any(axis=1)]
        row = np.argmax(free[node], axis=1)
        bit = bit[node]
        bit[np.arange(node.shape[0]), row] = 0
        w[node] ^= bit * w[node, row][:, None]
        v[node] ^= bit * v[node, row][:, None]
        lead[node, row] = p
    return w, v, lead


def _reduce(values, rows, cosets):
    """Each row of values, of the node rows[i], moved to the least of its
    coset by its node's reduced echelon basis (w, v, lead) of
    _Twists.cosets; returns (least, b), b the translations doing it."""
    w, v, lead = cosets
    least = values.copy()
    b = np.zeros_like(values)
    # each pivot bit is set in its basis row alone, so values decides it
    for i in range(w.shape[1]):
        flag = (values >> lead[rows, i, None]) & 1
        least ^= flag * w[rows, i, None]
        b ^= flag * v[rows, i, None]
    return least, b


class _Twists:
    """The symmetries of a family the scan plan uses: the pairs (lam, i)
    that keep its fixed part, and the translations x -> x + b.

    The pair sends free coefficient a_e to lam^(e - e0) * a_e^(2^i).  lam
    runs over the scaling group G of the fixed part (kernels.scaling_rows,
    order g, e0 the least fixed exponent) and i over the r = m/k
    multiples f*k of k, the least divisor of m with c^(2^k) = c for every
    fixed coefficient c: k = 1 when each is 0 or 1, m when one generates
    the field.  A pair is held as (log lam, f).

    levels maps a level, the count of free digits a plan node leaves
    open, to the exponents whose coefficients its translations must
    keep, top down: the non-affine ones outside those digits with a
    term above them (lift).  A level is left out when no translation
    moves its top digit, or when an open digit lies above a kept
    exponent, so that only b = 0 keeps the node in the family."""

    __slots__ = ("field", "g", "r", "pw", "logfrob", "shifts", "degs",
                 "fold", "support", "levels")

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
        self.degs = degs = job.free_degrees
        # the fixed coefficients with their exponents folded below q
        self.fold = dict(PolyFunc(field, job.fixed_terms).terms())
        self.support = sorted(set(self.fold) | set(degs))
        self.levels = {}
        for level in range(1, len(degs) + 1):
            kept = [j for j in range(n, 2, -1) if not _is_pow2(j)
                    and j not in degs[:level] and self.above(j)]
            if self.above(degs[level - 1]) and not any(
                    e in degs[:level] for j in kept for e in self.above(j)):
                self.levels[level] = kept

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

    def above(self, k):
        """The exponents of the family's terms whose bits contain k's."""
        return [e for e in self.support if e > k and e & k == k]

    def lift(self, k, b, digits):
        """What x -> x + b adds to the coefficient of x^k, k non-affine,
        with the affine terms dropped: by Lucas, the sum of C_e*b^(e - k)
        over above(k), C_e the folded fixed coefficient plus the free
        digit.  b is an int64 array, and digits[..., j], free digit j of
        the maps it acts on, broadcasts against it."""
        field = self.field
        out = np.zeros_like(b)
        for e in self.above(k):
            c = self.fold.get(e, 0) ^ (digits[..., self.degs.index(e)]
                                       if e in self.degs else 0)
            out ^= field.mul_vec(c, power_table(field, e - k)[b])
        return out

    def cosets(self, level, digits):
        """The moves of free digit level - 1 under the translations T of
        the nodes at level, one row of free digits per node, as the
        reduced echelon basis (w, v, lead) of _eliminate, a move w[i] by
        the translation v[i] and zero rows outside it.

        T keeps the node's block in the family: each kept exponent of
        levels[level], top down.  A kept coefficient moves with the terms
        above it only, which the T so far keeps, so the move is additive
        on that T, and its kernel is the next T, a basis of m rows."""
        # a level without translations has T = {0}, held as no rows
        m = self.field.m if level in self.levels else 0
        v = np.broadcast_to(1 << np.arange(m, dtype=np.int64),
                            (digits.shape[0], m)).copy()
        digits = digits[:, None]
        for j in self.levels.get(level, ()):
            _, v, lead = _eliminate(self.lift(j, v, digits), v, m)
            v[lead >= 0] = 0
        w, v, lead = _eliminate(self.lift(self.degs[level - 1], v, digits),
                                v, m)
        w[lead < 0] = v[lead < 0] = 0
        return w, v, np.maximum(lead, 0)


def _least_images(tw, level, digits, own, lam, f):
    """(img, coset, moves) of free digit level - 1 at the nodes with the
    digits digits: img[p, t] is the image of value t under the pair
    (lam[p], f[p]) of node own[p], coset[p, t] the least element of its
    coset under that node's translations (_Twists.cosets) and moves[p, t]
    the translation taking it there.  The least and the translation
    depend on the node and the value alone, so each node reduces its q
    values once, and every pair looks up the rows of its images."""
    q = tw.field.q
    nodes = digits.shape[0]
    least, b = _reduce(
        np.broadcast_to(np.arange(q, dtype=np.int64), (nodes, q)),
        np.arange(nodes), tw.cosets(level, digits))
    img = tw.image(lam, f, level - 1)
    at = own[:, None] * q + img
    return img, least.take(at), b.take(at)


def _plan_level(tw, level, base, lo, hi, own, lam, f, last):
    """One digit of _scan_plan for nodes with level free digits: node i
    covers [lo[i], hi[i]) of the block at base[i], and its stabilizer is
    listed as the pairs (lam[p], f[p]) with own[p] = i, own ascending,
    times the translations of _Twists.cosets.

    Returns (children, maps): children is (base, lo, hi, own, lam, f) of
    the blocks to plan one digit down, listed the same way (the pairs
    None when last), and maps is (src, lam, f, b): block src gives a
    covered block under the translation b and then the pair (lam, f)."""
    q = tw.field.q
    size = q ** (level - 1)
    t = np.arange(q, dtype=np.int64)
    npairs = own.shape[0]
    starts = np.searchsorted(own, np.arange(base.shape[0] + 1))
    digits = base[:, None] // q ** np.arange(len(tw.degs)) % q
    img, coset, moves = _least_images(tw, level, digits, own, lam, f)
    # per node and digit t, the least element of the cosets of the images
    # of t over the node's pairs and the first pair giving it, as element
    # * npairs + pair
    key = np.minimum.reduceat(coset * npairs + np.arange(npairs)[:, None],
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
    # the pair taking t to the coset of its least, then the translation
    # taking it to the least, undone take the least to t
    at = key[node, col] % npairs
    maps = (base[node] // size + rep[node, col],
            *tw.inverse(lam[at], f[at]), moves[at, col])
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


def _scan_plan(job, tw, lo, hi):
    """Cover the candidates [lo, hi) by runs to scan and blocks to map.

    tw is the job's _Twists group.  Each pair (lam, i) of it keeps the
    fixed part, and lam^-e0 * sigma^i(f(lam*x)), sigma(x) = x^2 acting on
    the coefficients, keeps the differential uniformity, the affine test
    and the Walsh multiset of f; f(x + b) with its affine terms dropped
    keeps the first two, and every member is verified on its own table.
    A node is a block of the candidates whose digits above its level are
    fixed, under the pairs that fix those digits, listed pair by pair,
    and the translations that keep the block (_Twists.cosets).  In a
    node with k free digits the block of top digit t is
    [t*B, (t + 1)*B), B = q^(k - 1).  A block the node's range fully
    covers, whose t is not the least of its orbit, is mapped from the
    block of that least r by a translation and a pair taking r to t; r's
    block is then planned in full.  The other blocks the range touches
    are planned over the part of it they hold.  Planning stops at digit
    1, so each scanned run of q candidates still shares digit 0 in
    kernels._candidate_tables, except in the run whose upper digits are
    all 0: it keeps every pair, and digit 0 is planned there too, as
    one-candidate blocks.  Every scanned block is a partly covered one or
    the representative of at least one covered block, so no more is
    scanned than [lo, hi).  All nodes of a level are planned in one
    _plan_level call, whose arrays hold q cells per node and per listed
    pair, so the peak follows the widest level's nodes × q.  In the
    degree-9 and -10 families that is the root's pair table, the whole
    group times q cells; in families with more free digits a deeper
    level holds far more nodes and sets it (ROADMAP item 17).

    Returns (runs, parts, maps): runs is the ascending int64 array of runs
    r to scan in full (candidates r*q .. r*q + q - 1), parts lists the
    ascending [a, b) ranges inside one run to scan, and maps lists
    (level, src, lam, f, b) by ascending level: the survivors of the
    block src of q^(level - 1) candidates, under the translation b and
    then the pair (lam, f) applied to their level lowest digits by
    _map_block, give a covered block.  src is ascending, and a block
    repeats once per block it gives.
    """
    q = job.field.q
    level = len(job.free_degrees)
    lam, f = tw.group()
    root = [np.zeros(1, dtype=np.int64), np.array([lo], dtype=np.int64),
            np.array([hi], dtype=np.int64),
            np.zeros(lam.shape[0], dtype=np.int64), lam, f]
    nodes, maps = root, []
    while level > 1 and nodes[0].shape[0]:
        nodes, moved = _plan_level(tw, level, *nodes, level <= 2)
        maps.append((level, moved))
        level -= 1
    base, nlo, nhi = nodes[:3]
    if level == 1 and base.shape[0] and base[0] == 0:
        # the run of upper digits 0, under the root's pairs
        top, moved = _plan_level(tw, 1, base[:1], nlo[:1], nhi[:1],
                                 *root[3:], True)
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
    for level, moved in maps[::-1]:
        order = np.argsort(moved[0], kind="stable")
        out.append((level, *(x[order] for x in moved)))
    return base[whole] // q, parts, out


def _map_block(tw, cands, lam, f, b, level):
    """The candidates whose digits below level are those of cands moved
    by the translations b and then by the pairs (lam, f), digit by digit
    (digit -> mult * digit^(2^i)), with the higher digits kept."""
    q = tw.field.q
    digits = cands[:, None] // q ** np.arange(len(tw.degs)) % q
    out = cands - cands % q ** level
    for j in range(level):
        moved = digits[:, j] ^ tw.lift(tw.degs[j], b, digits)
        out += tw.image(lam, f, j, moved) * q ** j
    return out


def _mapped(tw, survivors, maps):
    """survivors together with every candidate the maps give from them,
    taken by ascending level, so that each source block is complete
    before it is mapped."""
    q = tw.field.q
    for level, src, lam, f, b in maps:
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
            tw, survivors[which], lam[at], f[at], b[at], level)])
    return survivors


def scan(job, start=0, stop=None):
    """Scan candidate indices [start, stop) in ascending order.

    The early-abort kernel runs on the runs and parts of _scan_plan in
    scan_range calls, which walk half of each derivative row.  The
    parts, ranges inside one run, are scanned in this process.  The runs
    are dealt by kernels._split_rows, as the rows of a row kernel of
    runs * q^2 cells: interleaved parts of them, all but one forked when
    the cells reach the fork threshold.  The survivors of the mapped
    blocks are taken from their representatives (_mapped), and every
    survivor in the range, mapped or not, is verified in stacked passes,
    each on its own full spectrum and fingerprint; survivors with equal
    fingerprints share one digest, computed once.  The hit list is
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

    def run(lo, hi, rs):
        hits, nh = scan_range(fixed_table, mono_tables, field, lo, hi, rs)
        if nh > hi - lo:
            raise ApnToolError("scan of [%d, %d) reported %d survivors"
                               % (lo, hi, nh))
        return hits
    found = [run(a % q, b - a + a % q, np.array([a // q], dtype=np.int64))
             for a, b in parts]
    found += _split_rows(lambda rs: run(0, rs.shape[0] * q, rs), runs,
                         runs.shape[0] * q * q)
    survivors = _mapped(tw, np.concatenate(found), maps)
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


# degree: (least m, greatest m, reference exponents, notes of the degree)
_CLASSIFICATIONS = {
    6: (3, 7, (3, 6),
        ["x^6 is a doubling twist of x^3, so their fingerprints agree"]),
    7: (3, 6, (7,), []),
    9: (4, 6, (3, 9),
        ["isolated-regime exact bound gives m_max = 9 for degree 9; a "
         "weaker constant in the same count argument reads as m <= 13; "
         "both are reported, neither is silently preferred"]),
}


def classify(d, m):
    """Scan the whole family x^d + sum of a_e*x^e, e over 3 <= e < d not
    a power of two, and compare its hits with the degree's references.

    A degree with a single reference notes whether every hit's
    fingerprint matches it."""
    if d not in _CLASSIFICATIONS:
        raise InvalidParameters("no classification for degree %d" % d)
    lo, hi, refs, notes = _CLASSIFICATIONS[d]
    if not lo <= m <= hi:
        raise InvalidParameters("degree-%d classification needs %d <= m <= %d"
                                % (d, lo, hi))
    field = Field(m)
    free = [e for e in range(3, d) if not _is_pow2(e)]
    # a budget that covers the whole family
    result = scan(SearchJob(field, [(d, 1)], free,
                            budget=field.q ** (len(free) + 2)))
    digests = {"x^%d" % e: fingerprint_digest(walsh_fingerprint(
        PolyFunc.monomial(field, e))) for e in refs}
    notes = [FINGERPRINT_CAVEAT] + notes
    if len(refs) == 1 and result.hits:
        matched = all(h.digest == digests["x^%d" % refs[0]]
                      for h in result.hits)
        notes.append("every hit's fingerprint %s that of x^%d" % (
            "matches" if matched else "DOES NOT match", refs[0]))
    label = "x^%d" % d + "".join("+a%d*x^%d" % (e, e) for e in free[::-1])
    scans = [FamilyScan(label, result.job.free_degrees, result.hits,
                        result.scanned)]
    return ClassifyReport(d, m, scans, digests, notes)

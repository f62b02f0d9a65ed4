"""Numeric hot loops, vectorized with numpy.

Field products go through the padded antilog/log tables of Field.tables(),
in which log[0] is a sentinel index whose antilog reads as zero.  The
family scan multiplies only rows of the product tables d * x^e and builds
each candidate's value table by xoring such rows, so it pays for products
per row, not per candidate.  Large spectrum and Walsh passes and large
scans run on forked processes (_split_rows).  Each public kernel is
checked against a plain scalar loop in tests/oracles.py.
"""

import math
import os

import numpy as np

from .errors import ApnToolError
from .gf2m import _parity_table

BACKEND = "numpy"

# table cells (candidates times q) that scan_range builds per batch, and
# that search verifies per chunk
_BATCH_CELLS = 1 << 20
# cells that walsh_hist transforms per chunk of b rows, and up to which
# _apn_survivors widens its blocks of a values: small enough to stay in
# cache, which larger chunks measured slower for
_CHUNK_CELLS = 1 << 16
# bins (tables times rows times q) that spectrum_hist counts per block:
# best of 2^14..2^16 at m = 13, where a block holds four rows of a table
# (every row of one map: 0.206-0.217 s at 2^15, 0.215-0.249 s at 2^14,
# 0.209-0.236 s at 2^16)
_COUNT_CELLS = 1 << 15
# cells from which work splits over forked processes (_processes): on 2 CPUs,
# serial against forked, the spectrum read 5.8 against 8.0 ms at 2^19,
# 10.6-10.9 against 10.4-10.7 ms at 2^20 and 20.1-21.1 against 15.4-16.0 ms at
# 2^21; Walsh broke even at 2^19 and read 19.2-19.4 against 14.7 ms at 2^20; a
# scan lost up to 2^21 and won from 2^21.5
_FORK_CELLS = 1 << 20
# the CPUs this process may run on, which taskset narrows
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# set in a forked child, where every fan-out runs in process
_forked = False


def _run_child(part, i, r, w):
    """Body of a forked child: write part(i)'s bytes to w and exit 0,
    or its error's text and exit 1."""
    global _forked
    _forked = True
    code = 1
    try:
        os.close(r)
        try:
            data, ok = np.ascontiguousarray(part(i), dtype=np.int64), 0
        except BaseException as e:
            data, ok = ("%s: %s" % (type(e).__name__, e)).encode(), 1
        with open(w, "wb") as fh:
            fh.write(data)
        code = ok
    finally:
        os._exit(code)


def _fork(part, i):
    """(pid, read end of its pipe) of a child that runs part(i)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        _run_child(part, i, r, w)
    os.close(w)
    return pid, r


def _reap(pid, r):
    """(bytes, exit code) of a child: all it wrote to its pipe, then its
    exit code once it has ended (minus the signal if one killed it)."""
    try:
        with open(r, "rb") as fh:
            data = fh.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return data, os.waitstatus_to_exitcode(status)


def _fan_out(part, nparts):
    """[part(0), ..., part(nparts - 1)], each a 1-D int64 array.

    Part 0 runs in this process and every other part in a child made by
    os.fork, which sends its array back through a pipe as raw bytes and
    leaves with os._exit.  Every child's pipe is read to its end and
    every child reaped before this returns or raises, so no process
    outlives the call.  A failed child makes this raise ApnToolError
    with the child's error.  Inside a child, where os.fork is missing,
    or for a part whose fork fails, the parts run here."""
    children = {}
    out = [None] * nparts
    try:
        if not _forked and hasattr(os, "fork"):
            for i in range(1, nparts):
                try:
                    children[i] = _fork(part, i)
                except OSError:
                    break
        for i in range(nparts):
            if i not in children:
                out[i] = part(i)
    finally:
        reaped = {i: _reap(pid, r) for i, (pid, r) in children.items()}
    failed = []
    for i, (data, code) in reaped.items():
        if code == 0:
            out[i] = np.frombuffer(data, dtype=np.int64)
        elif code > 0:
            failed.append("part %d: %s" % (i, data.decode(errors="replace")))
        else:
            failed.append("part %d: killed by signal %d" % (i, -code))
    if failed:
        raise ApnToolError("forked process failed: %s" % "; ".join(failed))
    return out


def _processes(cells, parts):
    """Processes for cells cells of work in at most parts parts: one per
    CPU but at most parts, none with less than _FORK_CELLS / 2 cells."""
    return max(1, min(_CPUS, parts, 2 * cells // _FORK_CELLS))


def _split_rows(count, rows, cells):
    """[count(rows[i::p]) for i < p], p = _processes(cells, len(rows)):
    a row kernel of cells cells over interleaved parts of its rows, all
    but part 0 on forked processes (_fan_out).  The caller joins the
    parts, which must give one result for any split: spectrum_hist and
    walsh_hist sum their histograms, search.scan concatenates its
    survivors.  Every fan-out goes through here."""
    p = _processes(cells, rows.shape[0])
    return _fan_out(lambda i: count(rows[i::p]), p)


def power_table(field, e):
    """x^e for every field element x, as an int64 array."""
    q = field.q
    xs = np.arange(q, dtype=np.int64)
    if e == 0:
        return np.ones(q, dtype=np.int64)
    if q == 2:
        return xs
    ext, log = field.tables()
    out = ext[(log[xs] * e) % (q - 1)].copy()
    out[0] = 0
    return out


def value_table(field, terms):
    """Evaluate sum of c*x^e over all x; terms is a list of (e, c)."""
    q = field.q
    acc = np.zeros(q, dtype=np.int64)
    for e, c in terms:
        if c == 0:
            continue
        pt = power_table(field, e)
        acc ^= field.mul_vec(np.full(q, c, dtype=np.int64), pt)
    return acc


def _block_shape(nrows, q, cells):
    """(w, nt): blocks of w rows of nt tables, at most cells cells but
    never less than one row of q cells of one table."""
    w = max(1, min(nrows, cells // q))
    return w, max(1, cells // (w * q))


def _apn_survivors(tables, q, avals):
    """Indices of the rows of tables (one value table per row) whose
    derivative solution counts stay below four for every a in avals, in
    any order; each table drops out in the first round with a failing a.

    D_a(x) = D_a(x + a), so, as in spectrum_hist, row a walks only the x
    whose bit at a's top bit is clear, half of them, and counts each
    solution pair {x, x + a} once: a table fails when a bin reaches two.
    The a values are sorted, and a round counts a block of them of one
    top bit in one numpy pass.  The block starts at one a and doubles
    after every round in which no table fails, while the counted cells
    (tables times a values times q) stay within _CHUNK_CELLS, and it
    ends where its top bit's run ends.  So a lone table takes few round
    trips, and a batch of fresh candidates, most of which fail on their
    first a values, is not counted on a values it never needed."""
    xs = np.arange(q, dtype=np.int64)
    avals = np.sort(avals)
    alive = np.arange(tables.shape[0], dtype=np.int64)
    lo, k = 0, 1
    while lo < avals.shape[0] and alive.shape[0]:
        h = int(avals[lo]).bit_length() - 1
        blk = avals[lo:min(lo + k, int(avals.searchsorted(2 << h)))]
        lo += blk.shape[0]
        n, w = alive.shape[0], blk.shape[0]
        # the x with bit h clear
        xs_h = xs.reshape(-1, 2, 1 << h)[:, 0].ravel()
        # take keeps rows contiguous; tables[:, xs ^ a] comes back
        # column-major, which halves the speed of the passes below
        diffs = np.take(tables, (blk[:, None] ^ xs_h).ravel(), axis=1)
        diffs = diffs.reshape(n, w, q // 2)
        diffs ^= tables.take(xs_h, axis=1)[:, None, :]
        # table i on the j-th a of the block counts its solution pairs in
        # bins (i*w + j)*q .. (i*w + j)*q + q - 1
        diffs += np.arange(0, n * w * q, q, dtype=np.int64).reshape(n, w, 1)
        counts = np.bincount(diffs.ravel(), minlength=n * w * q)
        if counts.max() >= 2:
            keep = counts.reshape(n, w * q).max(axis=1) < 2
            alive = alive[keep]
            tables = tables[keep]
        elif 4 * diffs.size <= _CHUNK_CELLS:
            k *= 2
    return alive


def scaling_rows(field, terms):
    """Row sets for the kernels below, from the scaling group of the map
    sum of c*x^e over terms (see the differential module).

    G = {lambda != 0 : lambda^e equal for every exponent e in the
    support, 0 included} has order g = gcd(q - 1, e - e0 over the
    support); H = {lambda^e0 : lambda in G} has order g / gcd(g, e0).
    Returns (derivative_rows, walsh_rows): each is an (elements, weight)
    pair of coset representatives alpha^i, alpha the field generator,
    and the coset size, for G and H respectively.
    """
    n = field.q - 1
    exps = [e for e, c in terms if c]
    e0 = exps[0] if exps else 0
    g = n
    for e in exps:
        g = math.gcd(g, e - e0)
    h = g // math.gcd(g, e0)
    return (field._exp[:n // g], g), (field._exp[:n // h], h)


def _rows(q, rows):
    if rows is None:
        return np.arange(1, q, dtype=np.int64), 1
    elements, weight = rows
    return np.ascontiguousarray(elements, dtype=np.int64), weight


def _spectrum_counts(stack, q, avals):
    """Unweighted spectrum_hist of each table of stack over the
    ascending rows avals, flat."""
    n = stack.shape[0]
    hist = np.zeros((n, q + 1), dtype=np.int64)
    half = q // 2
    xs = np.arange(q, dtype=np.int64)
    top = 1
    tops = avals.searchsorted(1 << xs[:q.bit_length()]).tolist()
    for h in range(q.bit_length() - 1):
        run = avals[tops[h]:tops[h + 1]]
        if not run.shape[0]:
            continue
        # the x with bit h clear
        xs_h = xs.reshape(-1, 2, 1 << h)[:, 0].ravel()
        w, nt = _block_shape(run.shape[0], q, _COUNT_CELLS)
        for i in range(0, n, nt):
            group = stack[i:i + nt]
            k = group.shape[0]
            # xored onto the differences of table i on the j-th a of a
            # block, this puts them in bins (i*w + j)*q + b, b < q
            bins = group.take(xs_h, axis=1)[:, None, :] ^ np.arange(
                0, k * w * q, q, dtype=np.int64).reshape(k, w, 1)
            minlength = 0
            if k > 1:
                # table i's counts c go to bins i*(half + 1) + c
                spread = np.arange(0, k * (half + 1), half + 1,
                                   dtype=np.int64).reshape(k, 1, 1)
                minlength = k * (half + 1)
            for j in range(0, run.shape[0], w):
                idx = run[j:j + w, None] ^ xs_h
                kw = idx.shape[0]
                # take keeps rows contiguous, where group[:, idx] would
                # come back column-major
                d = group.take(idx.ravel(), axis=1).reshape(k, kw, half)
                d ^= bins[:, :kw]
                # each x reads the count c of its bin in place, so a bin
                # of c solution pairs is read c times; clip mode (every
                # index is in range) is the one that does not buffer
                np.bincount(d.ravel()).take(d, out=d, mode="clip")
                if k > 1:
                    d += spread
                mult = np.bincount(d.ravel(), minlength=minlength)
                mult = mult.reshape(k, -1)
                top = max(top, mult.shape[1])
                hist[i:i + k, :2 * mult.shape[1]:2] += mult
    # hist[r, 2c] holds c times the number of bins of c pairs, for c
    # below top, the width of the widest second bincount (a lone table's
    # stops at its largest c); the other bins of the len(avals) rows of
    # q hold no pair
    pairs = hist[:, 2:2 * top:2]
    pairs //= xs[1:top]
    hist[:, 0] = avals.shape[0] * q - pairs.sum(axis=1)
    return hist.ravel()


def spectrum_hist(tables, q, rows=None):
    """Histogram over solution counts: hist[c] = number of (a, b) pairs,
    a nonzero, whose derivative equation has exactly c solutions.

    tables is one value table, giving one histogram, or an (n, q) stack
    of them, giving an (n, q + 1) array with one histogram per table.
    rows is an (elements, weight) pair: only the rows a in elements are
    walked, each counted weight times.  The default, every nonzero a with
    weight 1, fits any map; scaling_rows gives the reduced set.

    D_a(x) = D_a(x + a), so row a walks only the x whose bit at a's top
    bit is clear, half of them, and counts each solution twice.  The rows
    are sorted and taken in runs of one top bit, in blocks of tables
    times rows with at most _COUNT_CELLS bins: each (table, a) pair
    counts its differences in q bins of its own in one bincount.  Each x
    of the block then gathers the count c of its bin, and one more
    bincount over the block's q/2 elements per row, with the tables
    offset by q/2 + 1 from each other, gives c times the number of bins
    holding c pairs.  hist[2c] is that divided by c, and hist[0] the
    rest of the len(rows) * q bins.  Histograms over disjoint rows add
    up, so from _FORK_CELLS cells (tables times rows times q/2) on,
    interleaved parts of the sorted rows are counted on forked processes
    (_split_rows)."""
    tables = np.ascontiguousarray(tables, dtype=np.int64)
    stack = tables.reshape(-1, q)
    avals, weight = _rows(q, rows)
    avals = np.sort(avals)
    n = stack.shape[0]
    hist = sum(_split_rows(lambda part: _spectrum_counts(stack, q, part),
                           avals, n * avals.shape[0] * (q // 2)))
    hist *= weight
    return hist.reshape(tables.shape[:-1] + (q + 1,))


def is_apn_table(table, q, rows=None):
    """Whether no derivative row a in rows (default: every nonzero a,
    else in any order) has a solution count of four or more; the weight
    is not needed."""
    table = np.ascontiguousarray(table, dtype=np.int64)
    avals, _ = _rows(q, rows)
    return _apn_survivors(table[None, :], q, avals).shape[0] == 1


def _walsh_counts(stack, q, bvals):
    """Unweighted walsh_hist of each table of stack over the b rows
    bvals, flat."""
    sign = 1 - 2 * _parity_table(q).astype(np.int32)
    n = stack.shape[0]
    hist = np.zeros((n, 2 * q + 1), dtype=np.int64)
    half = q // 2
    w, nt = _block_shape(bvals.shape[0], q, _CHUNK_CELLS)
    for i in range(0, n, nt):
        perms = stack[i:i + nt]
        k = perms.shape[0]
        # table i's value v goes to bin i*(2q + 1) + v + q
        per_table = np.arange(q, k * (2 * q + 1), 2 * q + 1,
                              dtype=np.int32).reshape(k, 1)
        for j in range(0, bvals.shape[0], w):
            blk = bvals[j:j + w]
            t = sign[perms[:, None, :] & blk[:, None]].reshape(-1, q)
            u = np.empty_like(t)
            for _ in range(q.bit_length() - 1):
                np.add(t[:, 0::2], t[:, 1::2], out=u[:, :half])
                np.subtract(t[:, 0::2], t[:, 1::2], out=u[:, half:])
                t, u = u, t
            t = t.reshape(k, -1)
            t += per_table
            hist[i:i + k] += np.bincount(
                t.ravel(), minlength=k * (2 * q + 1)).reshape(k, -1)
    return hist.ravel()


def walsh_hist(pmf_perms, q, rows=None):
    """Histogram of Walsh transform values over all (a, b != 0); index
    v + q holds the multiplicity of value v.  pmf_perms is one table or
    an (n, q) stack of them, as in spectrum_hist, and so is the result;
    rows selects and weights the b rows as in spectrum_hist.

    Each stage of the transform reads the pairs (2i, 2i + 1) of one
    buffer and writes their sums to the first half and their
    differences to the second half of the other; m such stages give the
    Walsh-Hadamard transform in natural order.  The buffers are int32
    (|W| <= q <= 2^16) and hold the (table, b) rows of one block of
    _CHUNK_CELLS cells.  From _FORK_CELLS cells (tables times b rows
    times q) on, interleaved parts of the b rows are counted on forked
    processes, as in spectrum_hist."""
    pmf_perms = np.ascontiguousarray(pmf_perms, dtype=np.int64)
    stack = pmf_perms.reshape(-1, q)
    bvals, weight = _rows(q, rows)
    hist = sum(_split_rows(lambda part: _walsh_counts(stack, q, part), bvals,
                           stack.shape[0] * bvals.shape[0] * q))
    hist *= weight
    return hist.reshape(pmf_perms.shape[:-1] + (2 * q + 1,))


def count_affine(terms, field):
    """Affine zero count of the quotient surface of the normalized map
    sum of c*x^e over terms; returns (total, on_triple_locus).

    Works from the derivative histogram and two univariate value tables
    (the identities are stated in the surface module), so the cost is
    that of one spectrum_hist call over the rows of the map's scaling
    group G: O(q^2/g) with g = |G|, so O(q) for a monomial.
    """
    q = field.q
    table = value_table(field, terms)
    rows, _ = scaling_rows(field, terms)
    hist = spectrum_hist(table, q, rows)
    cs = np.arange(q + 1, dtype=np.int64)
    off_locus = int((hist * cs * (cs - 2)).sum())
    deriv = value_table(field, [(e - 1, c) for e, c in terms if e % 2])
    n = np.bincount(deriv, minlength=q)
    diag = value_table(field, [(e - 3, c) for e, c in terms if e % 4 == 3])
    on_locus = 3 * int((n * (n - 1)).sum()) + int((diag == 0).sum())
    return off_locus + on_locus, on_locus


def _candidate_tables(fixed_table, mono_tables, field, lo, hi, runs):
    """Value table of every candidate at positions [lo, hi) of the runs,
    one row each: digit j of the candidate in base q scales
    mono_tables[j] on top of fixed_table.

    Run r holds the q candidates r*q .. r*q + q - 1, and position p is
    candidate runs[p // q]*q + p % q, runs an ascending int64 array.
    The tables are xors of product rows P_j[d] = d * mono_tables[j].
    Digit 0 varies fastest, so the candidates of one run share an upper
    row, fixed_table xor the higher digits' rows of r, and candidate c is
    upper row r xor P_0[c % q].  The upper rows broadcast against one
    block of P_0: the digits the range uses when it lies in one run, else
    all of P_0, and the run-aligned result is sliced from lo % q.  A range
    shorter than q across a run boundary is built as its two one-run
    parts.  So only the product rows the range uses are built, and no
    array exceeds 3 * (hi - lo) rows of q cells."""
    q = field.q
    n = hi - lo
    if n < q and lo // q != (hi - 1) // q:
        wrap = (hi - 1) // q * q
        return np.concatenate([
            _candidate_tables(fixed_table, mono_tables, field, a, b, runs)
            for a, b in ((lo, wrap), (wrap, hi))])
    if mono_tables.shape[0] == 0:
        mono_tables = np.zeros((1, q), dtype=np.int64)
    runs = runs[lo // q:(hi - 1) // q + 1].copy()
    upper = np.broadcast_to(fixed_table, (runs.shape[0], q)).copy()
    for mono in mono_tables[1:]:
        upper ^= field.mul_vec((runs % q)[:, None], mono[None, :])
        runs //= q
    skip = lo % q
    if upper.shape[0] == 1:
        digits, skip = np.arange(skip, skip + n, dtype=np.int64), 0
    else:
        digits = np.arange(q, dtype=np.int64)
    block = field.mul_vec(digits[:, None], mono_tables[0][None, :])
    tables = upper[:, None, :] ^ block[None, :, :]
    return tables.reshape(-1, q)[skip:skip + n]


def scan_range(fixed_table, mono_tables, field, start, stop, runs):
    """Scan the candidates at positions [start, stop) of the ascending
    runs (see _candidate_tables); returns the ascending array of
    candidates that pass the derivative test on every nonzero a, and its
    length.  Each batch of positions builds the tables of all its runs
    in one broadcast."""
    q = field.q
    fixed_table = np.ascontiguousarray(fixed_table, dtype=np.int64)
    mono_tables = np.ascontiguousarray(mono_tables, dtype=np.int64)
    avals = np.arange(1, q, dtype=np.int64)
    batch = max(1, _BATCH_CELLS // q)
    parts = [np.zeros(0, dtype=np.int64)]
    for lo in range(start, stop, batch):
        hi = min(lo + batch, stop)
        # the batch's tables are passed on, not kept: the survivor filter
        # then holds the only copy and shrinks it as candidates fail
        alive = lo + _apn_survivors(
            _candidate_tables(fixed_table, mono_tables, field, lo, hi, runs),
            q, avals)
        parts.append(runs[alive // q] * q + alive % q)
    survivors = np.concatenate(parts)
    return survivors, survivors.shape[0]

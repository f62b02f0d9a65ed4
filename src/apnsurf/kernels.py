"""Numeric hot loops, vectorized with numpy.

Field products go through the padded antilog/log tables of Field.tables(),
in which log[0] is a sentinel index whose antilog reads as zero.  Each
public kernel is checked against a plain scalar loop in tests/oracles.py.
"""

import math

import numpy as np

from .gf2m import _parity_table

BACKEND = "numpy"

# table cells (candidates times q) that scan_range builds per batch
_BATCH_CELLS = 1 << 20


def power_table(field, e):
    """x^e for every field element x, as an int64 array."""
    q = field.q
    xs = np.arange(q, dtype=np.int64)
    if e == 0:
        return np.ones(q, dtype=np.int64)
    if q == 2:
        return xs
    ext, log, _ = field.tables()
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


def _apn_survivors(tables, q, avals):
    """Indices of the rows of tables (one value table per row) whose
    derivative solution counts stay below four for every a in avals;
    each table drops out at its first failing a."""
    xs = np.arange(q, dtype=np.int64)
    alive = np.arange(tables.shape[0], dtype=np.int64)
    # row i counts its solutions in bins i*q .. i*q + q - 1
    offsets = alive[:, None] * q
    for a in avals:
        n = alive.shape[0]
        if n == 0:
            break
        # take keeps rows contiguous; tables[:, xs ^ a] comes back
        # column-major, which halves the speed of the passes below
        diffs = np.take(tables, xs ^ a, axis=1)
        diffs ^= tables
        diffs += offsets[:n]
        counts = np.bincount(diffs.ravel(), minlength=n * q)
        if counts.max() >= 4:
            keep = counts.reshape(n, q).max(axis=1) < 4
            alive = alive[keep]
            tables = tables[keep]
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


def spectrum_hist(table, q, rows=None):
    """Histogram over solution counts: hist[c] = number of (a, b) pairs,
    a nonzero, whose derivative equation has exactly c solutions.

    rows is an (elements, weight) pair: only the rows a in elements are
    walked, each counted weight times.  The default, every nonzero a with
    weight 1, fits any map; scaling_rows gives the reduced set."""
    table = np.ascontiguousarray(table, dtype=np.int64)
    avals, weight = _rows(q, rows)
    hist = np.zeros(q + 1, dtype=np.int64)
    xs = np.arange(q, dtype=np.int64)
    for a in avals:
        counts = np.bincount(table[xs ^ a] ^ table, minlength=q)
        hist += np.bincount(counts, minlength=q + 1)
    return hist * weight


def is_apn_table(table, q, rows=None):
    """Whether no derivative row a in rows (default: every nonzero a)
    has a solution count of four or more; the weight is not needed."""
    table = np.ascontiguousarray(table, dtype=np.int64)
    avals, _ = _rows(q, rows)
    return _apn_survivors(table[None, :], q, avals).shape[0] == 1


def walsh_hist(pmf_perm, q, rows=None):
    """Histogram of Walsh transform values over all (a, b != 0); index
    v + q holds the multiplicity of value v.  rows selects and weights
    the b rows as in spectrum_hist."""
    pmf_perm = np.ascontiguousarray(pmf_perm, dtype=np.int64)
    par = _parity_table(q).astype(np.int64)
    bvals, weight = _rows(q, rows)
    hist = np.zeros(2 * q + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // q)
    for lo in range(0, bvals.shape[0], chunk):
        blk = bvals[lo:lo + chunk]
        t = 1 - 2 * par[pmf_perm[None, :] & blk[:, None]]
        h = 1
        while h < q:
            t = t.reshape(t.shape[0], -1, 2, h)
            a = t[:, :, 0, :].copy()
            b = t[:, :, 1, :].copy()
            t[:, :, 0, :] = a + b
            t[:, :, 1, :] = a - b
            t = t.reshape(blk.shape[0], q)
            h *= 2
        hist += np.bincount((t + q).ravel(), minlength=2 * q + 1)
    return hist * weight


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


def _candidate_tables(fixed_table, mono_tables, field, cands):
    """Value table of every candidate in cands, one row each: digit j of
    the candidate in base q scales mono_tables[j] on top of fixed_table."""
    q = field.q
    tables = np.broadcast_to(fixed_table, (cands.shape[0], q)).copy()
    t = cands.copy()
    for mono in mono_tables:
        digits = t % q
        t //= q
        tables ^= field.mul_vec(digits[:, None], mono[None, :])
    return tables


def scan_range(fixed_table, mono_tables, field, start, stop):
    """Scan candidate coefficient vectors in [start, stop); returns the
    ascending array of candidates that pass the derivative test on every
    nonzero a, and its length."""
    q = field.q
    fixed_table = np.ascontiguousarray(fixed_table, dtype=np.int64)
    mono_tables = np.ascontiguousarray(mono_tables, dtype=np.int64)
    avals = np.arange(1, q, dtype=np.int64)
    batch = max(1, _BATCH_CELLS // q)
    parts = [np.zeros(0, dtype=np.int64)]
    for lo in range(start, stop, batch):
        cands = np.arange(lo, min(lo + batch, stop), dtype=np.int64)
        # the batch's tables are passed on, not kept: the survivor filter
        # then holds the only copy and shrinks it as candidates fail
        alive = _apn_survivors(
            _candidate_tables(fixed_table, mono_tables, field, cands),
            q, avals)
        parts.append(cands[alive])
    survivors = np.concatenate(parts)
    return survivors, survivors.shape[0]

"""Numeric hot loops with two interchangeable backends.

The default backend compiles the scalar loops with numba; setting the
environment variable APNSURF_BACKEND=numpy forces the vectorized numpy
fallback (APNSURF_BACKEND=numba insists on numba and fails loudly when it
is unavailable).  Both backends produce identical outputs; the benchmark
script under benchmarks/ times one against the other.

All kernels take the padded antilog/log tables produced by Field.tables(),
in which log[0] is a sentinel index whose antilog reads as zero.
"""

import math
import os

import numpy as np

from .gf2m import _parity_table

_choice = os.environ.get("APNSURF_BACKEND", "auto").lower()
if _choice not in ("auto", "numba", "numpy"):
    raise RuntimeError(f"APNSURF_BACKEND must be auto, numba or numpy, not {_choice!r}")

_numba = None
if _choice in ("auto", "numba"):
    try:
        import numba as _numba
    except ImportError:
        if _choice == "numba":
            raise RuntimeError("APNSURF_BACKEND=numba but numba is not importable")
        _numba = None

BACKEND = "numba" if _numba is not None else "numpy"


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


# ------------------------------------------------------------- scalar loops
# Written once in plain Python; compiled with numba when that backend is on.

def _spectrum_hist_py(table, q, avals):
    hist = np.zeros(q + 1, dtype=np.int64)
    counts = np.zeros(q, dtype=np.int64)
    for a in avals:
        for b in range(q):
            counts[b] = 0
        for x in range(q):
            counts[table[x ^ a] ^ table[x]] += 1
        for b in range(q):
            hist[counts[b]] += 1
    return hist


def _is_apn_py(table, q, avals):
    counts = np.zeros(q, dtype=np.int64)
    for a in avals:
        for b in range(q):
            counts[b] = 0
        for x in range(q):
            bb = table[x ^ a] ^ table[x]
            c = counts[bb] + 1
            counts[bb] = c
            if c >= 4:
                return False
    return True


def _walsh_hist_py(pmf_perm, par, q, bvals):
    hist = np.zeros(2 * q + 1, dtype=np.int64)
    t = np.zeros(q, dtype=np.int64)
    for b in bvals:
        for u in range(q):
            t[u] = 1 - 2 * par[pmf_perm[u] & b]
        h = 1
        while h < q:
            for i in range(0, q, 2 * h):
                for j in range(i, i + h):
                    x = t[j]
                    y = t[j + h]
                    t[j] = x + y
                    t[j + h] = x - y
            h *= 2
        for u in range(q):
            hist[t[u] + q] += 1
    return hist


def _scan_py(fixed_table, mono_tables, q, nfree, start, stop, ext, log,
             hits_out):
    cap = hits_out.shape[0]
    nh = 0
    table = np.zeros(q, dtype=np.int64)
    counts = np.zeros(q, dtype=np.int64)
    for cand in range(start, stop):
        t = cand
        for x in range(q):
            table[x] = fixed_table[x]
        for j in range(nfree):
            digit = t % q
            t //= q
            if digit:
                lg = log[digit]
                for x in range(q):
                    mv = mono_tables[j, x]
                    if mv:
                        table[x] ^= ext[lg + log[mv]]
        ok = True
        for a in range(1, q):
            for b in range(q):
                counts[b] = 0
            for x in range(q):
                bb = table[x ^ a] ^ table[x]
                c = counts[bb] + 1
                counts[bb] = c
                if c >= 4:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            if nh < cap:
                hits_out[nh] = cand
            nh += 1
    return nh


if BACKEND == "numba":
    _jit = _numba.njit(cache=True, nogil=True)
    _spectrum_hist_fast = _jit(_spectrum_hist_py)
    _is_apn_fast = _jit(_is_apn_py)
    _walsh_hist_fast = _jit(_walsh_hist_py)
    _scan_fast = _jit(_scan_py)


# ------------------------------------------------------------ numpy variants

def _spectrum_hist_np(table, q, avals):
    hist = np.zeros(q + 1, dtype=np.int64)
    xs = np.arange(q, dtype=np.int64)
    for a in avals:
        diffs = table[xs ^ a] ^ table
        counts = np.bincount(diffs, minlength=q)
        hist += np.bincount(counts, minlength=q + 1)
    return hist


def _is_apn_np(table, q, avals):
    xs = np.arange(q, dtype=np.int64)
    for a in avals:
        diffs = table[xs ^ a] ^ table
        if np.bincount(diffs, minlength=q).max() >= 4:
            return False
    return True


def _walsh_hist_np(pmf_perm, par, q, bvals):
    hist = np.zeros(2 * q + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // q)
    for lo in range(0, bvals.shape[0], chunk):
        blk = bvals[lo:lo + chunk]
        t = 1 - 2 * par[pmf_perm[None, :] & blk[:, None]].astype(np.int64)
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
    return hist


def _scan_np(fixed_table, mono_tables, q, nfree, start, stop, ext, log,
             hits_out):
    cap = hits_out.shape[0]
    nh = 0
    xs = np.arange(q, dtype=np.int64)
    batch = max(1, (1 << 20) // q)
    for lo in range(start, stop, batch):
        hi = min(lo + batch, stop)
        cands = np.arange(lo, hi, dtype=np.int64)
        tables = np.broadcast_to(fixed_table, (hi - lo, q)).copy()
        t = cands.copy()
        for j in range(nfree):
            digits = t % q
            t //= q
            tables ^= ext[log[digits[:, None]] + log[mono_tables[j][None, :]]]
        alive = cands
        for a in range(1, q):
            if alive.shape[0] == 0:
                break
            diffs = tables[:, xs ^ a] ^ tables
            nrow = diffs.shape[0]
            offs = (np.arange(nrow, dtype=np.int64)[:, None] * q) + diffs
            counts = np.bincount(offs.ravel(), minlength=nrow * q)
            maxc = counts.reshape(nrow, q).max(axis=1)
            keep = maxc < 4
            alive = alive[keep]
            tables = tables[keep]
        for cand in alive:
            if nh < cap:
                hits_out[nh] = cand
            nh += 1
    return nh


# ---------------------------------------------------------------- dispatch

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
    if BACKEND == "numba":
        return _spectrum_hist_fast(table, q, avals) * weight
    return _spectrum_hist_np(table, q, avals) * weight


def is_apn_table(table, q, rows=None):
    """Whether no derivative row a in rows (default: every nonzero a)
    has a solution count of four or more; the weight is not needed."""
    table = np.ascontiguousarray(table, dtype=np.int64)
    avals, _ = _rows(q, rows)
    if BACKEND == "numba":
        return bool(_is_apn_fast(table, q, avals))
    return bool(_is_apn_np(table, q, avals))


def walsh_hist(pmf_perm, q, rows=None):
    """Histogram of Walsh transform values over all (a, b != 0); index
    v + q holds the multiplicity of value v.  rows selects and weights
    the b rows as in spectrum_hist."""
    pmf_perm = np.ascontiguousarray(pmf_perm, dtype=np.int64)
    par = _parity_table(q).astype(np.int64)
    bvals, weight = _rows(q, rows)
    if BACKEND == "numba":
        return _walsh_hist_fast(pmf_perm, par, q, bvals) * weight
    return _walsh_hist_np(pmf_perm, par, q, bvals) * weight


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


def scan_range(fixed_table, mono_tables, field, start, stop, cap=4096):
    """Scan candidate coefficient vectors in [start, stop); returns the
    array of surviving candidate indices (ascending) and the true count
    (which exceeds the array length if cap was too small)."""
    ext, log, _ = field.tables()
    fixed_table = np.ascontiguousarray(fixed_table, dtype=np.int64)
    mono_tables = np.ascontiguousarray(mono_tables, dtype=np.int64)
    hits = np.zeros(cap, dtype=np.int64)
    nfree = mono_tables.shape[0]
    if BACKEND == "numba":
        nh = int(_scan_fast(fixed_table, mono_tables, field.q, nfree,
                            start, stop, ext, log, hits))
    else:
        nh = int(_scan_np(fixed_table, mono_tables, field.q, nfree,
                          start, stop, ext, log, hits))
    return hits[:min(nh, cap)].copy(), nh

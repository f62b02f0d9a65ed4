"""Differential spectra, the uniformity-two test, and Walsh fingerprints.

The kernels walk one row per coset of the map's scaling group and count
it once per coset element.  For f = sum of c_e*x^e, let

    G = {lambda != 0 : lambda^e is the same for every e in the support},

of order g = gcd(q - 1, e - e0 over the support), where e0 is any
exponent of the support.  Exponent 0 counts: a constant term is in the
support, and then G only holds the lambda with lambda^e = 1 for all e.
A map with no terms or a single term has g = q - 1.  For lambda in G,
f(lambda*x) = lambda^e0 * f(x), and two identities follow:

- N(lambda*a, lambda^e0*b) = N(a, b), where N(a, b) counts the x with
  f(x + a) + f(x) = b; so derivative row lambda*a is a permutation of
  row a, and one row per coset of G suffices (weight g).
- W(b*lambda^e0, a*lambda) = W(b, a), where W(b, a) is the sum over x
  of (-1)^tr(b*f(x) + a*x); so Walsh row b*mu is a permutation of row b
  for mu in H = {lambda^e0 : lambda in G}, of order g / gcd(g, e0), and
  one row b per coset of H suffices (weight |H|).

Leaving exponent 0 out of the gcd would be wrong: c + x^e is not scaled
by lambda^e, and its Walsh rows b and b*lambda^e differ in sign wherever
tr(c*b) and tr(c*b*lambda^e) differ.  kernels.scaling_rows computes G
and H; the row sets are the powers alpha^i of the field generator below
(q - 1)/g and (q - 1)/|H|.
"""

import hashlib
import json

import numpy as np

from . import kernels
from .errors import FieldTooLarge
from .gf2m import _TABLE_LIMIT


class DifferentialSpectrum:
    """Distribution of derivative solution counts.

    counts maps a solution count c to the number of (a, b) pairs, a
    nonzero, for which f(x+a)+f(x) = b has exactly c solutions; delta is
    the largest count that occurs.
    """

    __slots__ = ("m", "counts", "delta")

    def __init__(self, m, counts):
        self.m = m
        self.counts = dict(sorted(counts.items()))
        self.delta = max(c for c, n in self.counts.items() if n > 0)

    def __eq__(self, other):
        return (isinstance(other, DifferentialSpectrum)
                and self.m == other.m and self.counts == other.counts)

    def __repr__(self):
        return f"DifferentialSpectrum(m={self.m}, delta={self.delta}, counts={self.counts})"


def _gate(field):
    if field.m > _TABLE_LIMIT:
        raise FieldTooLarge(
            f"value-table analysis capped at m <= {_TABLE_LIMIT}, got {field.m}")


def differential_spectrum(f):
    """Full spectrum of the map; table-driven, m <= 16."""
    _gate(f.field)
    terms = f.terms()
    table = kernels.value_table(f.field, terms)
    rows, _ = kernels.scaling_rows(f.field, terms)
    hist = kernels.spectrum_hist(table, f.field.q, rows)
    nz = np.flatnonzero(hist)
    counts = dict(zip(nz.tolist(), hist[nz].tolist()))
    return DifferentialSpectrum(f.field.m, counts)


def is_apn(f):
    """True when the differential uniformity is exactly two; aborts a
    candidate at the first solution count that reaches four."""
    _gate(f.field)
    terms = f.terms()
    table = kernels.value_table(f.field, terms)
    rows, _ = kernels.scaling_rows(f.field, terms)
    return kernels.is_apn_table(table, f.field.q, rows)


def walsh_fingerprint(f):
    """Multiset of Walsh transform values over all (a, b) with b nonzero,
    as a dict value -> multiplicity."""
    _gate(f.field)
    terms = f.terms()
    table = kernels.value_table(f.field, terms)
    _, rows = kernels.scaling_rows(f.field, terms)
    return walsh_fingerprints(f.field, table[None, :], rows)[0]


def walsh_fingerprints(field, tables, rows=None):
    """walsh_fingerprint of each value table in an (n, q) stack; rows
    (default: every nonzero b) must fit every table.  Tables with equal
    histograms share one dict, built once."""
    q = field.q
    pm = field.pair_table()
    inv = np.zeros(q, dtype=np.int64)
    inv[pm] = np.arange(q, dtype=np.int64)
    hists = kernels.walsh_hist(pm[np.take(tables, inv, axis=1)], q, rows)
    out, seen = [], {}
    for hist in hists:
        key = hist.tobytes()
        if key not in seen:
            nz = np.flatnonzero(hist)
            seen[key] = dict(zip((nz - q).tolist(), hist[nz].tolist()))
        out.append(seen[key])
    return out


def fingerprint_digest(fp):
    """Stable hex digest of a Walsh fingerprint."""
    blob = json.dumps([[int(v), int(n)] for v, n in sorted(fp.items())],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()

"""Point-count exclusion bounds for maps of given degree over GF(2^m).

Each bound turns a count of rational points on the quotient surface (or
on a plane curve section) into an inequality in q = 2^m that, once it
holds, rules out any almost perfectly nonlinear map of source degree d.
Two regimes are covered:

* ``irreducible``: the projective surface attached to the map has an
  absolutely irreducible component defined over the base field.
* ``isolated``: such a component exists and carries at most isolated
  singular points, which sharpens the count.

Every regime is evaluated in three condition forms of decreasing
strength: ``exact`` (the full inequality, decided in exact arithmetic),
``sufficient`` (a polynomial condition in q that implies the exact one),
and ``quarter`` (a crude d < c*q^(1/4) + c' cutoff).  Square roots of q
are never floated: the sign of P + S*sqrt(q) is decided by squaring
with sign analysis.
"""

import math
from fractions import Fraction

from .errors import ApnToolError, InvalidParameters

IRREDUCIBLE = "irreducible"
ISOLATED = "isolated"
KINDS = (IRREDUCIBLE, ISOLATED)
FORMS = ("exact", "sufficient", "quarter")

M_CAP = 64

# published m_max rows (d threshold, largest m not excluded) per regime
PUBLISHED_MMAX = {
    IRREDUCIBLE: ((7, 15), (9, 16), (10, 17), (12, 18), (15, 19),
                  (17, 20), (21, 21), (23, 22), (29, 23), (36, 24),
                  (41, 25), (49, 26), (50, 27), (70, 28), (83, 29)),
    ISOLATED: ((7, 6), (9, 9), (10, 10), (12, 11), (13, 12),
               (15, 13), (17, 14), (20, 15), (23, 16), (26, 17),
               (30, 18), (36, 19), (42, 20), (49, 21), (57, 22)),
}


def _sign(v):
    return (v > 0) - (v < 0)


def _sign_p_plus_s_sqrtq(p, s, q):
    """Sign of p + s*sqrt(q) for rational p, s and a positive integer q,
    without floating point: when the two terms differ in sign, the one
    with the larger square wins."""
    sp, ss = _sign(p), _sign(s)
    if sp * ss >= 0:
        return sp or ss
    return sp * _sign(p * p - s * s * q)


def _check_args(d, m, form):
    if d < 5:
        raise InvalidParameters("degree must be at least 5, got %d" % d)
    if m < 1:
        raise InvalidParameters("field exponent must be positive, got %d" % m)
    if form not in FORMS:
        raise InvalidParameters("unknown form %r" % (form,))


def excludes_irreducible(d, m, form="exact"):
    """True when degree d cannot be almost perfectly nonlinear over
    GF(2^m), assuming the surface has an absolutely irreducible
    component over the base field.

    The exact form decides q - (d-4)(d-5)sqrt(q) - 18d^4 - 4d + 13
    - 3/q > 0 after clearing denominators.  The sufficient form is
    sqrt(q) > 1351/100 - 5d + (4773/1000)d^2; the quarter form is
    10(2d-1) < 9*q^(1/4), valid only once d >= 9.
    """
    _check_args(d, m, form)
    q = 1 << m
    if form == "exact":
        p = q * q + (-18 * d ** 4 - 4 * d + 13) * q - 3
        s = -(d - 4) * (d - 5) * q
        return _sign_p_plus_s_sqrtq(p, s, q) > 0
    if form == "sufficient":
        rhs = Fraction(1351, 100) - 5 * d + Fraction(4773, 1000) * d * d
        return _sign_p_plus_s_sqrtq(-rhs, Fraction(1), q) > 0
    if d < 9:
        return False
    return (10 * (2 * d - 1)) ** 4 < 9 ** 4 * q


def excludes_isolated(d, m, form="exact"):
    """True when degree d cannot be almost perfectly nonlinear over
    GF(2^m), assuming an absolutely irreducible surface component with
    at most isolated singular points.

    The exact form decides q - (d^2-9d+20)sqrt(q) - d^3 + 13d^2 - 61d
    + 95 - 2/q > 0 after clearing denominators.  The sufficient form is
    q > d^4 - 16d^3 + 94d^2 - 228d + 173, valid once d >= 6; the
    quarter form is d - 4 < q^(1/4), valid only once d >= 10.
    """
    _check_args(d, m, form)
    q = 1 << m
    if form == "exact":
        p = q * q + (-d ** 3 + 13 * d * d - 61 * d + 95) * q - 2
        s = (-d * d + 9 * d - 20) * q
        return _sign_p_plus_s_sqrtq(p, s, q) > 0
    if form == "sufficient":
        if d < 6:
            return False
        return q > d ** 4 - 16 * d ** 3 + 94 * d * d - 228 * d + 173
    if d < 10:
        return False
    return (d - 4) ** 4 < q


_EXCLUDERS = {IRREDUCIBLE: excludes_irreducible, ISOLATED: excludes_isolated}


def mmax(d, kind=IRREDUCIBLE, form="exact"):
    """Largest m in 1..M_CAP for which (d, m) is not excluded.

    The scan runs down from M_CAP and stops at the first m not excluded,
    so every m above the returned value has been checked as excluded
    and a single number faithfully summarizes the whole range.  Returns
    None when even m = M_CAP is not excluded, i.e. the chosen condition
    form establishes no bound below the cap, and 0 when every m is
    excluded.
    """
    if kind not in KINDS:
        raise InvalidParameters("unknown kind %r" % (kind,))
    excl = _EXCLUDERS[kind]
    for m in range(M_CAP, 0, -1):
        if not excl(d, m, form):
            return None if m == M_CAP else m
    return 0


class MmaxRow:
    """One published table row with its recomputed values.

    matched lists the condition forms whose m_max agrees with the
    published entry; discrepancy is set when none does.
    """

    __slots__ = ("d", "published", "exact", "sufficient", "quarter",
                 "matched", "discrepancy")

    def __init__(self, d, published, exact, sufficient, quarter):
        self.d = d
        self.published = published
        self.exact = exact
        self.sufficient = sufficient
        self.quarter = quarter
        self.matched = tuple(name for name, v in
                             (("exact", exact), ("sufficient", sufficient),
                              ("quarter", quarter)) if v == published)
        self.discrepancy = not self.matched

    @property
    def m_max(self):
        return self.exact

    def as_dict(self):
        return {"d_max": self.d, "published": self.published,
                "exact": self.exact, "sufficient": self.sufficient,
                "quarter": self.quarter, "matched": list(self.matched),
                "discrepancy": self.discrepancy}

    def __repr__(self):
        return ("MmaxRow(d=%d, published=%d, exact=%d, matched=%r)"
                % (self.d, self.published, self.exact, self.matched))


class MmaxTable:
    """Recomputed m_max table for one exclusion regime."""

    __slots__ = ("kind", "rows")

    def __init__(self, kind, rows):
        self.kind = kind
        self.rows = rows

    @property
    def discrepancies(self):
        return [r for r in self.rows if r.discrepancy]

    def to_csv(self):
        """CSV with one line per row: the degree threshold, the
        recomputed m_max (exact form), and the first condition form
        that reproduces the published entry, or "none"."""
        lines = ["d_max,m_max,form"]
        for r in self.rows:
            form = r.matched[0] if r.matched else "none"
            lines.append("%d,%d,%s" % (r.d, r.m_max, form))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "MmaxTable(kind=%r, rows=%d)" % (self.kind, len(self.rows))


def mmax_table(kind=IRREDUCIBLE):
    """Recompute every published row for the chosen regime.

    Each row is evaluated under all three condition forms; forms that
    fail to reproduce the published value are recorded rather than
    patched over.  m_max must be non-decreasing down the table.
    """
    if kind not in KINDS:
        raise InvalidParameters("unknown kind %r" % (kind,))
    rows = []
    for d, published in PUBLISHED_MMAX[kind]:
        rows.append(MmaxRow(d, published,
                            mmax(d, kind, "exact"),
                            mmax(d, kind, "sufficient"),
                            mmax(d, kind, "quarter")))
    for a, b in zip(rows, rows[1:]):
        if a.published > b.published or a.m_max > b.m_max:
            raise ApnToolError("m_max decreases from d=%d to d=%d"
                               % (a.d, b.d))
    return MmaxTable(kind, rows)


def hasse_weil_min(q):
    """Conservative lower bound q + 1 - 2*floor(sqrt(q)) on rational
    points of an absolutely irreducible smooth plane cubic."""
    if q < 2:
        raise InvalidParameters("need q >= 2")
    return q + 1 - 2 * math.isqrt(q)


def curve_exclusion(curve_degree, q):
    """True when an absolutely irreducible plane curve of the given
    degree has too many rational points to fit on four lines.

    Decides q + 1 - (D-1)(D-2)sqrt(q) > 4D exactly; the left side is
    the genus-based lower point count, the right side caps points lying
    on four lines at D each.  q must be a power of two.
    """
    if curve_degree < 3:
        raise InvalidParameters("need curve_degree >= 3")
    m = q.bit_length() - 1
    if q < 2 or (1 << m) != q:
        raise InvalidParameters("q must be a power of two, got %r" % (q,))
    p = q + 1 - 4 * curve_degree
    s = -(curve_degree - 1) * (curve_degree - 2)
    return _sign_p_plus_s_sqrtq(p, s, q) > 0

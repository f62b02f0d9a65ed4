"""Sufficient criteria for irreducibility and smoothness of the curve at
infinity, plus direct factorization and singular-point computation.

Each criterion returns a CriterionVerdict: established means the stated
property is proven, refuted means a concrete witness against it was
found, unknown means the criterion simply does not decide the case.
"""

import itertools
import math

from .errors import (DegreeCapExceeded, DegreeOutOfRange, InvalidParameters,
                     NoGoodEvaluationPoint)
from .gf2m import _is_pow2, _prime_factors
from .mvpoly import (FACTOR_DEGREE_CAP, TriPoly, UniPoly, _bl_partials,
                     _bl_partials_gcd, _bl_tdeg, _chart_rows, bi_factor,
                     bi_gcd, bi_resultant, bi_squarefree, bi_to_tri,
                     extension, uni_factor, uni_gcd, uni_gcd_many,
                     uni_roots)
from .surface import check_plane_form, infinity_curve

ESTABLISHED = "established"
REFUTED = "refuted"
UNKNOWN = "unknown"

EXT_M_CAP = 32


class CriterionVerdict:
    __slots__ = ("status", "criterion", "note", "witness")

    def __init__(self, status, criterion, note="", witness=None):
        self.status = status
        self.criterion = criterion
        self.note = note
        self.witness = witness

    @property
    def established(self):
        return self.status == ESTABLISHED

    @property
    def refuted(self):
        return self.status == REFUTED

    def __bool__(self):
        return self.established

    def __repr__(self):
        bits = [f"{self.criterion}: {self.status}"]
        if self.note:
            bits.append(self.note)
        return f"CriterionVerdict({'; '.join(bits)})"


def _order_mod(a, n):
    """Multiplicative order of a modulo n (gcd(a, n) = 1)."""
    r = 1
    x = a % n
    while x != 1:
        x = (x * a) % n
        r += 1
    return r


def _check_curve_degree(d):
    """No curve at infinity below degree 3, as in surface.infinity_curve."""
    if d < 3:
        raise DegreeOutOfRange(f"degree {d} below 3")


def congruence_irreducible(d):
    """Residue-class test for absolute irreducibility of the curve at
    infinity of degree-d maps."""
    name = "congruence_irreducible"
    _check_curve_degree(d)
    if d < 5:
        return CriterionVerdict(UNKNOWN, name, note="degenerate below degree 5")
    if d % 4 == 3:
        return CriterionVerdict(ESTABLISHED, name, note="d = 3 mod 4")
    if d % 8 == 5 and d > 13:
        return CriterionVerdict(ESTABLISHED, name, note="d = 5 mod 8, d > 13")
    return CriterionVerdict(UNKNOWN, name)


def congruence_smooth(d):
    """Residue/order test establishing that the curve at infinity of an
    odd-degree map is smooth (hence absolutely irreducible for d >= 7)."""
    name = "congruence_smooth"
    _check_curve_degree(d)
    if d % 2 == 0 or d < 7:
        return CriterionVerdict(UNKNOWN, name, note="needs odd degree >= 7")
    half = (d - 1) // 2
    if half % 2 == 1:
        # -1 lies in the cyclic group generated by 2 exactly when it is
        # that group's one element of order 2
        r = _order_mod(2, half)
        if r % 2 == 0 and pow(2, r // 2, half) == half - 1:
            return CriterionVerdict(
                ESTABLISHED, name, note=f"-1 is a power of 2 modulo {half}")
    if (half > 17 and _prime_factors(half) == [half]
            and _order_mod(2, half) == (half - 1) // 2):
        return CriterionVerdict(
            ESTABLISHED, name,
            note=f"2 has order {(half - 1) // 2} modulo the prime {half}")
    return CriterionVerdict(UNKNOWN, name)


# ---------------------------------------------------- direct factorization

def _extension(base, k):
    """Embedding of base into its degree-k extension (identity for k = 1)."""
    if base.m * k > EXT_M_CAP:
        raise DegreeCapExceeded(
            f"singular point needs GF(2^{base.m * k}), above the cap {EXT_M_CAP}")
    return extension(base, k)


def _map_rows(emb, rows):
    return [emb.map_uni(p) for p in rows]


def absolutely_irreducible(curve):
    """Decide absolute irreducibility of a homogeneous form in x0, x1, x2
    by factoring its chart over the base field and over the prime-order
    extensions dividing the degree."""
    name = "absolutely_irreducible"
    if curve.is_zero:
        raise InvalidParameters("zero form")
    check_plane_form(curve)
    deg = curve.total_degree
    if deg == 0:
        return CriterionVerdict(REFUTED, name, note="constant form, empty curve")
    if deg > FACTOR_DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {deg} above cap {FACTOR_DEGREE_CAP}")
    # powers of x2 split off by the chart substitution
    k2 = min(e[2] for e in curve.terms)
    base = curve.field
    chart = _chart_rows(curve)
    tdeg = _bl_tdeg(chart)
    if k2 and tdeg > 0:
        return CriterionVerdict(REFUTED, name, note="x2 divides the form",
                                witness=TriPoly.var(base, 2))
    if k2:
        if k2 == 1:
            return CriterionVerdict(ESTABLISHED, name, note="the line x2 = 0")
        return CriterionVerdict(REFUTED, name, note="repeated factor x2",
                                witness=TriPoly.var(base, 2))
    if deg == 1:
        return CriterionVerdict(ESTABLISHED, name, note="a line")
    sf = bi_squarefree(chart, base)
    if _bl_tdeg(sf) < tdeg:
        return CriterionVerdict(REFUTED, name, note="repeated factor",
                                witness=_lift(sf, base))
    # each prime t climbs GF(q^t), GF(q^2t), ... until a field has enough
    # evaluation points; a split there still refutes irreducibility over
    # the algebraic closure.  A chart irreducible over GF(q^j) stays so
    # over each subfield GF(q^t), t | j, so no field is factored twice
    irreducible_over = []
    for t in [1] + _prime_factors(deg):
        if any(j % t == 0 for j in irreducible_over):
            continue
        if base.m * t > EXT_M_CAP:
            return CriterionVerdict(
                UNKNOWN, name,
                note=f"extension degree {base.m * t} above field cap")
        emb = _extension(base, t)
        rows = _map_rows(emb, chart)
        for k in itertools.count(1):
            # rows embed through GF(q^t), as a direct embedding into
            # GF(q^(tk)) may pick another conjugate root
            up = _extension(emb.big, k)
            try:
                facs = bi_factor(_map_rows(up, rows), up.big)[1]
                break
            except NoGoodEvaluationPoint:
                continue
        if len(facs) > 1:
            return CriterionVerdict(
                REFUTED, name, note=f"splits over GF(2^{up.big.m})",
                witness=_lift(facs[0], up.big))
        irreducible_over.append(t * k)
    return CriterionVerdict(ESTABLISHED, name,
                            note="no split over any relevant extension")


def _lift(rows, field):
    """The rows of a factor of the chart x2 = 1 as a form in x0, x1, x2."""
    n = _bl_tdeg(rows)
    return TriPoly._of(field, {(a, b, n - a - b): v
                               for a, p in enumerate(rows)
                               for b, v in enumerate(p.c) if v})


# ------------------------------------------------------- singular points

class SingularPoint:
    """A singular point of a plane curve, with projective coordinates in
    an extension field, scaled so the leftmost nonzero coordinate is 1."""

    __slots__ = ("field", "point")

    def __init__(self, field, point):
        self.field = field
        self.point = point

    @property
    def m(self):
        return self.field.m

    def key(self):
        return (self.field.m, self.point)

    def __eq__(self, other):
        return (isinstance(other, SingularPoint) and self.field == other.field
                and self.point == other.point)

    def __hash__(self):
        return hash((self.field, self.point))

    def __repr__(self):
        x0, x1, x2 = self.point
        return f"({x0}:{x1}:{x2})/GF(2^{self.field.m})"


def _canonical(field, p):
    for c in p:
        if c:
            s = field.inv(c)
            return tuple(field.mul(s, v) for v in p)
    raise InvalidParameters("projective point cannot be all zero")


def _common_roots(cs):
    """Common gcd of the nonzero members of the specialized system; None
    when the whole system vanished."""
    nz = [p for p in cs if not p.is_zero]
    if not nz:
        return None
    return uni_gcd_many(nz) if len(nz) > 1 else nz[0].monic()


def _on_line(form):
    """A form at the points (x0 : 1 : 0) of the line x2 = 0, as a UniPoly
    in x0."""
    return UniPoly.from_terms(form.field, ((e[0], v) for e, v
                                           in form.terms.items() if not e[2]))


def curve_singular_points(curve):
    """All singular points of a reduced plane curve, over whatever
    extension fields they live in.

    Raises InvalidParameters when the singular locus is not finite (the
    input had a repeated component).
    """
    if curve.is_zero:
        raise InvalidParameters("zero form")
    check_plane_form(curve)
    deg = curve.total_degree
    if deg > FACTOR_DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {deg} above cap {FACTOR_DEGREE_CAP}")
    base = curve.field
    found = {}

    def push(field, pt):
        sp = SingularPoint(field, _canonical(field, pt))
        found[sp.key()] = sp

    # ---- affine chart x2 = 1, as rows
    c = _chart_rows(curve)
    cu, cv = _bl_partials(c, base)
    if not cu and not cv:
        raise InvalidParameters("every chart point is singular; curve not reduced")
    if len(c) == 1 or all(p.degree <= 0 for p in c):
        # a chart in x1 alone, or in x0 alone
        p = c[0] if len(c) == 1 else UniPoly(base, [
            r.c[0] if r.c else 0 for r in c])
        dp = p.derivative()
        g = uni_gcd_many([q for q in (p, dp) if not q.is_zero])
        if g.degree > 0:
            raise InvalidParameters("a whole line of the chart is singular")
    else:
        # resultants in x0 give the x1 coordinates v0, and for each v0 the
        # common roots in x0 complete the point; two partials free of x0
        # have resultant 1, blind to their common roots: their gcd stands in
        if len(cu) == 1 and len(cv) == 1:
            ruv = uni_gcd(cu[0], cv[0])
        else:
            ruv = bi_resultant(cu, cv, base)
        rs = [bi_resultant(c, cu, base), bi_resultant(c, cv, base), ruv]
        rs = [r for r in rs if not r.is_zero]
        if not rs:
            raise InvalidParameters("positive-dimensional singular locus")
        g = uni_gcd_many(rs)
        if g.degree > 0:
            _, gfacs = uni_factor(g)
            for gp, _mult in gfacs:
                emb = _extension(base, gp.degree)
                ext = emb.big
                system = [_map_rows(emb, rows) for rows in (c, cu, cv)]
                for v0 in uni_roots(emb.map_uni(gp)):
                    specs = [UniPoly(ext, [p.eval_at(v0) for p in rows])
                             for rows in system]
                    gu = _common_roots(specs)
                    if gu is None:
                        raise InvalidParameters(
                            "positive-dimensional singular locus")
                    if gu.degree <= 0:
                        continue
                    _, ufacs = uni_factor(gu)
                    for up, _m2 in ufacs:
                        if up.degree == 1:
                            push(ext, (up.c[0], v0, 1))
                            continue
                        emb2 = _extension(ext, up.degree)
                        v1 = emb2.map(v0)
                        for u0 in uni_roots(emb2.map_uni(up)):
                            push(emb2.big, (u0, v1, 1))

    # ---- the line x2 = 0, at the points (u0 : 1 : 0)
    partials = [curve.partial(i) for i in range(3)]
    w = _on_line(curve)
    if w.degree > 0:
        _, wfacs = uni_factor(w)
        for fp, _mult in wfacs:
            emb = _extension(base, fp.degree)
            pe = [emb.map_uni(_on_line(p)) for p in partials]
            for u0 in uni_roots(emb.map_uni(fp)):
                if all(p.eval_at(u0) == 0 for p in pe):
                    push(emb.big, (u0, 1, 0))
    elif w.is_zero:
        # the whole line lies on the curve; x2 divides it
        raise InvalidParameters("x2 divides the form; handle its factors directly")
    # the point (1 : 0 : 0)
    if curve.eval_at((1, 0, 0)) == 0:
        if all(p.eval_at((1, 0, 0)) == 0 for p in partials):
            push(base, (1, 0, 0))

    return sorted(found.values(), key=lambda s: s.key())


# ----------------------------------------------------- pairwise criteria

def binomial_criterion(d, r):
    """Coprimality/squarefreeness test on the two infinity curves of a
    two-term map x^d + a x^r; establishing it proves the quotient surface
    absolutely irreducible for every nonzero coefficient a.

    The odd layer is tested for squarefreeness first (r when d is even):
    an even d >= 10 has the curve (x0 + x1)(x1 + x2)(x0 + x2) times
    infinity_curve(d/2)^2, never squarefree, so testing it first wastes
    a gcd chain."""
    name = "binomial_criterion"
    if not d > r >= 3:
        raise InvalidParameters("need d > r >= 3")
    if _is_pow2(d) or _is_pow2(r):
        return CriterionVerdict(UNKNOWN, name, note="a layer is linearized")
    if r == 3:
        return CriterionVerdict(
            UNKNOWN, name, note="lower layer has a constant curve at infinity")
    cd = infinity_curve(d)
    cr = infinity_curve(r)
    if min(e[2] for e in cd.terms) and min(e[2] for e in cr.terms):
        return CriterionVerdict(UNKNOWN, name, note="curves share the line x2 = 0")
    # each chart x2 = 1 is built once, as rows, for the whole gcd chain
    f = cd.field
    chart_d = _chart_rows(cd)
    chart_r = _chart_rows(cr)
    g = bi_gcd(chart_d, chart_r, f)
    if _bl_tdeg(g) > 0:
        return CriterionVerdict(UNKNOWN, name, note="curves share a component",
                                witness=bi_to_tri(g, f))
    # a squarefree layer: x2 divides it at most once, its chart is squarefree
    layers = [(cd, chart_d), (cr, chart_r)]
    if d % 2 == 0:
        layers.reverse()
    if any(min(e[2] for e in cur.terms) <= 1
           and _bl_tdeg(_bl_partials_gcd(ch, f)) == 0 for cur, ch in layers):
        return CriterionVerdict(ESTABLISHED, name,
                                note="coprime curves, squarefree layer")
    return CriterionVerdict(UNKNOWN, name, note="no squarefree layer")


def exponent_pair_criterion(d, r):
    """Arithmetic test on a two-term map's exponents; established when
    gcd(d-1, r-1) is a power of two and neither layer degenerates."""
    name = "exponent_pair_criterion"
    if not d > r >= 3:
        raise InvalidParameters("need d > r >= 3")
    if d % 2 == 0:
        # the top layer picks up a squared factor times the triple planes
        return CriterionVerdict(UNKNOWN, name, note="top exponent even")
    if _is_pow2(d) or _is_pow2(r):
        return CriterionVerdict(UNKNOWN, name, note="a layer is linearized")
    g = math.gcd(d - 1, r - 1)
    if _is_pow2(g):
        return CriterionVerdict(ESTABLISHED, name,
                                note=f"gcd(d-1, r-1) = {g}")
    return CriterionVerdict(UNKNOWN, name, note=f"gcd(d-1, r-1) = {g}")


def surface_irreducible(surface):
    """Combined sufficient test that the projective closure of a map's
    quotient surface is absolutely irreducible."""
    name = "surface_irreducible"
    d = surface.source_degree
    v = congruence_irreducible(d)
    if v.established:
        return CriterionVerdict(ESTABLISHED, name, note=v.note)
    v = congruence_smooth(d)
    if v.established:
        return CriterionVerdict(
            ESTABLISHED, name, note="smooth curve at infinity: " + v.note)
    terms = sorted(surface.source.terms(), reverse=True)
    if len(terms) == 2 and terms[1][0] >= 3:
        r = terms[1][0]
        for crit in (binomial_criterion, exponent_pair_criterion):
            try:
                v = crit(d, r)
            except InvalidParameters:
                continue
            if v.established:
                return CriterionVerdict(ESTABLISHED, name, note=v.note)
    try:
        v = absolutely_irreducible(surface.infinity_part())
    except (DegreeCapExceeded, NoGoodEvaluationPoint) as e:
        return CriterionVerdict(UNKNOWN, name, note=str(e))
    if v.established:
        return CriterionVerdict(ESTABLISHED, name,
                                note="curve at infinity absolutely irreducible")
    return CriterionVerdict(UNKNOWN, name,
                            note="curve at infinity: " + v.note,
                            witness=v.witness)

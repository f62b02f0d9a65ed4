"""Sufficient criteria for irreducibility and smoothness of the curve at
infinity, plus direct factorization and singular-point computation.

Each criterion returns a CriterionVerdict: established means the stated
property is proven, refuted means a concrete witness against it was
found, unknown means the criterion simply does not decide the case.
"""

import math

from .errors import DegreeCapExceeded, InvalidParameters, NoGoodEvaluationPoint
from .gf2m import Field, _is_pow2, _prime_factors
from .mvpoly import (FACTOR_DEGREE_CAP, Embedding, TriPoly, bi_factor, bi_gcd,
                     bi_resultant, bi_squarefree, bi_to_tri, tri_to_bi,
                     uni_factor, uni_gcd_many, uni_roots)
from .surface import infinity_curve

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


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True

def _order_mod(a, n):
    """Multiplicative order of a modulo n (gcd(a, n) = 1)."""
    r = 1
    x = a % n
    while x != 1:
        x = (x * a) % n
        r += 1
    return r


def congruence_irreducible(d):
    """Residue-class test for absolute irreducibility of the curve at
    infinity of degree-d maps."""
    name = "congruence_irreducible"
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
    if d % 2 == 0 or d < 7:
        return CriterionVerdict(UNKNOWN, name, note="needs odd degree >= 7")
    half = (d - 1) // 2
    if half % 2 == 1:
        x = 2 % half
        for _ in range(half):
            if x == half - 1:
                return CriterionVerdict(
                    ESTABLISHED, name,
                    note=f"-1 is a power of 2 modulo {half}")
            x = (2 * x) % half
            if x == 2 % half:
                break
    if _is_prime(half) and half > 17 and _order_mod(2, half) == (half - 1) // 2:
        return CriterionVerdict(
            ESTABLISHED, name,
            note=f"2 has order {(half - 1) // 2} modulo the prime {half}")
    return CriterionVerdict(UNKNOWN, name)


# ---------------------------------------------------- direct factorization

def _univariate(p, var):
    """A TriPoly in the single variable var (0 or 1) as a UniPoly."""
    return tri_to_bi(p, 1 - var, var)[0]


def _extension(base, k):
    """Embedding of base into its degree-k extension (identity for k = 1)."""
    if base.m * k > EXT_M_CAP:
        raise DegreeCapExceeded(
            f"singular point needs GF(2^{base.m * k}), above the cap {EXT_M_CAP}")
    return Embedding(base, base if k == 1 else Field(base.m * k))


def _chart_factors(chart):
    """Irreducible factors of a squarefree two-variable chart, as a flat
    list over the coefficient field, or over the smallest extension
    GF(2^(m*k)) with enough evaluation points when the field has too few;
    splitting there still refutes irreducibility over the algebraic
    closure."""
    for var in (0, 1):
        if chart.degree_in(1 - var) == 0:
            _, facs = uni_factor(_univariate(chart, var))
            return [bi_to_tri([fp], 1 - var, var, chart.field)
                    for fp, _ in facs]
    base = chart.field
    k = 1
    while True:
        try:
            return bi_factor(_extension(base, k).map_tri(chart), 0, 1)[1]
        except NoGoodEvaluationPoint:
            k += 1
            if base.m * k > EXT_M_CAP:
                raise


def absolutely_irreducible(curve):
    """Decide absolute irreducibility of a homogeneous form in x0, x1, x2
    by factoring its chart over the base field and over the prime-order
    extensions dividing the degree."""
    name = "absolutely_irreducible"
    if curve.is_zero:
        raise InvalidParameters("zero form")
    if any(e[3] for e in curve.terms) or not curve.is_homogeneous():
        raise InvalidParameters("need a homogeneous form in x0, x1, x2")
    deg = curve.total_degree
    if deg == 0:
        return CriterionVerdict(REFUTED, name, note="constant form, empty curve")
    if deg > FACTOR_DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {deg} above cap {FACTOR_DEGREE_CAP}")
    # powers of x2 split off by the chart substitution
    k2 = min(e[2] for e in curve.terms)
    chart = curve.substitute_const(2, 1)
    if k2 and chart.total_degree > 0:
        return CriterionVerdict(REFUTED, name, note="x2 divides the form",
                                witness=TriPoly.var(curve.field, 2))
    if k2:
        if k2 == 1:
            return CriterionVerdict(ESTABLISHED, name, note="the line x2 = 0")
        return CriterionVerdict(REFUTED, name, note="repeated factor x2",
                                witness=TriPoly.var(curve.field, 2))
    if deg == 1:
        return CriterionVerdict(ESTABLISHED, name, note="a line")
    sf = bi_squarefree(chart)
    if sf.total_degree < chart.total_degree:
        return CriterionVerdict(REFUTED, name, note="repeated factor",
                                witness=sf)
    facs = _chart_factors(chart)
    if len(facs) > 1:
        w = facs[0].homogenize(facs[0].total_degree) if facs[0].total_degree \
            else facs[0]
        return CriterionVerdict(
            REFUTED, name,
            note=f"splits over GF(2^{facs[0].field.m})", witness=w)
    base = curve.field
    for t in _prime_factors(deg):
        if base.m * t > EXT_M_CAP:
            return CriterionVerdict(
                UNKNOWN, name,
                note=f"extension degree {base.m * t} above field cap")
        facs = _chart_factors(_extension(base, t).map_tri(chart))
        if len(facs) > 1:
            w = facs[0].homogenize(facs[0].total_degree)
            return CriterionVerdict(
                REFUTED, name,
                note=f"splits over GF(2^{facs[0].field.m})", witness=w)
    return CriterionVerdict(ESTABLISHED, name,
                            note="no split over any relevant extension")


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


def _v_candidates(cs):
    """Common gcd of the nonzero members of the specialized system; None
    when the whole system vanished."""
    nz = [p for p in cs if not p.is_zero]
    if not nz:
        return None
    return uni_gcd_many(nz) if len(nz) > 1 else nz[0].monic()


def curve_singular_points(curve):
    """All singular points of a reduced plane curve, over whatever
    extension fields they live in.

    Raises InvalidParameters when the singular locus is not finite (the
    input had a repeated component).
    """
    if curve.is_zero:
        raise InvalidParameters("zero form")
    if any(e[3] for e in curve.terms) or not curve.is_homogeneous():
        raise InvalidParameters("need a homogeneous form in x0, x1, x2")
    deg = curve.total_degree
    if deg > FACTOR_DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {deg} above cap {FACTOR_DEGREE_CAP}")
    base = curve.field
    found = {}

    def push(field, pt):
        sp = SingularPoint(field, _canonical(field, pt))
        found[sp.key()] = sp

    # ---- affine chart x2 = 1
    c = curve.substitute_const(2, 1)
    cu = c.partial(0)
    cv = c.partial(1)
    if cu.is_zero and cv.is_zero:
        raise InvalidParameters("every chart point is singular; curve not reduced")
    if c.degree_in(1) == 0 or c.degree_in(0) == 0:
        var = 0 if c.degree_in(1) == 0 else 1
        p = _univariate(c, var)
        dp = p.derivative()
        g = uni_gcd_many([q for q in (p, dp) if not q.is_zero])
        if g.degree > 0:
            raise InvalidParameters("a whole line of the chart is singular")
    else:
        rs = [bi_resultant(c, cu, 1, 0), bi_resultant(c, cv, 1, 0),
              bi_resultant(cu, cv, 1, 0)]
        rs = [r for r in rs if not r.is_zero]
        if not rs:
            raise InvalidParameters("positive-dimensional singular locus")
        g = uni_gcd_many(rs)
        if g.degree > 0:
            _, gfacs = uni_factor(g)
            for gp, _mult in gfacs:
                emb = _extension(base, gp.degree)
                ext = emb.big
                system = [emb.map_tri(poly) for poly in (c, cu, cv)]
                for u0 in uni_roots(emb.map_uni(gp)):
                    specs = [_univariate(poly.substitute_const(0, u0), 1)
                             for poly in system]
                    gv = _v_candidates(specs)
                    if gv is None:
                        raise InvalidParameters(
                            "positive-dimensional singular locus")
                    if gv.degree <= 0:
                        continue
                    _, vfacs = uni_factor(gv)
                    for vp, _m2 in vfacs:
                        if vp.degree == 1:
                            push(ext, (u0, vp.c[0], 1))
                            continue
                        emb2 = _extension(ext, vp.degree)
                        u1 = emb2.map(u0)
                        for v0 in uni_roots(emb2.map_uni(vp)):
                            push(emb2.big, (u1, v0, 1))

    # ---- the line x2 = 0
    partials = [curve.partial(i) for i in range(3)]
    w = curve.substitute_const(1, 1).substitute_const(2, 0)
    if not w.is_zero and w.total_degree > 0:
        wp = _univariate(w, 0)
        _, wfacs = uni_factor(wp)
        for fp, _mult in wfacs:
            if fp.degree == 0:
                continue
            emb = _extension(base, fp.degree)
            pe = [emb.map_tri(p) for p in partials]
            for u0 in uni_roots(emb.map_uni(fp)):
                if all(p.eval_at((u0, 1, 0, 0)) == 0 for p in pe):
                    push(emb.big, (u0, 1, 0))
    elif w.is_zero:
        # the whole line lies on the curve; x2 divides it
        raise InvalidParameters("x2 divides the form; handle its factors directly")
    # the point (1 : 0 : 0)
    if curve.eval_at((1, 0, 0, 0)) == 0:
        if all(p.eval_at((1, 0, 0, 0)) == 0 for p in partials):
            push(base, (1, 0, 0))

    return sorted(found.values(), key=lambda s: s.key())


# ----------------------------------------------------- pairwise criteria

def binomial_criterion(d, r):
    """Coprimality/squarefreeness test on the two infinity curves of a
    two-term map x^d + a x^r; establishing it proves the quotient surface
    absolutely irreducible for every nonzero coefficient a."""
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
    chart_d = cd.substitute_const(2, 1)
    chart_r = cr.substitute_const(2, 1)
    g = bi_gcd(chart_d, chart_r)
    if g.total_degree > 0:
        return CriterionVerdict(UNKNOWN, name,
                                note="curves share a component", witness=g)
    sq_d = bi_squarefree(chart_d).total_degree == chart_d.total_degree \
        and min(e[2] for e in cd.terms) <= 1
    sq_r = bi_squarefree(chart_r).total_degree == chart_r.total_degree \
        and min(e[2] for e in cr.terms) <= 1
    if (sq_d and r >= 5) or sq_r:
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

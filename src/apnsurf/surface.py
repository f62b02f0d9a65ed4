"""Quotient surface attached to a polynomial map and its point counts.

For a map f the four-point sum f(x0)+f(x1)+f(x2)+f(x0+x1+x2) vanishes on
the three planes x0=x1, x1=x2, x0=x2; dividing by the product of those
linear forms leaves a surface of degree deg(f)-3 whose affine rational
points away from that triple locus are exactly the witnesses against
differential uniformity two.

The affine points are counted without evaluating the surface (see
kernels.count_affine).  With g the normalized map, three identities
give the count:

- Off the locus: a point with x0, x1, x2 pairwise distinct is, with
  a = x0+x1 and b = D_a g(x0), an ordered pair (x0, x2) of solutions of
  D_a g(x) = b with x2 not in {x0, x0+a}.  So there are
  sum over c of hist[c]*c*(c-2) of them, where hist is the derivative
  histogram of g (kernels.spectrum_hist).
- On the plane x0 = x1 the surface is (g'(x)+g'(z))/(x+z)^2, with
  g' = sum over odd e of c_e*x^(e-1); its zeros with x != z number
  sum over v of n_v*(n_v-1), where n_v counts the x with g'(x) = v.
- On the diagonal x0 = x1 = x2 the surface is
  sum over e = 3 mod 4 of c_e*x^(e-3).

The surface is symmetric and any two of the three planes meet exactly on
the diagonal, so the on-locus count is three times the plane count off
the diagonal plus the diagonal zeros.

The histogram walks one derivative row per coset of the scaling group G
of g (see the differential module), so a count costs O(q^2/|G|) time
and O(q) memory: O(q) time for a monomial.
"""

import functools

import numpy as np

from . import kernels
from .differential import _gate
from .errors import (ApnToolError, DegreeOutOfRange, DegreeTooSmall,
                     DiagonalNotConstant, FieldMismatch, InvalidParameters,
                     NotDivisible, QAffineInput)
from .gf2m import Field
from .mvpoly import NEG_INF, TriPoly, UniPoly, uni_roots
from .polyfunc import is_q_affine, normalize

# coefficient field of every curve at infinity
_GF2 = Field(1)


def _sum_of_vars(field, slots):
    t = {}
    for s in slots:
        e = [0, 0, 0]
        e[s] = 1
        t[tuple(e)] = 1
    return TriPoly._of(field, t)


def _linear_form(field, i, j):
    return TriPoly.var(field, i) + TriPoly.var(field, j)


def triple_locus_product(field):
    """(x0+x1)(x1+x2)(x0+x2)."""
    return (_linear_form(field, 0, 1) * _linear_form(field, 1, 2)
            * _linear_form(field, 0, 2))


class Surface:
    """The quotient form of a map, with the map it came from."""

    __slots__ = ("field", "poly", "source", "source_degree")

    def __init__(self, field, poly, source, source_degree):
        self.field = field
        self.poly = poly
        self.source = source
        self.source_degree = source_degree

    @property
    def degree(self):
        return self.source_degree - 3

    def infinity_part(self):
        """Top homogeneous component; cuts the plane at infinity in the
        projective closure."""
        return self.poly.homogeneous_component(self.degree)

    def __repr__(self):
        return (f"Surface(m={self.field.m}, source_degree={self.source_degree}, "
                f"terms={len(self.poly.terms)})")


def build_surface(f):
    """Quotient surface of a map; the map is normalized first, so the
    result only depends on its class modulo affine summands."""
    if f.is_zero or is_q_affine(f):
        raise QAffineInput("map is affine: the four-point sum vanishes")
    g = normalize(f)
    d = g.degree
    if d < 3:
        raise DegreeOutOfRange(f"normalized degree {d} below 3")
    # the quotient is linear in the map, and the quotient of x^e is
    # homogeneous of degree e - 3, so the terms of distinct e never meet
    phi = TriPoly._of(f.field, {x: c for e, c in g.terms()
                                for x in _monomial_quotient(e)})
    if phi.total_degree != d - 3:
        raise ApnToolError(f"quotient form has degree {phi.total_degree}, "
                           f"expected {d - 3}")
    return Surface(f.field, phi, g, d)


@functools.cache
def _monomial_quotient(d):
    """Exponents of the quotient of x^d's four-point sum by the triple
    locus product.  Over GF(2) every coefficient is 1, and the same
    polynomial serves every field; cached, so it is returned immutable."""
    num = (TriPoly.var(_GF2, 0).pow_(d) + TriPoly.var(_GF2, 1).pow_(d)
           + TriPoly.var(_GF2, 2).pow_(d)
           + _sum_of_vars(_GF2, (0, 1, 2)).pow_(d))
    if num.is_zero:
        raise QAffineInput(f"x^{d} is linearized; no curve at infinity")
    return tuple(num.exact_divide(triple_locus_product(_GF2)).terms)


def infinity_curve(d):
    """The degree d-3 plane curve cut at infinity; it only depends on the
    source degree, so it is returned with coefficients in GF(2)."""
    if d < 3:
        raise DegreeOutOfRange(f"degree {d} below 3")
    return TriPoly._of(_GF2, dict.fromkeys(_monomial_quotient(d), 1))


def derivative_divisibility(surface):
    """Each partial of the quotient form is divisible by the linear form
    in the two other variables; returns the three quotients."""
    pairs = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    out = []
    for var, i, j in pairs:
        dp = surface.poly.partial(var)
        if dp.is_zero:
            out.append(TriPoly.zero(surface.field))
            continue
        try:
            out.append(dp.exact_divide(_linear_form(surface.field, i, j)))
        except NotDivisible:
            return None
    return out


def _diagonal(poly):
    """Restriction to x0 = x1 = x2, as a univariate polynomial."""
    out = [0] * (max(poly.total_degree, 0) + 1)
    for e, v in poly.terms.items():
        out[e[0] + e[1] + e[2]] ^= v
    return UniPoly(poly.field, out)


def diagonal_infinity_singular(surface):
    """True when (1:1:1:0) is a singular point of the projective closure.

    Requires the diagonal restriction of the quotient form to be a
    constant; otherwise DiagonalNotConstant is raised, carrying the
    affine diagonal points that lie on the surface.
    """
    d = surface.source_degree
    if d < 5:
        raise DegreeTooSmall(f"closure has degree {d - 3}; need source degree >= 5")
    diag = _diagonal(surface.poly)
    if diag.degree not in (NEG_INF, 0):
        pts = [(r, r, r) for r in uni_roots(diag)]
        raise DiagonalNotConstant(
            f"diagonal restriction has degree {diag.degree}", points=pts)
    # the closure and its z-partial vanish there once the diagonal is
    # constant and d >= 5 (docs/decisions.md, "One pass per field")
    top = surface.infinity_part()
    return all(top.partial(i).eval_at((1, 1, 1)) == 0 for i in range(3))


class PointCount:
    """Rational point tally of a surface over its own field."""

    __slots__ = ("q", "affine", "affine_on_locus", "infinity")

    def __init__(self, q, affine, affine_on_locus, infinity):
        self.q = q
        self.affine = affine
        self.affine_on_locus = affine_on_locus
        self.infinity = infinity

    @property
    def affine_off_locus(self):
        return self.affine - self.affine_on_locus

    @property
    def projective(self):
        return self.affine + self.infinity

    def __repr__(self):
        return (f"PointCount(q={self.q}, affine={self.affine}, "
                f"on_locus={self.affine_on_locus}, infinity={self.infinity})")


def check_plane_form(curve):
    """Raise InvalidParameters unless curve is a homogeneous form in x0,
    x1, x2, the shape of a plane curve."""
    if not curve.is_homogeneous():
        raise InvalidParameters("need a homogeneous form in x0, x1, x2")


def projective_plane_zeros(curve, field):
    """Number of zeros of a homogeneous form in x0, x1, x2 over the
    projective plane of the given field; GF(2) coefficients are mapped up
    automatically.  Evaluates the form at every point, in O(q^2) time and
    memory: count_points reaches the same number through the affine cone."""
    check_plane_form(curve)
    if curve.field != field:
        if curve.field.m != 1:
            raise FieldMismatch("curve must live over GF(2) or over field")
        curve = TriPoly._of(field, dict(curve.terms))
    q = field.q
    ext, log, _ = field.tables()
    # chart x0 = 1
    acc = np.zeros((q, q), dtype=np.int64)
    for e, v in curve.terms.items():
        col = kernels.power_table(field, e[1])
        row = kernels.power_table(field, e[2])
        scaled = ext[log[col] + log[np.int64(v)]]
        acc ^= ext[log[scaled[:, None]] + log[row[None, :]]]
    count = int((acc == 0).sum())
    # line x0 = 0, x1 = 1: the form reads sum of v*w^e2 there
    line = kernels.value_table(
        field, [(e[2], v) for e, v in curve.terms.items() if e[0] == 0])
    count += int((line == 0).sum())
    # the point (0:0:1)
    if curve.eval_at((0, 0, 1)) == 0:
        count += 1
    return count


def count_points(surface):
    """Affine and infinity tallies over the surface's own field.

    The curve at infinity is the quotient form of x^d, which is
    homogeneous, so its affine cone is that surface: it has
    1 + (q-1)*infinity affine zeros, counted like any other.  For d = 3
    the form is the constant 1 and has no zeros at all.  Table-driven,
    m <= 16, like the differential spectrum.
    """
    field = surface.field
    _gate(field)
    affine, on_locus = kernels.count_affine(surface.source.terms(), field)
    d = surface.source_degree
    infinity = 0
    if d > 3:
        cone, _ = kernels.count_affine([(d, 1)], field)
        infinity, rest = divmod(cone - 1, field.q - 1)
        if rest:
            raise ApnToolError(f"affine cone of the curve at infinity has "
                               f"{cone} points, not 1 mod q - 1")
    return PointCount(field.q, affine, on_locus, infinity)

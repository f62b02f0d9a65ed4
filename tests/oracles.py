"""Brute-force references for the quotient surface.

kernels.count_affine reaches the count through the derivative histogram
without looking at the surface; brute_count evaluates the quotient form
itself at every point of the affine 3-space, so the two share no logic
beyond the field tables.

surface.build_surface sums cached quotients of monomials; four_point_sum
expands the numerator of the whole map term by term instead, without
polynomial powers or division.
"""

import numpy as np

from apnsurf import kernels
from apnsurf.mvpoly import TriPoly


def four_point_sum(f):
    """f(x0)+f(x1)+f(x2)+f(x0+x1+x2) as a TriPoly.

    Over characteristic 2 the multinomial coefficient of
    x0^a x1^b x2^c in (x0+x1+x2)^e is odd exactly when a, b, c split
    the bits of e (Lucas), so each power expands by submasks.
    """
    t = {}

    def add(key, v):
        w = t.get(key, 0) ^ v
        if w:
            t[key] = w
        else:
            t.pop(key, None)

    for e, v in f.terms():
        for i in range(3):
            key = [0, 0, 0, 0]
            key[i] = e
            add(tuple(key), v)
        a = e
        while True:
            rest = e ^ a
            b = rest
            while True:
                add((a, b, rest ^ b, 0), v)
                if b == 0:
                    break
                b = (b - 1) & rest
            if a == 0:
                break
            a = (a - 1) & e
    return TriPoly(f.field, t)


def brute_count(surface):
    """(affine zeros, zeros on the triple locus) of the quotient form, by
    evaluation at all q^3 points."""
    field = surface.field
    q = field.q
    # group the terms by (e0, e1); each group is a polynomial in x2
    rows = {}
    for e, v in surface.poly.terms.items():
        rows.setdefault((e[0], e[1]), []).append((e[2], v))
    vals = np.zeros((q, q, q), dtype=np.int64)
    for (e0, e1), inner in rows.items():
        col = kernels.value_table(field, inner)
        plane = field.mul_vec(kernels.power_table(field, e0)[:, None],
                              kernels.power_table(field, e1)[None, :])
        vals ^= field.mul_vec(plane[:, :, None], col[None, None, :])
    xs = np.arange(q)
    x0, x1, x2 = xs[:, None, None], xs[None, :, None], xs[None, None, :]
    zero = vals == 0
    locus = (x0 == x1) | (x1 == x2) | (x0 == x2)
    return int(zero.sum()), int((zero & locus).sum())

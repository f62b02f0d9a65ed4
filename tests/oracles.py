"""Brute-force reference for the affine point count of a quotient surface.

kernels.count_affine reaches the count through the derivative histogram
without looking at the surface; this oracle evaluates the quotient form
itself at every point of the affine 3-space, so the two share no logic
beyond the field tables.
"""

import numpy as np

from apnsurf import kernels


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

"""Reproduce the named exclusion-bound instances: the binomial case
(d, r) = (13, 7) with its field cap, the sextic curve count bound, and
the elliptic point-count threshold.

Usage: python3 repro/exclusion_instances.py > repro/exclusion_instances.txt
"""

import sys

from apnsurf.bounds import IRREDUCIBLE, curve_exclusion, hasse_weil_min, mmax
from apnsurf.criteria import binomial_criterion


def main(argv=None):
    v = binomial_criterion(13, 7)
    print("binomial criterion (13,7): %s [%s]" % (v.status, v.note))
    print("irreducible-regime cap for degree 13: m_max = %d" % mmax(13, IRREDUCIBLE))

    first6 = next(m for m in range(3, 25) if curve_exclusion(6, 1 << m))
    print("sextic curve exclusion first holds at m = %d (so m <= %d)"
          % (first6, first6 - 1))

    first3 = next(m for m in range(1, 13) if curve_exclusion(3, 1 << m))
    print("elliptic threshold first holds at q = 2^%d "
          "(min affine count %d > 12; at q=16 it is %d)"
          % (first3, hasse_weil_min(1 << first3), hasse_weil_min(16)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

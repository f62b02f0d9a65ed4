"""Check the structural surface properties on a batch of random
polynomials: each partial derivative of the quotient form is divisible
by the linear form in the two other variables (the x0-partial by x1+x2,
the x1-partial by x0+x2, the x2-partial by x0+x1), and for sources with
a constant diagonal the point (1:1:1:0) is singular.  A surface
that breaks either property stops the run with exit code 1 and names its
map on stderr.

Usage: python3 repro/derivative_suite.py [--per-field N] [--seed S]
"""

import argparse
import random
import sys

from apnsurf.errors import DiagonalNotConstant
from apnsurf.gf2m import Field
from apnsurf.polyfunc import PolyFunc
from apnsurf.surface import (build_surface, derivative_divisibility,
                             diagonal_infinity_singular)


def random_normalized(field, rng):
    degrees = [d for d in (5, 6, 7, 9) if d < field.q]
    d = rng.choice(degrees)
    terms = [(d, rng.randrange(1, field.q))]
    for e in (3, 5, 6, 7):
        if e < d:
            c = rng.randrange(field.q)
            if c:
                terms.append((e, c))
    return PolyFunc(field, terms)


def fail(what, f):
    print("%s for %r over GF(2^%d)" % (what, f, f.field.m), file=sys.stderr)
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--per-field", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    total = divisible = singular = skipped = 0
    for m in (3, 4, 5):
        field = Field(m)
        for _ in range(args.per_field):
            f = random_normalized(field, rng)
            s = build_surface(f)
            total += 1
            if derivative_divisibility(s) is None:
                return fail("a partial derivative not divisible by the "
                            "linear form in the other two variables", f)
            divisible += 1
            if s.degree < 2:
                skipped += 1
                continue
            try:
                if not diagonal_infinity_singular(s):
                    return fail("(1:1:1:0) not singular", f)
                singular += 1
            except DiagonalNotConstant:
                skipped += 1
    print("surfaces checked:       %d" % total)
    print("derivative divisible:   %d" % divisible)
    print("(1:1:1:0) singular:     %d" % singular)
    print("diagonal not constant:  %d (not applicable)" % skipped)
    return 0


if __name__ == "__main__":
    sys.exit(main())

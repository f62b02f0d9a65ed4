"""Rerun the exhaustive small-degree classifications and store the
reports as JSON, one file per (degree, m).

Each report is one scan of the whole family x^d + sum of a_e*x^e, e
over 3 <= e < d not a power of two (apnsurf.search.classify), at
m = 4, 5, 6 for each of the degrees 6, 7 and 9.  The scan plan covers
the family up to scalings, Frobenius twists and translations
x -> x + b, and every hit is still verified on its own value table.

Usage: python3 repro/classify_small_degrees.py [--out-dir DIR]

Each scan splits its runs over processes by their size
(apnsurf.kernels._split_rows); every scan here is small enough to run
in this process.
"""

import argparse
import json
import os
import sys
import time

from apnsurf.search import classify

RUNS = [(6, (4, 5, 6)), (7, (4, 5, 6)), (9, (4, 5, 6))]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default=os.path.dirname(os.path.abspath(__file__)))
    args = ap.parse_args(argv)

    for degree, ms in RUNS:
        for m in ms:
            t0 = time.perf_counter()
            rep = classify(degree, m)
            elapsed = time.perf_counter() - t0
            path = os.path.join(args.out_dir,
                                "classify_d%d_m%d.json" % (degree, m))
            with open(path, "w") as fh:
                json.dump(rep.as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            nhits = sum(len(s.hits) for s in rep.scans)
            print("degree %d, m=%d: %d hit(s), %.1fs -> %s"
                  % (degree, m, nhits, elapsed, path))
    return 0


if __name__ == "__main__":
    sys.exit(main())

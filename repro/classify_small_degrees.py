"""Rerun the exhaustive small-degree classifications and store the
reports as JSON, one file per (degree, m).

Degree 6 runs at m = 4, 5, 6; degree 7 at m = 4, 5, 6; degree 9 at
m = 4, 5, 6.  The degree-9 run at m <= 5 includes the full coefficient
family, so it is the slowest, and the affine-reduction confirmation,
which maps each full-family hit by its one forced translation
x -> x + b and every scaling x -> a*x, the same as trying every
substitution x -> a*x + b.

Usage: python3 repro/classify_small_degrees.py [--out-dir DIR]

Each scan chooses its own processes (apnsurf.kernels._processes); every
scan here is small enough to run in this process.
"""

import argparse
import json
import os
import sys
import time

from apnsurf.search import classify_degree6, classify_degree7, classify_degree9

RUNS = [(6, classify_degree6, (4, 5, 6)), (7, classify_degree7, (4, 5, 6)),
        (9, classify_degree9, (4, 5, 6))]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default=os.path.dirname(os.path.abspath(__file__)))
    args = ap.parse_args(argv)

    for degree, classify, ms in RUNS:
        for m in ms:
            t0 = time.perf_counter()
            rep = classify(m)
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

"""Regenerate both published m_max tables as CSV and report any rows
that no condition form reproduces.

Usage: python3 repro/mmax_tables.py [--out-dir DIR]
"""

import argparse
import os
import sys

from apnsurf.bounds import IRREDUCIBLE, ISOLATED, mmax_table


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default=os.path.dirname(os.path.abspath(__file__)))
    args = ap.parse_args(argv)

    clean = True
    for kind in (IRREDUCIBLE, ISOLATED):
        table = mmax_table(kind)
        path = os.path.join(args.out_dir, "mmax_%s.csv" % kind)
        with open(path, "w") as fh:
            fh.write(table.to_csv())
        print("wrote %s (%d rows)" % (path, len(table.rows)))
        for row in table.discrepancies:
            clean = False
            print("  discrepancy: d=%d published %d, computed %d"
                  % (row.d, row.published, row.exact))
    if not clean:
        print("see docs/decisions.md for the discrepancy record")
    return 0


if __name__ == "__main__":
    sys.exit(main())

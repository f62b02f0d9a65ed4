"""Command line front end.

One subcommand per analysis: differential testing, surface
construction and point counting, exclusion-bound tables, irreducibility
and smoothness criteria, and family scans.  Exit codes: 0 success (and
"true" for predicate commands), 1 predicate false, 2 usage or input
error, 3 budget exceeded.
"""

import argparse
import functools
import json
import os
import sys

from . import __version__
from .bounds import IRREDUCIBLE, KINDS, mmax_table
from .criteria import (binomial_criterion, congruence_irreducible,
                       congruence_smooth, exponent_pair_criterion)
from .differential import differential_spectrum
from .errors import (ApnToolError, BudgetExceeded, DiagonalNotConstant,
                     InvalidParameters)
from .gf2m import Field
from .polyfunc import parse_family, parse_poly
from .search import (_CLASSIFICATIONS, DEFAULT_BUDGET, SearchJob,
                     checkpoint_resume, checkpoint_save, classify, scan)
from .surface import (build_surface, count_points, derivative_divisibility,
                      diagonal_infinity_singular)


def _poly_text(p):
    r = repr(p)
    return r[r.index("(") + 1:-1]


@functools.cache
def _field(m, modulus):
    """The field GF(2^m) of the --m and --modulus flags, built once per
    process; errors are not cached, so a bad modulus fails every call."""
    if modulus:
        try:
            poly = int(modulus, 16)
        except ValueError:
            raise ApnToolError("modulus must be hex, got %r" % modulus)
    else:
        poly = None
    return Field(m, poly)


def _bindings(args):
    out = {}
    for item in args.bind or ():
        k, eq, v = item.partition("=")
        try:
            out[k.strip()] = int(v, 0)
        except ValueError:
            eq = ""
        if not eq:
            raise ApnToolError("bindings look like A=value, got %r" % item)
    return out


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------- commands

def cmd_apn_test(args):
    field = _field(args.m, args.modulus)
    f = parse_poly(field, args.poly, _bindings(args))
    spec = differential_spectrum(f)
    apn = spec.delta == 2
    payload = {"m": field.m, "poly": args.poly, "delta": spec.delta,
               "apn": apn,
               "counts": {str(c): n for c, n in spec.counts.items()}}
    _emit(args, payload, [
        "delta = %d (%s)" % (spec.delta,
                             "uniformity two" if apn else "not uniformity two"),
        "counts: " + ", ".join("%d:%d" % cv for cv in spec.counts.items()),
    ])
    return 0 if apn else 1


def cmd_sigma(args):
    field = _field(args.m, args.modulus)
    f = parse_poly(field, args.poly, _bindings(args))
    surface = build_surface(f)
    if args.action == "build":
        payload = {"m": field.m, "poly": args.poly,
                   "degree": surface.degree,
                   "surface": _poly_text(surface.poly)}
        _emit(args, payload, [_poly_text(surface.poly)])
        return 0
    if args.action == "count":
        c = count_points(surface)
        payload = {"m": field.m, "poly": args.poly, "q": c.q,
                   "affine": c.affine, "affine_on_locus": c.affine_on_locus,
                   "affine_off_locus": c.affine_off_locus,
                   "infinity": c.infinity, "projective": c.projective}
        _emit(args, payload, [
            "q = %d" % c.q,
            "affine points: %d (on locus %d, off locus %d)"
            % (c.affine, c.affine_on_locus, c.affine_off_locus),
            "points at infinity: %d" % c.infinity,
            "projective points: %d" % c.projective,
        ])
        return 0
    if args.action == "check-derivative":
        quotients = derivative_divisibility(surface)
        if quotients is None:
            _emit(args, {"holds": False},
                  ["derivative divisibility fails"])
            return 1
        texts = [_poly_text(p) for p in quotients]
        _emit(args, {"holds": True, "quotients": texts},
              ["derivative divisibility holds"] +
              ["quotient %d: %s" % (i, text) for i, text in enumerate(texts)])
        return 0
    # check-singular
    try:
        ok = diagonal_infinity_singular(surface)
    except DiagonalNotConstant as e:
        pts = e.points or []
        _emit(args, {"singular": None, "note": str(e),
                     "diagonal_roots": [list(p) for p in pts]},
              ["check not applicable: %s" % e] +
              ["diagonal root: (%d : %d : %d)" % p for p in pts])
        return 1
    payload = {"singular": ok}
    _emit(args, payload,
          ["(1:1:1:0) is %s" % ("singular" if ok else "not singular")])
    return 0 if ok else 1


def cmd_bounds(args):
    table = mmax_table(args.kind)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
        return 0
    if args.format == "json":
        payload = {"claim_id": "published-mmax-%s" % args.kind,
                   "kind": args.kind,
                   "rows": [r.as_dict() for r in table.rows],
                   "discrepancies": [r.d for r in table.discrepancies]}
        print(json.dumps(payload, sort_keys=True))
        return 0
    print("%5s %9s %5s %10s %7s  %s" %
          ("d_max", "published", "exact", "sufficient", "quarter", "match"))
    for r in table.rows:
        flag = ",".join(r.matched) if r.matched else "DISCREPANCY"
        print("%5d %9d %5d %10s %7s  %s" %
              (r.d, r.published, r.exact, r.sufficient, r.quarter, flag))
    return 0


def cmd_criteria(args):
    if args.r is not None:
        verdicts = [binomial_criterion(args.d, args.r),
                    exponent_pair_criterion(args.d, args.r)]
    else:
        verdicts = [congruence_irreducible(args.d), congruence_smooth(args.d)]
    payload = {"d": args.d, "r": args.r,
               "verdicts": [{"criterion": v.criterion, "status": v.status,
                             "note": v.note} for v in verdicts]}
    _emit(args, payload,
          ["%s: %s%s" % (v.criterion, v.status,
                         " (%s)" % v.note if v.note else "")
           for v in verdicts])
    return 0 if any(v.established for v in verdicts) else 1


def cmd_search(args):
    if args.resume and not args.checkpoint:
        raise InvalidParameters("--resume needs --checkpoint FILE")
    field = _field(args.m, args.modulus)
    fixed, free = parse_family(field, args.family, _bindings(args))
    degrees = sorted(e for _, e in free)
    job = SearchJob(field, fixed, degrees, budget=args.budget)
    cursor = 0
    if args.resume and os.path.exists(args.checkpoint):
        cursor = checkpoint_resume(args.checkpoint, job)

    def save(cursor):
        if args.checkpoint:
            try:
                checkpoint_save(args.checkpoint, job, cursor)
            except OSError as e:
                raise InvalidParameters("cannot write checkpoint: %s" % e)
    # the start cursor first, so that an unwritable checkpoint fails
    # before any scan work
    save(cursor)
    code = 0
    try:
        result = scan(job, start=cursor)
    except BudgetExceeded as e:
        result = e.partial
        code = 3
    save(result.cursor)
    summary = {"scanned": result.scanned, "hits": len(result.hits),
               "cursor": result.cursor, "candidates": job.candidates,
               "complete": code == 0}
    if args.format == "json":
        sys.stdout.write(result.to_jsonl())
        print(json.dumps(summary, sort_keys=True))
    else:
        for h in result.hits:
            coeffs = " ".join("a%d=%#x" % (e, c) for e, c in
                              zip(job.free_degrees, h.coeffs))
            print("hit %d: %s delta=%d digest=%s"
                  % (h.index, coeffs or "(fixed)", h.delta, h.digest[:16]))
        print("scanned %d of %d, hits %d, cursor %d%s"
              % (result.scanned, job.candidates, len(result.hits),
                 result.cursor, "" if code == 0 else " (budget exceeded)"))
    return code


def cmd_classify(args):
    report = classify(args.degree, args.m)
    payload = report.as_dict()
    payload["claim_id"] = "degree%d-classification" % args.degree
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
        return 0
    for s in report.scans:
        print("%s: %d hits" % (s.label, len(s.hits)))
        for cm in s.coeff_maps():
            print("  " + " ".join("%s=%#x" % kv for kv in sorted(cm.items())))
    for note in report.notes:
        print("note: %s" % note)
    return 0


# ------------------------------------------------------------------ parser

def _add_field_flags(sp):
    sp.add_argument("--m", type=int, required=True,
                    help="extension degree of the field GF(2^m)")
    sp.add_argument("--modulus", help="field modulus as a hex mask")
    sp.add_argument("--bind", action="append", metavar="K=V",
                    help="bind a placeholder letter to a field value")


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args keeps no
    state between calls, so it is safe to reuse."""
    parser = argparse.ArgumentParser(
        prog="apnsurf",
        description="analysis of almost perfectly nonlinear maps over "
                    "GF(2^m)")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    parser.add_argument("--workers", type=int,
                        help="accepted and ignored: large work runs on "
                             "every CPU that taskset allows")
    parser.add_argument("--version", action="version",
                        version="apnsurf %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("apn-test", help="differential uniformity test")
    _add_field_flags(sp)
    sp.add_argument("--poly", required=True)
    sp.set_defaults(func=cmd_apn_test)

    sp = sub.add_parser("sigma", help="quotient surface operations")
    sp.add_argument("action", choices=("build", "count", "check-derivative",
                                       "check-singular"))
    _add_field_flags(sp)
    sp.add_argument("--poly", required=True)
    sp.set_defaults(func=cmd_sigma)

    sp = sub.add_parser("bounds", help="exclusion bound tables")
    sp.add_argument("action", choices=("mmax",))
    sp.add_argument("--kind", choices=KINDS, default=IRREDUCIBLE)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("criteria", help="irreducibility and smoothness "
                                         "criteria by degree")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int)
    sp.set_defaults(func=cmd_criteria)

    sp = sub.add_parser("search", help="scan a coefficient family")
    _add_field_flags(sp)
    sp.add_argument("--family", required=True,
                    help="expression with free letters, e.g. "
                         "'x^9 + A*x^6 + B*x^3'")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--checkpoint", help="checkpoint file path")
    sp.add_argument("--resume", action="store_true")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("classify", help="fixed-degree classification runs")
    sp.add_argument("--degree", type=int, choices=sorted(_CLASSIFICATIONS),
                    required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.set_defaults(func=cmd_classify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except ApnToolError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

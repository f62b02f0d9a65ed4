"""Job lists of the benchmark workloads and the checks on their outputs.

A job is one operation: an in-process CLI invocation
(``apnsurf.cli.main(argv)`` with stdout captured) or, where no CLI
command exists, one call of a public library function.  Functions are
looked up on their module at call time, so the traced run sees its
wrappers.  Inputs come from the workload seed; the checks (golden files
and independent oracles) run outside the timed region.

Why each workload:

- classify: the nine repro/ classifications.  Nearly all work is the
  scan path (search.scan, kernels.scan_range, hit verification through
  differential) and the degree-9 affine-reduction check in polyfunc and
  gf2m; surface, mvpoly and criteria do almost nothing.
- surface: point counts of seeded normalized maps at m = 5, 6, 7 and of
  a few degree 21-29 maps at m = 5.  The only workload that runs
  kernels.count_affine; the high degrees give TriPoly.pow_ and
  exact_divide measurable work.
- criteria: degree-only bivariate algebra in pure Python with no numpy
  kernel, so it bypasses every kernel change.  The infinity curves of
  d = 19, 23 and 35 take about a minute each and stay out.
- spectrum: derivative spectra, early aborts and Walsh fingerprints at
  q = 2^10..2^13, where array work and working-set size dominate, unlike
  classify at q <= 64 where per-call overhead does.

Seeded inputs keep their exponents fixed and draw only coefficients, so
the work done does not depend on the seed.  Below, ``ap`` is the
imported apnsurf package.
"""

import contextlib
import io
import json
import os
import random
import sys

WORKLOADS = ("classify", "surface", "criteria", "spectrum")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_CRITERIA = os.path.join(HERE, "criteria_expected.json")

# m -> whether the workload uses pair_table (Walsh fingerprints) there
FIELDS = {
    "classify": {4: True, 5: True, 6: True},
    "surface": {5: False, 6: False, 7: False},
    "criteria": {1: False, 5: False},
    "spectrum": {10: True, 11: True, 12: False, 13: False},
}

LOW_TERMS = (3, 5, 6, 7, 9, 10, 11, 12)
SURFACE_MAPS = [(5, 13)] * 3 + [(6, 13)] * 3 + [(7, 13), (5, 21), (5, 25),
                                                (5, 29)]
CURVE_DEGREES = (5, 7, 9, 11, 13, 15, 17)
IRREDUCIBLE_SHAPES = [(12, 5), (17, 9), (20, 7), (24, 11),
                      (13, 7, 5), (17, 10, 3), (9, 6, 3)]
RANDOM_SHAPE = (21, 13, 6)


class Job:
    """One operation: call() returns its output, check(output) returns
    None when the output is right, else ("failed" | "wrong", detail)."""

    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def setup_fields(ap, workload):
    """The workload's Field objects with the tables its jobs use."""
    fields = {}
    for m, pairs in FIELDS[workload].items():
        fields[m] = ap.gf2m.Field(m)
        if pairs:
            fields[m].pair_table()
    return fields


def build(ap, workload, seed, fields, small=False):
    rng = random.Random("%s:%d" % (workload, seed))
    return BUILDERS[workload](ap, rng, fields, small)


# ------------------------------------------------------------------ helpers

def run_cli(ap, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ap.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def cli_job(ap, name, argv, codes, check):
    """A CLI operation; an exit code outside codes is a failure, then
    check(stdout) judges the output."""
    def verify(output):
        code, stdout, stderr = output
        if code not in codes:
            return "failed", "exit %s: %s" % (code, stderr.strip()[-300:])
        return check(stdout)
    return Job(name, lambda: run_cli(ap, argv), verify)


def wrong_unless(ok, detail):
    return None if ok else ("wrong", detail)


def poly_text(terms):
    return " + ".join("%#x*x^%d" % (c, e) if c != 1 else "x^%d" % e
                      for e, c in terms)


def seeded_terms(rng, q, degree, lower):
    return [(degree, 1)] + [(e, rng.randrange(1, q)) for e in lower]


def witness_divides(ap, curve, w):
    """A refutation witness divides its curve: the line x2 directly, any
    other factor on the chart x2 = 1, over the witness's field."""
    if curve.field != w.field:
        curve = ap.mvpoly.Embedding(curve.field, w.field).map_tri(curve)
    if any(e[2] for e in w.terms):
        target = curve
    else:
        target = curve.substitute_const(2, 1)
        w = w.dehomogenize()
    try:
        target.exact_divide(w)
    except ap.errors.NotDivisible:
        return False
    return True


def is_singular(ap, curve, pt):
    field = pt.field
    if curve.field != field:
        curve = ap.mvpoly.Embedding(curve.field, field).map_tri(curve)
    point = tuple(pt.point) + (0,)
    return all(p.eval_at(point) == 0
               for p in [curve] + [curve.partial(i) for i in range(3)])


# ---------------------------------------------------------------- classify

def classify_jobs(ap, rng, fields, small):
    runs = [(6, 4)] if small else [(d, m) for d in (6, 7, 9)
                                   for m in (4, 5, 6)]
    jobs = []
    for d, m in runs:
        path = os.path.join(ROOT, "repro", "classify_d%d_m%d.json" % (d, m))

        def check(stdout, path=path):
            payload = json.loads(stdout)
            payload.pop("claim_id", None)
            with open(path) as fh:
                golden = json.load(fh)
            return wrong_unless(payload == golden,
                                "payload differs from %s" % path)
        jobs.append(cli_job(
            ap, "classify d%d m%d" % (d, m),
            ["--format", "json", "--workers", "1", "classify",
             "--degree", str(d), "--m", str(m)], (0,), check))
    return jobs


# ----------------------------------------------------------------- surface

def surface_jobs(ap, rng, fields, small):
    jobs = []
    for m, degree in SURFACE_MAPS[:1] if small else SURFACE_MAPS:
        field = fields[m]
        terms = seeded_terms(rng, field.q, degree, LOW_TERMS)
        f = ap.polyfunc.PolyFunc(field, terms)
        table = ap.kernels.value_table(field, f.terms())
        hist = ap.kernels.spectrum_hist(table, field.q)
        off = sum(int(n) * c * (c - 2) for c, n in enumerate(hist))
        apn = ap.differential.is_apn(f)
        text = poly_text(terms)

        def count_check(stdout, off=off, apn=apn):
            got = json.loads(stdout)["affine_off_locus"]
            return wrong_unless(
                got == off and (got == 0) == apn,
                "affine_off_locus %d, derivative histogram gives %d, "
                "is_apn %s" % (got, off, apn))

        def derivative_check(stdout):
            return wrong_unless(json.loads(stdout)["holds"] is True,
                                "derivative divisibility fails")
        argv = ["--m", str(m), "--poly", text]
        jobs.append(cli_job(ap, "sigma count m%d d%d" % (m, degree),
                            ["--format", "json", "sigma", "count"] + argv,
                            (0,), count_check))
        jobs.append(cli_job(ap, "sigma check-derivative m%d d%d" % (m, degree),
                            ["--format", "json", "sigma", "check-derivative"]
                            + argv, (0,), derivative_check))
    return jobs


# ---------------------------------------------------------------- criteria

def criteria_inputs(small):
    top = 9 if small else 33
    pairs = [(d, r) for d in range(6, top + 1) for r in range(5, d)]
    singles = list(range(5, top + 1))
    curves = (5, 13) if small else CURVE_DEGREES
    return pairs, singles, curves


def _curve_result(ap, fn, d):
    try:
        out = fn(ap.surface.infinity_curve(d))
    except ap.errors.ApnToolError as e:
        return type(e).__name__
    if isinstance(out, list):
        return [repr(p) for p in out]
    return out.status


def record_criteria(ap):
    """The verdict statuses of the fixed criteria inputs at this
    revision, as stored in criteria_expected.json."""
    pairs, singles, curves = criteria_inputs(small=False)
    out = {"pairs": {}, "singles": {}, "absolutely_irreducible": {},
           "curve_singular_points": {}}
    for key, argvs in (("pairs", [("%d,%d" % p, ["--d", str(p[0]), "--r",
                                                  str(p[1])]) for p in pairs]),
                       ("singles", [(str(d), ["--d", str(d)])
                                    for d in singles])):
        for name, argv in argvs:
            code, stdout, _ = run_cli(ap, ["--format", "json", "criteria"]
                                      + argv)
            out[key][name] = [v["status"]
                              for v in json.loads(stdout)["verdicts"]]
    for d in curves:
        for fn in (ap.criteria.absolutely_irreducible,
                   ap.criteria.curve_singular_points):
            out[fn.__name__][str(d)] = _curve_result(ap, fn, d)
    return out


def criteria_jobs(ap, rng, fields, small):
    with open(EXPECTED_CRITERIA) as fh:
        expected = json.load(fh)
    pairs, singles, curves = criteria_inputs(small)
    jobs = []

    def statuses(want):
        def check(stdout):
            got = [v["status"] for v in json.loads(stdout)["verdicts"]]
            return wrong_unless(got == want,
                                "statuses %s, recorded %s" % (got, want))
        return check
    for d, r in pairs:
        jobs.append(cli_job(
            ap, "criteria d%d r%d" % (d, r),
            ["--format", "json", "criteria", "--d", str(d), "--r", str(r)],
            (0, 1), statuses(expected["pairs"]["%d,%d" % (d, r)])))
    for d in singles:
        jobs.append(cli_job(
            ap, "criteria d%d" % d,
            ["--format", "json", "criteria", "--d", str(d)],
            (0, 1), statuses(expected["singles"][str(d)])))

    for d in curves:
        want = expected["absolutely_irreducible"][str(d)]

        def irreducible_check(v, d=d, want=want):
            # where the recorded run raised, any verdict is progress
            if want in ("established", "refuted", "unknown") \
                    and v.status != want:
                return "wrong", "status %s, recorded %s" % (v.status, want)
            if v.refuted and v.witness is not None:
                return wrong_unless(
                    witness_divides(ap, ap.surface.infinity_curve(d),
                                    v.witness),
                    "witness does not divide the curve")
            return None
        jobs.append(Job(
            "absolutely_irreducible d%d" % d,
            lambda d=d: ap.criteria.absolutely_irreducible(
                ap.surface.infinity_curve(d)),
            irreducible_check))

        def singular_check(pts, d=d):
            want = expected["curve_singular_points"][str(d)]
            curve = ap.surface.infinity_curve(d)
            if isinstance(want, list) and [repr(p) for p in pts] != want:
                return "wrong", "points %s, recorded %s" % (pts, want)
            return wrong_unless(all(is_singular(ap, curve, p) for p in pts),
                                "a reported point is not singular")
        jobs.append(Job(
            "curve_singular_points d%d" % d,
            lambda d=d: ap.criteria.curve_singular_points(
                ap.surface.infinity_curve(d)),
            singular_check))

    field = fields[5]
    for shape in IRREDUCIBLE_SHAPES[3:5] if small else IRREDUCIBLE_SHAPES:
        f = ap.polyfunc.PolyFunc(
            field, seeded_terms(rng, field.q, shape[0], shape[1:]))

        def surface_check(v, f=f):
            if v.status not in ("established", "unknown"):
                return "wrong", "status %s" % v.status
            if v.witness is None:
                return None
            top = ap.surface.build_surface(f).infinity_part()
            return wrong_unless(witness_divides(ap, top, v.witness),
                                "witness does not divide the curve")
        jobs.append(Job(
            "surface_irreducible %s" % "-".join(map(str, shape)),
            lambda f=f: ap.criteria.surface_irreducible(
                ap.surface.build_surface(f)),
            surface_check))

    for kind in ("irreducible", "isolated"):
        path = os.path.join(ROOT, "repro", "mmax_%s.csv" % kind)

        def csv_check(stdout, path=path):
            with open(path, "rb") as fh:
                golden = fh.read()
            return wrong_unless(stdout.encode() == golden,
                                "csv differs from %s" % path)
        jobs.append(cli_job(
            ap, "bounds mmax %s" % kind,
            ["--format", "csv", "bounds", "mmax", "--kind", kind],
            (0,), csv_check))
    return jobs


# ---------------------------------------------------------------- spectrum

def walsh_check(m, exact_values=None):
    q = 1 << m

    def check(fp):
        # Parseval over all (a, b != 0): sum of W^2 is q^2 per b
        if sum(fp.values()) != q * (q - 1) or \
                sum(v * v * n for v, n in fp.items()) != q * q * (q - 1):
            return "wrong", "Walsh values break Parseval's identity"
        if exact_values is not None and not set(fp) <= exact_values:
            return "wrong", "Walsh values %s outside %s" % (
                sorted(fp), sorted(exact_values))
        return None
    return check


def spectrum_jobs(ap, rng, fields, small):
    jobs = []
    ms = (11,) if small else (11, 12, 13)
    for m in ms:
        q = 1 << m
        half = q * (q - 1) // 2
        want = {"0": half, "2": half}
        entries = ap.polyfunc.catalogue(m)
        for family, h, e in entries[:2] if small else entries:
            def apn_check(stdout, want=want):
                payload = json.loads(stdout)
                return wrong_unless(payload["counts"] == want,
                                    "counts %s" % payload["counts"])
            jobs.append(cli_job(
                ap, "apn-test m%d %s%s" % (m, family, h or ""),
                ["--format", "json", "apn-test", "--m", str(m),
                 "--poly", "x^%d" % e], (0,), apn_check))

    for m in ms:
        for i in range(1 if small else 2):
            terms = seeded_terms(rng, 1 << m, RANDOM_SHAPE[0],
                                 RANDOM_SHAPE[1:])
            f = ap.polyfunc.PolyFunc(fields[m], terms)

            def spectrum_check(stdout):
                payload = json.loads(stdout)
                return wrong_unless(
                    payload["delta"] > 2 and not payload["apn"],
                    "random map reported with delta 2")
            jobs.append(cli_job(
                ap, "apn-test m%d random%d" % (m, i),
                ["--format", "json", "apn-test", "--m", str(m),
                 "--poly", poly_text(terms)], (1,), spectrum_check))
            jobs.append(Job("is_apn m%d random%d" % (m, i),
                            lambda f=f: ap.differential.is_apn(f),
                            lambda apn: wrong_unless(
                                apn is False, "random map reported APN")))

    for m in (10,) if small else (10, 11):
        gold = ap.polyfunc.PolyFunc.monomial(fields[m], 3)
        # Gold x^3: {0, +-2^((m+1)/2)} at odd m, and at even m
        # {0, +-2^(m/2), +-2^(m/2+1)}
        if m % 2:
            values = {0, 1 << (m + 1) // 2, -(1 << (m + 1) // 2)}
        else:
            values = {0, 1 << m // 2, -(1 << m // 2),
                      1 << m // 2 + 1, -(1 << m // 2 + 1)}
        jobs.append(Job("walsh m%d x^3" % m,
                        lambda f=gold: ap.differential.walsh_fingerprint(f),
                        walsh_check(m, values)))
        if not small:
            f = ap.polyfunc.PolyFunc(fields[m], seeded_terms(
                rng, 1 << m, RANDOM_SHAPE[0], RANDOM_SHAPE[1:]))
            jobs.append(Job("walsh m%d random" % m,
                            lambda f=f: ap.differential.walsh_fingerprint(f),
                            walsh_check(m)))
    return jobs


BUILDERS = {
    "classify": classify_jobs,
    "surface": surface_jobs,
    "criteria": criteria_jobs,
    "spectrum": spectrum_jobs,
}


if __name__ == "__main__":
    # Rewrites criteria_expected.json from the checked-out sources:
    #   python3 perfbench/workloads.py
    os.environ["APNSURF_BACKEND"] = "numpy"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import apnsurf
    import apnsurf.cli  # noqa: F401  (not imported by the package)
    with open(EXPECTED_CRITERIA, "w") as fh:
        json.dump(record_criteria(apnsurf), fh, indent=1, sort_keys=True)
        fh.write("\n")

"""Span recorder for the traced benchmark run.

Wraps named apnsurf functions at every place their callers look them up
(module globals across the package, or the class for methods), records
one span per call -- name, start, end, parent span id -- and keeps the
spans in memory until the run ends.  Work counters are recorded at the
same boundaries.  Span names are ``<module>.<function>`` (or
``<module>.<Class>.<method>``), the names the program's own stage
timers are meant to reuse.
"""

import functools
import sys
import time
from collections import Counter

# Functions traced with a span, as (module, attribute path).
SPANNED = [
    ("cli", "main"),
    ("search", "scan"),
    ("kernels", "count_affine"),
    ("kernels", "scan_range"),
    ("kernels", "spectrum_hist"),
    ("kernels", "is_apn_table"),
    ("kernels", "walsh_hist"),
    ("kernels", "value_table"),
    ("kernels", "power_table"),
    ("differential", "differential_spectrum"),
    ("differential", "is_apn"),
    ("differential", "walsh_fingerprint"),
    ("polyfunc", "affine_transform"),
    ("polyfunc", "normalize"),
    ("mvpoly", "bi_gcd"),
    ("mvpoly", "bi_squarefree"),
    ("mvpoly", "bi_factor"),
    ("mvpoly", "bi_resultant"),
    ("mvpoly", "uni_factor"),
    ("mvpoly", "uni_roots"),
    ("mvpoly", "TriPoly.pow_"),
    ("mvpoly", "TriPoly.exact_divide"),
    ("surface", "build_surface"),
    ("surface", "count_points"),
    ("surface", "projective_plane_zeros"),
    ("surface", "derivative_divisibility"),
    ("surface", "infinity_curve"),
    ("criteria", "absolutely_irreducible"),
    ("criteria", "curve_singular_points"),
    ("criteria", "binomial_criterion"),
    ("criteria", "exponent_pair_criterion"),
    ("criteria", "surface_irreducible"),
    ("bounds", "mmax"),
    ("bounds", "mmax_table"),
    ("gf2m", "Field.__init__"),
]

# Scalar field operations: counted into gf2m.scalar_calls, no span.
SCALAR_OPS = ("add", "mul", "inv", "div", "pow_", "check")

# Work counters and ratios reported next to calls and self time.
COUNTERS = [
    ("kernels.count_affine.ops", "count"),
    ("kernels.scan_range.candidates", "count"),
    ("kernels.scan_range.survivors", "count"),
    ("kernels.spectrum_hist.ops", "count"),
    ("kernels.walsh_hist.ops", "count"),
    ("search.hits", "count"),
    ("differential.is_apn.false", "count"),
    ("gf2m.scalar_calls", "count"),
    ("criteria.attempted", "count"),
    ("criteria.decided", "count"),
    ("criteria.errors", "count"),
]


def _count_affine(c, args, result):
    c["kernels.count_affine.ops"] += args[1].q ** 3


def _scan_range(c, args, result):
    c["kernels.scan_range.candidates"] += args[4] - args[3]
    c["kernels.scan_range.survivors"] += result[1]


def _spectrum_hist(c, args, result):
    q = args[1]
    c["kernels.spectrum_hist.ops"] += q * (q - 1)


def _walsh_hist(c, args, result):
    q = args[1]
    c["kernels.walsh_hist.ops"] += q * (q - 1) * (q.bit_length() - 1)


def _scan(c, args, result):
    c["search.hits"] += len(result.hits)


def _is_apn(c, args, result):
    c["differential.is_apn.false"] += result is False


def _verdict(c, args, result):
    c["criteria.attempted"] += 1
    c["criteria.decided"] += result.status in ("established", "refuted")


HOOKS = {
    "kernels.count_affine": _count_affine,
    "kernels.scan_range": _scan_range,
    "kernels.spectrum_hist": _spectrum_hist,
    "kernels.walsh_hist": _walsh_hist,
    "search.scan": _scan,
    "differential.is_apn": _is_apn,
    "criteria.absolutely_irreducible": _verdict,
    "criteria.binomial_criterion": _verdict,
    "criteria.exponent_pair_criterion": _verdict,
    "criteria.surface_irreducible": _verdict,
}


class Recorder:
    """Spans and counters of one traced run; records only while active."""

    def __init__(self):
        self.active = False
        self.spans = []        # [name, start, end, parent id or None]
        self.stack = []
        self.counters = Counter()

    def spanned(self, name, fn):
        hook = HOOKS.get(name)
        is_criteria = name.startswith("criteria.")
        is_verdict = hook is _verdict

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_criteria:
                    self.counters["criteria.errors"] += 1
                if is_verdict:
                    self.counters["criteria.attempted"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result
        return wrapper

    def counted(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            if self.active:
                counters["gf2m.scalar_calls"] += 1
            return fn(*args)
        return wrapper

    def install(self):
        """Wrap every SPANNED function and the scalar field operations.
        Call once per process, after importing apnsurf."""
        package = [m for n, m in sys.modules.items()
                   if n == "apnsurf" or n.startswith("apnsurf.")]
        for module, path in SPANNED:
            owner = sys.modules["apnsurf." + module]
            name = "%s.%s" % (module, path)
            if "." in path:
                cls, attr = path.split(".")
                klass = getattr(owner, cls)
                setattr(klass, attr, self.spanned(name, getattr(klass, attr)))
                continue
            original = getattr(owner, path)
            wrapper = self.spanned(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        field = sys.modules["apnsurf.gf2m"].Field
        for op in SCALAR_OPS:
            setattr(field, op, self.counted(getattr(field, op)))

    def per_layer(self):
        """calls and self_s per spanned function, plus the counters and
        the ratios built from them."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        out = {}
        for module, path in SPANNED:
            name = "%s.%s" % (module, path)
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".self_s"] = (self_s[name], "s")
        c = self.counters
        for name, unit in COUNTERS:
            out[name] = (c[name], unit)
        out["search.hit_ratio"] = (
            _ratio(c["search.hits"], c["kernels.scan_range.candidates"]),
            "ratio")
        out["search.verify_yield"] = (
            _ratio(c["search.hits"], c["kernels.scan_range.survivors"]),
            "ratio")
        out["criteria.decided_ratio"] = (
            _ratio(c["criteria.decided"], c["criteria.attempted"]), "ratio")
        return out

    def span_records(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans)]


def _ratio(num, den):
    return num / den if den else 0.0


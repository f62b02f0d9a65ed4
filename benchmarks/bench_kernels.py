"""Timing comparison of the two kernel backends.

The backend is fixed at import time by APNSURF_BACKEND, so each backend
runs in its own subprocess and reports timings as JSON on stdout; the
parent process collects both sides and prints a table with speedups.
Without an importable numba only the numpy column is measured.

Usage: python3 benchmarks/bench_kernels.py [--reps N]
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("spectrum", "walsh", "count", "scan")


def run_workloads(reps):
    from apnsurf import kernels
    from apnsurf.differential import differential_spectrum, walsh_fingerprint
    from apnsurf.gf2m import Field
    from apnsurf.polyfunc import PolyFunc
    from apnsurf.search import SearchJob, scan
    from apnsurf.surface import build_surface, count_points

    # exponent differences 8 and 15 give a trivial scaling group, so the
    # kernels walk every row (a power map would take a single row)
    trinomial = [(21, 1), (13, 2), (6, 3)]
    f10 = PolyFunc(Field(10), trinomial)
    f8 = PolyFunc(Field(8), trinomial)
    surf = build_surface(PolyFunc(Field(6), trinomial))
    job = SearchJob(Field(5), [(6, 1)], (3, 5))

    def bench(fn):
        fn()  # warmup, pays any jit cost outside the clock
        best = None
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best

    out = {"backend": kernels.BACKEND}
    out["spectrum"] = bench(lambda: differential_spectrum(f10))
    out["walsh"] = bench(lambda: walsh_fingerprint(f8))
    out["count"] = bench(lambda: count_points(surf))
    out["scan"] = bench(lambda: scan(job))
    return out


DESCRIPTIONS = {
    "spectrum": "derivative spectrum, all rows, trinomial over 2^10 elements",
    "walsh": "walsh fingerprint, all rows, trinomial over 2^8 elements",
    "count": "surface point count, all rows, degree-21 trinomial over 2^6 elements",
    "scan": "degree-6 family scan, 1024 candidates over 2^5 elements",
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--worker", choices=("numba", "numpy"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        print(json.dumps(run_workloads(args.reps)))
        return 0

    backends = ["numba", "numpy"]
    try:
        import numba  # noqa: F401
    except ImportError:
        print("skipped: numba not importable")
        backends.remove("numba")

    results = {}
    for backend in backends:
        env = dict(os.environ, APNSURF_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--worker", backend, "--reps", str(args.reps)],
            capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            print("backend %s failed:\n%s" % (backend, proc.stderr), file=sys.stderr)
            return 1
        results[backend] = json.loads(proc.stdout.splitlines()[-1])

    print("%-12s %12s %12s %9s" % ("workload", "numba", "numpy", "speedup"))
    for name in WORKLOADS:
        nb = results.get("numba", {}).get(name)
        np_ = results.get("numpy", {}).get(name)
        ratio = "%8.1fx" % (np_ / nb) if nb and np_ else "      na"
        print("%-12s %12s %12s %s   %s"
              % (name,
                 "%10.4fs" % nb if nb else "        na",
                 "%10.4fs" % np_ if np_ else "        na",
                 ratio, DESCRIPTIONS[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

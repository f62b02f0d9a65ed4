"""apnsurf benchmark: four workloads through the real CLI code path.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload classify --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads: classify, surface, criteria, spectrum (see workloads.py for
what each runs and why); ``all`` runs the four in turn.  Every workload
runs in fresh processes with APNSURF_BACKEND=numpy pinned, one process
at a time, closed loop.

--trace 0 reports the end-to-end metrics:
  wall_s       time to solution of the whole job list after set-up: the
               sum over jobs of each job's median time over the passes;
               passes repeat until --seconds of wall time is spent
  setup_s      median, over SETUP_RUNS fresh processes, of the time from
               ``import apnsurf`` until the workload's fields and their
               tables exist
  peak_rss_mb  peak resident memory of the workload process
and prints failed_frac (failed / attempted operations) with its base.
Both times are in reference seconds: wall time scaled by a calibration
kernel timed around every quarter second of work, which takes out the
host-speed swings of shared machines (calibrate.py).  The raw wall
times are kept in the results file.
--trace 1 runs the job list once more in a traced process and reports
calls, self time and work counters per layer (spans.py), the traced
pass's wall time (trace.wall_s, the base for self-time shares; both are
raw wall time) and the tracing overhead: traced pass time minus untraced
median pass time, in reference seconds (trace.overhead_s).

Each run writes perfbench/results/<workload>-seed<n>-trace<t>.json with
an environment record, the metrics, every failed operation and, when
traced, every span.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 7
DEADLINE_S = 170
BACKEND = "numpy"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    pass


def worker(workload, seed, seconds, small, deadline, *flags):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--small"] if small else [])
    env = dict(os.environ, APNSURF_BACKEND=BACKEND, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd + list(flags), capture_output=True,
                              text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker did not finish in time" % workload)
    if proc.returncode != 0:
        raise BenchError("%s worker exited %d:\n%s"
                         % (workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed, main, attempted):
    return {
        "backend": main["backend"],
        "APNSURF_BACKEND": BACKEND,
        "numpy": main["numpy"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "seed": seed,
        "attempted": attempted,
    }


def run_workload(name, args, deadline):
    main = worker(name, args.seed, args.seconds, args.small, deadline)
    failures = list(main["failures"])
    attempted = main["attempted"]
    record = {"workload": name, "pass_s": main["pass_s"],
              "pass_wall_s": main["pass_wall_s"]}
    wall = main["wall_s"]
    if args.trace:
        traced = worker(name, args.seed, args.seconds, args.small, deadline,
                        "--traced")
        failures += traced["failures"]
        attempted += traced["attempted"]
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in traced["per_layer"].items()}
        # raw wall time, the base of the self_s shares; the overhead is
        # in reference seconds, like wall_s
        metrics["trace.wall_s"] = {"value": traced["pass_wall_s"][0],
                                   "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced["pass_s"][0] - wall,
                                       "unit": "s"}
        record["spans"] = traced["spans"]
    else:
        setups = [worker(name, args.seed, 0, args.small, deadline,
                         "--setup-only") for _ in range(SETUP_RUNS - 1)]
        setups.append(main)
        record["setup_s"] = [s["setup_s"] for s in setups]
        record["setup_wall_s"] = [s["setup_wall_s"] for s in setups]
        values = {"wall_s": wall,
                  "setup_s": statistics.median(record["setup_s"]),
                  "peak_rss_mb": main["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    failed = len(failures)
    correct = not any(outcome == "wrong" for outcome, _, _ in failures)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(environment=environment(args.seed, main, attempted),
                  failed_frac=failed / attempted, failures=failures,
                  result=result)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d%s.json"
                        % (name, args.seed, args.trace,
                           "-small" if args.small else ""))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print("%s: seed %d, backend %s, %d pass(es) of %.3f s median wall "
          "time" % (name, args.seed, main["backend"], len(main["pass_s"]),
                    statistics.median(main["pass_wall_s"])))
    for key, m in metrics.items():
        print("  %-44s %14.6g %s" % (key, m["value"], m["unit"]))
    print("  %-44s %14.6g (%d failed of %d attempted)"
          % ("failed_frac", failed / attempted, failed, attempted))
    for outcome, job, detail in failures:
        print("  %s: %s: %s" % (outcome, job, detail))
    print("  results written to %s" % os.path.relpath(path, ROOT))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description="apnsurf benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest job lists (smoke test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "apnsurf", "__init__.py")):
        print("error: no apnsurf sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = {n: run_workload(n, args, deadline) for n in names}
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (n, k): m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh benchmark process: set up, run the workload's job list, check.

Started by run.py, never by hand.  It imports apnsurf from the
checkout's src/, builds the workload's fields (set-up), then runs the
whole job list in passes until --seconds of wall time would be exceeded
(one pass when --traced), checking every output after its pass.  Times
are reported both as wall time and in reference seconds (calibrate.py).
It prints one JSON object on stdout.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import spans
import workloads


def run_pass(jobs, cal):
    """(wall seconds, reference seconds per job, outputs) of one pass."""
    outputs = []
    wall = 0.0
    job_s = []
    stretch = []
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            outputs.append((True, job.call()))
        except Exception as e:
            outputs.append((False, "%s: %s" % (type(e).__name__, e)))
        dt = time.perf_counter() - t0
        wall += dt
        stretch.append(dt)
        if sum(stretch) >= calibrate.SEGMENT_S or i == len(jobs) - 1:
            factor = cal.factor()
            job_s.extend(t * factor for t in stretch)
            stretch = []
    return wall, job_s, outputs


def check_pass(jobs, outputs):
    """(outcome, job name, detail) for every operation that failed."""
    bad = []
    for job, (returned, value) in zip(jobs, outputs):
        if not returned:
            bad.append(("failed", job.name, value))
            continue
        try:
            verdict = job.check(value)
        except Exception as e:
            verdict = ("wrong", "check raised %s: %s" % (type(e).__name__, e))
        if verdict is not None:
            bad.append((verdict[0], job.name, verdict[1]))
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    recorder = spans.Recorder()
    setup_cal = calibrate.Calibration("setup")
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    import apnsurf
    import apnsurf.cli  # noqa: F401  (the package does not import it)
    if args.traced:
        recorder.install()
        recorder.active = True
    fields = workloads.setup_fields(apnsurf, args.workload)
    setup_wall = time.perf_counter() - t0
    recorder.active = False
    setup_s = setup_wall * setup_cal.factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0

    jobs = workloads.build(apnsurf, args.workload, args.seed, fields,
                           args.small)
    cal = calibrate.Calibration(args.workload)
    pass_wall_s = []
    job_s = []
    bad = []
    while True:
        recorder.active = args.traced
        wall, times, outputs = run_pass(jobs, cal)
        recorder.active = False
        pass_wall_s.append(wall)
        job_s.append(times)
        bad.extend(check_pass(jobs, outputs))
        spent = sum(pass_wall_s)
        if args.traced or spent + spent / len(job_s) > args.seconds:
            break
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        # each job's median over the passes, so that a burst of load
        # during one job in one pass does not count
        "wall_s": sum(statistics.median(t) for t in zip(*job_s)),
        "pass_s": [sum(t) for t in job_s],
        "pass_wall_s": pass_wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(jobs) * len(job_s),
        "failures": bad,
        "backend": apnsurf.kernels.BACKEND,
        "numpy": sys.modules["numpy"].__version__,
    }
    if args.traced:
        out["per_layer"] = recorder.per_layer()
        out["spans"] = recorder.span_records()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host-speed calibration of the timed passes.

On shared machines the speed of a core swings by up to a factor of two
within seconds, with what other tenants run, and time-to-solution swings
with it.  So every stretch of at least SEGMENT_S of job time is bracketed
by timings of fixed calibration kernels (each the least of three runs),
and scaled by (reference kernel time) / (mean kernel time before and
after it).  The result is in reference seconds: wall time on a host
where the kernels take their REFERENCE_S, which is about their fastest
time on an unloaded 2-CPU Xeon cloud VM.

How much a stretch slows down depends on the shape of its work, so each
workload is calibrated by kernels of its own shape (KERNELS_OF):

- python: sparse-dict polynomial arithmetic (the criteria algebra, the
  affine-reduction check of classify, interpreter start-up in set-up);
- small_arrays: numpy calls on 64-element arrays in a Python loop (the
  point-count kernel);
- mid_arrays: gathers and histograms over 8192 elements (derivative
  spectra at m = 13);
- large_arrays: the same over 2^17 elements, past the L2 cache (the
  batched family scan).

The kernels use no apnsurf code, so a change to the program cannot move
them, and they hold at most a few MB, so they leave peak_rss_mb alone.
"""

import time

SEGMENT_S = 0.25
REFERENCE_S = {"python": 0.0026, "small_arrays": 0.0024,
               "mid_arrays": 0.0035, "large_arrays": 0.0029}
KERNELS_OF = {"setup": ("python",), "criteria": ("python",),
              "surface": ("small_arrays",), "spectrum": ("mid_arrays",),
              "classify": ("python", "large_arrays")}
ARRAY_SHAPES = {"small_arrays": (64, 750), "mid_arrays": (8192, 80),
                "large_arrays": (1 << 17, 3)}


def python_kernel():
    poly = {(i, j, k, 0): (i * 31 + j * 7 + k) & 255 or 1
            for i in range(6) for j in range(6 - i) for k in range(3)}
    terms = list(poly.items())
    t0 = time.perf_counter()
    for _ in range(6):
        out = {}
        for e1, c1 in terms:
            for e2, c2 in terms[:30]:
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], 0)
                out[e] = out.get(e, 0) ^ ((c1 * c2) & 255)
    return time.perf_counter() - t0


def array_kernel(np, n, rounds):
    idx = np.arange(n, dtype=np.int64)
    table = (idx * 2654435761) & (n - 1)

    def kernel():
        t0 = time.perf_counter()
        for a in range(1, rounds + 1):
            diffs = table[idx ^ (a & (n - 1))] ^ table
            int(np.bincount(diffs, minlength=n).max())
        return time.perf_counter() - t0
    return kernel


class Calibration:
    """Converts stretches of wall time into reference seconds for one
    workload.  Array kernels import numpy, so build them after set-up."""

    def __init__(self, workload):
        names = KERNELS_OF[workload]
        self.kernels = []
        for name in names:
            if name == "python":
                self.kernels.append(python_kernel)
            else:
                import numpy as np
                self.kernels.append(array_kernel(np, *ARRAY_SHAPES[name]))
        self.reference = sum(REFERENCE_S[name] for name in names)
        self.last = self.measure()

    def measure(self):
        # the least of three runs, so that one interrupt does not count
        return sum(min(k() for _ in range(3)) for k in self.kernels)

    def factor(self):
        """Reference seconds per wall second for the stretch of work
        done since the previous call."""
        before, self.last = self.last, self.measure()
        return self.reference * 2 / (before + self.last)

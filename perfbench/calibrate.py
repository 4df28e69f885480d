"""Host-speed calibration, so that times from a noisy host can be compared.

On a shared virtual machine the speed of the same Python code drifts by up
to a factor of 1.7 over tens of seconds, whatever the program does.  The
worker therefore runs a fixed reference kernel every `INTERVAL_S` seconds of
wall time, from a SIGALRM handler, so also in the middle of a long call into
toricgit.  Each call's time, less the kernel runs inside it, is scaled by
REFERENCE_KERNEL_S / (mean time of the kernel runs during and around the
call), so a change of speed in mid-pass is followed.  A
reported time is thus in *reference seconds*: the time the work would take
on a host that runs the kernel in REFERENCE_KERNEL_S.  The kernel is
pure Python in this file and shares no code with toricgit, so a change to
the program moves the reported times and leaves the kernel alone.  The raw
times and the kernel samples are kept in the result file.
"""

import bisect
import gc
import random
import signal
import statistics
import time
from math import gcd

# Median kernel time during the workloads on the host that defined the
# benchmark (2-vCPU Xeon VM, Python 3.11.7); it only fixes the unit.
REFERENCE_KERNEL_S = 0.042
INTERVAL_S = 0.5
NEIGHBOURS = 2

_rng = random.Random(20260817)
_VECTORS = [tuple(_rng.randint(-9, 9) for _ in range(4)) for _ in range(200)]
# a table larger than the caches, walked in random order: the library's
# memo-heavy code is bound by memory as much as by arithmetic
# (entries stay in CPython's cached small-int range to keep the table ~5 MB)
_TABLE = [tuple(_rng.randint(0, 200) for _ in range(4)) for _ in range(30_000)]
_INDEX = {t: i for i, t in enumerate(_TABLE)}
_WALK = [_rng.randrange(len(_TABLE)) for _ in range(30_000)]
_MATRICES = [
    [[_rng.randint(-4, 4) for _ in range(5)] for _ in range(5)] for _ in range(500)
]


def _bareiss_det(rows):
    """Fraction-free elimination, the arithmetic of Hermite and Smith forms."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def reference_kernel():
    """Small-integer tuples, dicts, gcd and sorting, fraction-free
    elimination, and a random walk over a large table: what the library's
    hot paths are made of, at a fixed size."""
    seen = {}
    for a in _VECTORS:
        for b in _VECTORS[:30]:
            d = sum(x * y for x, y in zip(a, b))
            key = (a[0] - b[0], a[1] + b[1], gcd(d, 12))
            seen[key] = seen.get(key, 0) + 1
    total = len(frozenset(seen)) + len(sorted(seen))
    total += sum(abs(_bareiss_det(m)) for m in _MATRICES)
    for i in _WALK:
        t = _TABLE[i]
        u = (t[1], t[0], t[3], t[2])
        total += _INDEX.get(u, 0) + hash(u) % 7
    return total


class Calibrator:
    """Kernel runs taken every INTERVAL_S of wall time, inside or between
    calls, and the calibration of a call from the runs around it."""

    def __init__(self):
        self.runs = []  # (start, end) of each kernel run, in time order
        self._ends = []
        self._previous = None

    def tick(self, *_):
        """Run the kernel once; also the SIGALRM handler."""
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the kernel down
        try:
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.runs.append((start, end))
        self._ends.append(end)

    def start_timer(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @property
    def samples(self):
        return [end - start for start, end in self.runs]

    def calibrate(self, start, seconds):
        """(work seconds, factor) for a call timed from `start` for `seconds`:
        the kernel runs inside it are taken out of its time, and the factor
        is REFERENCE_KERNEL_S over the mean kernel time of those runs and of
        the NEIGHBOURS runs before and after it."""
        end = start + seconds
        first = bisect.bisect_right(self._ends, start)
        last = bisect.bisect_right(self._ends, end)
        inside = [e - s for s, e in self.runs[first:last] if s >= start]
        window = [e - s for s, e in self.runs[max(0, first - NEIGHBOURS):last + NEIGHBOURS]]
        return seconds - sum(inside), REFERENCE_KERNEL_S / statistics.mean(window)

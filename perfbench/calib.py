"""Reference kernel that measures how fast the machine runs right now.

A shared VM speeds up and slows down by tens of percent, in phases that
switch within a second as well as over minutes.  A Sampler thread times
a short fixed kernel every PERIOD_S seconds on the CPU the timed work
runs on, so samples land inside every timed command, and each piece of
work is reported at a nominal machine speed:

    t = t_raw * REF_NOMINAL_S / mean(kernel times sampled during the piece)

The kernel mixes the kinds of work the toolkit does: interpreted Python
(CSV text, per-row loops, option parsing), numpy calls on small arrays
(index queries, plane scoring) and a sort that stays in cache.  It is
short (under a millisecond) so that it takes about 2 % of the CPU from
the work it shares the CPU with.
"""

import statistics
import threading
import time

import numpy as np

# one kernel call takes about this long on the reference machine
# (2 vCPU x86-64 VM, Python 3.11, numpy 2.4); it fixes the nominal speed
REF_NOMINAL_S = 0.00053
PERIOD_S = 0.04
MIN_SAMPLES = 3

_SMALL = np.random.default_rng(12345).random((64, 3))
_SORT = np.random.default_rng(54321).random(2048)


def kernel():
    """One call of the fixed reference work; returns its wall time."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += (i % 7) * 0.5
    for i in range(40):
        d = _SMALL - _SMALL[i]
        acc += float(np.einsum("ij,ij->", d, d))
    acc += float(np.sort(_SORT)[1000])
    return time.perf_counter() - t0


class Sampler:
    """Background thread timing kernel() every PERIOD_S seconds."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample's end, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="ref-sampler", daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            d = kernel()
            self.samples.append((time.perf_counter(), d))

    def __enter__(self):
        kernel()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def ref(self, t0, t1):
        """Mean kernel time sampled in [t0, t1], or near it when the
        interval holds fewer than MIN_SAMPLES samples."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2.0
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [d for _, d in near]
        return statistics.fmean(inside)

    def cal(self, piece):
        """Calibrated seconds of a (t0, t1) piece of timed work."""
        t0, t1 = piece
        return (t1 - t0) * REF_NOMINAL_S / self.ref(t0, t1)

    def median(self):
        return statistics.median(d for _, d in self.samples)

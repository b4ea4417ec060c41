"""A fixed reference kernel that tells how fast the host runs at a given moment.

The benchmark shares a few cores of a host whose speed switches, every few
seconds, between states up to 1.7x apart, with steal time flat: the process
keeps its CPU and the CPU runs slower.  A run therefore times a short slice
of this kernel every ``PERIOD_S`` of wall time, from a ``SIGALRM`` handler,
so the slices fall inside the operations as well as between them.  Each
operation's time, with the slices taken out, is scaled by
``REFERENCE_MS / <mean slice time around it>``: the end-to-end times are
reported at the reference speed, what the operation would take on a host
that runs one slice in ``REFERENCE_MS``.  A change to choiwit moves the
operations and not the kernel, so it still shows in full.

The kernel never imports choiwit and must not change: the scaled figures of
two commits compare only while it stays the same.  It mixes what the
operations spend their time on: interpreter work and numpy calls on
3-vectors and 9x9 complex matrices.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: Slice time, in ms, that defines the reference speed.  A constant of the
#: benchmark, near the median measured on a 2-vCPU Xeon VM.
REFERENCE_MS = 1.0
#: Kernel repetitions in one slice.
SLICE_REPS = 6
#: Wall time between two slices.
PERIOD_S = 0.05
#: Slices this far before and after an operation also count towards its speed.
MARGIN_S = 0.1
#: Slices taken back to back on entry and on exit.
BURST = 5

_RNG = np.random.default_rng(20110713)
_M = _RNG.standard_normal((9, 9)) + 1j * _RNG.standard_normal((9, 9))
_V = _RNG.standard_normal(9) + 1j * _RNG.standard_normal(9)


def kernel(reps):
    """The reference work; returns a value so nothing is skipped."""
    acc = 0.0
    for r in range(reps):
        a = _M.copy()
        for k in range(8):
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
        u = np.kron(_V[:3], np.conj(_V[3:6]))
        acc += abs(complex(np.vdot(u, a @ u)))
        acc += float(np.abs(a - a.conj().T).max())
        s = 0.0
        for i in range(60):
            s += (i * r) % 7 * 0.5
        acc += s
    return acc


class SpeedProbe:
    """Times one kernel slice every PERIOD_S while active; use as a context manager.

    BURST slices are also taken on entry and on exit, so even a span shorter
    than PERIOD_S, such as a quick set-up, has slices near it.  The handler
    runs in the main thread between two bytecodes, so it never overlaps
    choiwit's own work; the time it takes is known and taken out of the
    operations by ``spent``.
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self._old = None

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel(SLICE_REPS)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        kernel(SLICE_REPS)  # warm, not recorded
        for _ in range(BURST):
            self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(BURST):
            self._tick()

    def _between(self, t0, t1):
        return range(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def spent(self, t0, t1):
        """Seconds the slices that started in [t0, t1) took."""
        return sum(self.ends[i] - self.starts[i] for i in self._between(t0, t1))

    def slice_ms(self):
        return [(e - s) * 1e3 for s, e in zip(self.starts, self.ends)]

    def scale(self, t0, t1):
        """REFERENCE_MS over the mean slice time within MARGIN_S of [t0, t1)."""
        idx = self._between(t0 - MARGIN_S, t1 + MARGIN_S)
        if not idx:  # no slice near it: the nearest one
            k = min(bisect.bisect_left(self.starts, t0), len(self.starts) - 1)
            idx = range(k, k + 1)
        mean_s = sum(self.ends[i] - self.starts[i] for i in idx) / len(idx)
        return REFERENCE_MS / (mean_s * 1e3)

"""Host speed sampled while the program runs, to put wall time on one scale.

On a shared host the same pass of the same operations runs up to ~1.6x
slower in one stretch of minutes than in the next (2-vCPU host: one fixed
riemann N=48 solve took 21.5-34.6 s within 20 minutes, with CPU time equal
to wall time), and the stretches last longer than a run, so medians inside
a run cannot remove them. So, while passes run, a SIGALRM handler runs a
fixed pure-Python integer computation every ``INTERVAL_S`` seconds on the
program's own thread and records how long it took. A pass's wall time, less
the time spent in the handler, times ``REF_S`` over the mean sample is the
pass's time on a host where the reference takes ``REF_S``. Set-up probes,
which run in fresh processes, are scaled by reference timings taken just
before and after each.

This assumes the program computes on one thread, as it does with one BLAS
thread: work on other cores would slow the reference without slowing the
program by as much. The handler only runs between Python bytecodes, so a
long numpy call is sampled at its end.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

#: the reference's duration that defines the scale (typical on a 2-vCPU host)
REF_S = 0.002
INTERVAL_S = 0.1
_STEPS = 1800
_MOD = (1 << 521) - 1
_MUL = 3 ** 200


def reference() -> int:
    """Fixed big-integer work; mpmath's python backend does the same kind."""
    y = 1
    for _ in range(_STEPS):
        y = (y * _MUL + 7) % _MOD
    return y


class HostSpeed:
    """Reference timings taken while ``sampling`` is open."""

    def __init__(self, interval: float = INTERVAL_S, clock=time.perf_counter):
        self.interval, self.clock = interval, clock
        self.samples: list[tuple[float, float]] = []   # (start, seconds)

    def sample(self, *_signal_args) -> None:
        t0 = self.clock()
        reference()
        self.samples.append((t0, self.clock() - t0))

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, t0: float, t1: float) -> list:
        """Durations of the samples started in ``[t0, t1)``."""
        return [s for start, s in self.samples if t0 <= start < t1]


def block(n: int = 10) -> list:
    """``n`` reference timings taken back to back, for work that runs in
    another process (set-up probes), timed just before and after it."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference()
        out.append(time.perf_counter() - t0)
    return out


def at_reference(seconds: float, refs: list) -> float:
    """``seconds`` measured while the reference took ``refs``, on the scale
    where it takes ``REF_S``."""
    return seconds * REF_S / statistics.fmean(refs)

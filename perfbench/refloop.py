"""Reference-speed loop: the machine speed a run saw, on the vCPU it ran on.

The loop body is the interpreter-bound workload of
``repro.obs.bench._calibrate`` (mixed arithmetic and allocation), copied
here so that no change to the program can alter the yardstick.  A run
samples it on the vCPU the program is pinned to -- in phases between
operations and, through :class:`Sampler`, inside each compute operation --
and scales each time by ``REFERENCE_MS / mean loop time``: a slower or
faster moment of the host then moves the loop and the program alike and
cancels out.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List

#: the loop time (ms) every scaled compute time is expressed in: about one
#: loop on the 2-vCPU x86-64 cloud VM the benchmark was tuned on (CPython
#: 3.11), where it ranged from 12 to 21 ms
REFERENCE_MS = 15.0
#: iterations of one loop
LOOP = 60_000
#: iterations of one :class:`Sampler` burst, a quarter loop (~4 ms)
BURST = 15_000


def _work(n: int = LOOP) -> float:
    acc = 0.0
    store = {}
    for i in range(n):
        acc += (i % 7) * 1.000001
        store[i % 512] = (i, acc, [i, i + 1])
    return acc


def sample(seconds: float) -> List[float]:
    """Run the loop back to back for about ``seconds``; each loop's ms."""
    out: List[float] = []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        out.append((t1 - t0) * 1e3)
        if t1 >= end:
            return out


def scale(samples: List[float]) -> float:
    """The factor that turns a raw time into reference-speed time."""
    return REFERENCE_MS / statistics.fmean(samples)


class Sampler:
    """Samples the loop inside a running operation, from a timer signal.

    Between :meth:`start` and :meth:`stop`, every ``period`` seconds a
    SIGALRM handler runs one :data:`BURST` in the operation's own thread,
    with the collector off, and records it as ms per loop.  The samples
    see the vCPU's speed while the operation runs, which phases before and
    after a several-second operation miss, and there is never a second
    runnable task on the vCPU.  ``spent`` is the time the handler took, to
    be taken off the operation's wall time.  A signal that arrives during
    a long call into C is handled when the call returns.
    """

    def __init__(self, period: float = 0.25) -> None:
        self.period = period
        self.active = False
        self.samples: List[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t1 = time.perf_counter()
            _work(BURST)
            t2 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((t2 - t1) * 1e3 * LOOP / BURST)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)

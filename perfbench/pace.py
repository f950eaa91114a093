"""The host's speed while an operation runs, from a reference workload.

The benchmark runs on shared virtual hosts.  Their wall clock also counts
time the hypervisor gives the core to another guest (steal), and the
speed of the core the process does get drifts by up to a factor of two
within seconds.  So operations are timed in CPU time, which leaves steal
out, and corrected for the drift.  ``Pace`` times a small, fixed piece of
work (``reference``: big-integer arithmetic, list and dict operations, as
in the library, and page faults, as in a freshly forked child) in bursts
just before and just after an operation, and every ``PERIOD`` seconds
during it from a ``SIGALRM`` handler.  Each sample gives the host's
*rate*: ``REFERENCE_S`` divided by the sample's CPU time, so 1 means the
speed at which ``REFERENCE_S`` was measured and 0.5 half of it.  An
operation's *paced time* is its CPU time, less that of the samples, times
its mean rate: the time it would have taken at that reference speed.
Work the library saves or adds moves the paced time; the host's drift,
which slows the reference much as it slows the library, mostly does not.
The correction is partial: on the host of baseline.json one paced
operation still varies by 5-10% from run to run where its wall time
varies by 15-30%.
"""
from __future__ import annotations

import mmap
import signal
import time

# About the time of one ``reference()`` call on the host of baseline.json
# (Intel Xeon, 2 virtual cores, Python 3.11.7).  It only sets the scale of
# paced times; changing it changes every figure.
REFERENCE_S = 0.000400
PERIOD = 0.02
BURST = 8
_MODULUS = 1 << 1200
_FACTOR = (1 << 400) - 12345
# A short query touches a few MB in its fresh child, a page fault per 4 KiB;
# with this many pages the faults take about as long as the arithmetic,
# the weighting that tracked the queries and the long operations best.
_PAGES = 96


def reference() -> int:
    a, acc, d = 7, [], {}
    for i in range(100):
        a = (a * _FACTOR + i) % _MODULUS
        acc.append(a & 0xFFFF)
        d[i & 31] = d.get(i & 31, 0) + acc[-1]
    with mmap.mmap(-1, _PAGES * mmap.PAGESIZE) as fresh:
        for i in range(0, len(fresh), mmap.PAGESIZE):
            fresh[i] = 1
    return len(acc) + len(d)


def _sample() -> float:
    """CPU seconds of one ``reference()`` call."""
    c0 = time.process_time()
    reference()
    return time.process_time() - c0


def burst() -> list[float]:
    """Rates of ``BURST`` samples taken back to back."""
    return [REFERENCE_S / _sample() for _ in range(BURST)]


class Pace:
    """Samples the host's rate around and during one operation at a time.

    ``on_sample(dt)`` is called with the duration of every sample taken
    inside the operation, so that a tracer can leave it out of its spans."""

    def __init__(self, on_sample=None) -> None:
        self._on_sample = on_sample
        self._rates: list[float] = []
        self._inside = self._inside_cpu = 0.0
        self._t0 = self._c0 = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        cpu = _sample()
        dt = time.perf_counter() - t0
        self._rates.append(REFERENCE_S / cpu)
        self._inside += dt
        self._inside_cpu += cpu
        if self._on_sample:
            self._on_sample(dt)

    def start(self) -> None:
        self._rates = burst()
        self._inside = self._inside_cpu = 0.0
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._t0, self._c0 = time.perf_counter(), time.process_time()

    def stop(self) -> tuple[float, float, float]:
        """(wall seconds, CPU seconds, mean rate) of the operation; the
        time spent sampling is left out of both times."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self._t0 - self._inside
        cpu = time.process_time() - self._c0 - self._inside_cpu
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._rates += burst()
        return wall, cpu, sum(self._rates) / len(self._rates)

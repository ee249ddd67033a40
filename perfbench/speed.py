"""Time a section of code at a fixed reference host speed.

The CPU speed of a shared host drifts by up to 2x in phases that last from
a second to minutes, so two wall-clock readings of the same work can differ
by more than any change worth measuring. `Meter.measure` therefore samples
the host's speed while the section runs: a SIGALRM timer interrupts it every
`INTERVAL` seconds, and the handler times a fixed piece of work (the probe):
a pure-Python loop, then sums over a 2 MB array. The loop follows the
interpreter-bound parts of perfcast; slow phases of a shared host slow
memory-bound numpy code more, and the array sums follow that. Each stretch
of the section between two samples is scaled by `REF_PROBE_S` over the probe
time around it, and the handler's own time is left out. The sum is what the
section would have taken on a host whose probe takes `REF_PROBE_S`.

The probe calls nothing of perfcast, so a change to the program cannot move
it. It is single-threaded, like the benchmark process.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_LOOP = 5_000  # iterations of the probe's Python loop, about 0.5 ms
PROBE_ARRAY = np.random.default_rng(0).random(1 << 18)  # 2 MB, summed PROBE_SUMS times
PROBE_SUMS = 3
REF_PROBE_S = 0.0012  # probe time of the reference host speed
INTERVAL = 0.05  # seconds between samples while a section runs
EDGE_PROBES = 9  # probes taken just before and just after a section
WINDOW = 2  # samples on each side that smooth one sample's probe time


def probe() -> float:
    """Seconds the probe takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    for _ in range(PROBE_SUMS):
        PROBE_ARRAY.sum()
    return time.perf_counter() - t0


class Meter:
    """Measures sections of code at the reference host speed."""

    def __init__(self):
        self._samples: list[tuple[float, float]] | None = None  # (start, probe seconds)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append((start, probe()))

    def measure(self, fn):
        """Run fn(); return (result, scaled wall seconds, scaled CPU seconds, measured wall seconds).

        Measured wall seconds leave the sampling out; the scaled times are
        those at the reference host speed. The CPU time is scaled by the same
        factor as the wall time.
        """
        before = [probe() for _ in range(EDGE_PROBES)]
        samples = self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        c0 = time.process_time()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            t1 = time.perf_counter()
            c1 = time.process_time()
            signal.signal(signal.SIGALRM, previous)
            self._samples = None
        after = [probe() for _ in range(EDGE_PROBES)]

        # Probe time at each point where a stretch of the section starts or ends:
        # the section's start, each sample, and its end. A sample's reading is
        # the median of it and its neighbours, so that one interrupted probe
        # does not count.
        readings = [statistics.median(before)] + [p for _, p in samples] + [statistics.median(after)]
        smooth = [statistics.median(readings[max(0, i - WINDOW):i + WINDOW + 1]) for i in range(len(readings))]
        starts = [t0] + [s + p for s, p in samples]  # each stretch begins once a probe is done
        ends = [s for s, _ in samples] + [t1]
        wall = scaled = 0.0
        for i, (a, b) in enumerate(zip(starts, ends)):
            stretch = max(0.0, b - a)
            wall += stretch
            scaled += stretch * REF_PROBE_S * 2.0 / (smooth[i] + smooth[i + 1])
        probe_cpu = sum(p for _, p in samples)
        cpu = max(0.0, (c1 - c0) - probe_cpu)
        factor = scaled / wall if wall else REF_PROBE_S / smooth[0]
        return result, scaled, cpu * factor, wall

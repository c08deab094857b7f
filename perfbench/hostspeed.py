"""How fast the host runs this kind of code right now.

The shared hosts this benchmark runs on change speed from one second to the
next and from one minute to the next, while the process sees no CPU
pressure or steal. Measured on a 2-CPU Xeon VM, one fixed 200 s scenario
took from 0.36 to 0.79 s over three minutes, in runs of steady stretches,
and a fixed reference loop slowed and sped up with it (correlation 0.85).
The loop here is made of the same kind of work as the simulator (small
numpy calls on 25-node arrays, heap pushes, Python arithmetic, scans of a
ledger-sized list). `Sampler` times it five times a second while an
instance runs, and the instance's times are scaled by the mean of those
samples to what they would have been at the reference speed.
"""

from __future__ import annotations

import heapq
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: seconds one pass of the reference loop takes on the reference host; a
#: fixed constant, so scaled times keep the same meaning between versions
REFERENCE_S = 0.012
ITERATIONS = 200
SCANS = 2


class _Row:
    __slots__ = ("request_id", "units")

    def __init__(self, request_id: int, units: int):
        self.request_id = request_id
        self.units = units


_POS = np.random.default_rng(0).uniform(0.0, 1.0, (25, 2))
_KNOTS = np.linspace(0.0, 1.0, 64)
#: a ledger-sized list of small objects, scanned the way ledger reads are
_ROWS = [_Row(i % 997, i % 5) for i in range(60_000)]


def reference_pass(iterations: int = ITERATIONS, scans: int = SCANS) -> float:
    """Seconds one pass of the reference loop takes now; a shorter pass
    (fewer iterations, no scans) samples a shorter moment."""
    heap: list[tuple[int, int]] = []
    hits = 0
    t0 = perf_counter()
    for i in range(iterations):
        d = _POS[:, None, :] - _POS[None, :, :]
        hits += int(((d * d).sum(axis=2) <= 0.09).sum())
        k = int(np.searchsorted(_KNOTS, (i % 97) / 97.0))
        heapq.heappush(heap, (k, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc = 0.0
        for j in range(16):
            acc += j * 0.5
    for request_id in range(scans):
        hits += sum(row.units for row in _ROWS if row.request_id == request_id)
    elapsed = perf_counter() - t0
    if hits <= 0:
        raise RuntimeError("reference loop did no work")
    return elapsed


class Sampler:
    """Times one pass of the reference loop every `period` seconds, from a
    SIGALRM handler, while the `with` block runs.

    The passes interrupt whatever runs at that moment, so they sample the
    host's speed evenly in time, also inside one long scenario run, without
    changing the order of anything the simulator does. `excluded(a, b)` is
    the time the passes took between `a` and `b` on `perf_counter`, to be
    subtracted from anything timed over that interval.
    """

    def __init__(self, period: float = 0.2, initial: int = 3):
        self.period = period
        self.passes = [reference_pass() for _ in range(initial)]
        self.intervals: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self.passes.append(reference_pass())
        self.intervals.append((t0, perf_counter()))
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def paused(self):
        """Hold samples back; one that fell due is taken on leaving."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def excluded(self, a: float, b: float) -> float:
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e in self.intervals)

    def scale(self) -> float:
        """Factor that turns seconds measured while sampling into seconds at
        the reference speed."""
        return REFERENCE_S / (sum(self.passes) / len(self.passes))

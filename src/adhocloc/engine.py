"""Deterministic discrete-event core: virtual clock, ordered queue, named RNG streams."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np


class SimulationError(RuntimeError):
    """Engine misuse: scheduling into the past or running backwards."""


class EventKind(Enum):
    CODE_MIGRATION = "CodeMigration"
    REQUEST_ARRIVAL = "RequestArrival"
    CHAIN_CHECK_TICK = "ChainCheckTick"
    SERVER_REELECTION_TICK = "ServerReelectionTick"
    MESSAGE_DELIVERY = "MessageDelivery"
    TIMER_EXPIRY = "TimerExpiry"


@dataclass(slots=True)
class Event:
    """A pending action; its time and sequence live in the queue's heap entry."""
    kind: EventKind
    action: Optional[Callable[[], None]]
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class Engine:
    """Virtual-time event loop.

    Events fire in (fire_at, sequence) order, so same-instant events run in
    scheduling order and runs with the same seed replay identically.
    """

    def __init__(self, trace: bool = False):
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.executed = 0
        self.skipped_cancelled = 0
        self.trace: Optional[list[tuple[float, int, str]]] = [] if trace else None

    def schedule(self, fire_at: float, kind: EventKind, action: Callable[[], None]) -> Event:
        if fire_at < self.now:
            raise SimulationError(f"cannot schedule at {fire_at:.6f}, clock is at {self.now:.6f}")
        ev = Event(kind, action)
        heapq.heappush(self._heap, (fire_at, self._seq, ev))
        self._seq += 1
        return ev

    def run_until(self, t_end: float) -> int:
        """Execute every pending event with fire_at <= t_end; returns the count run."""
        if t_end < self.now:
            raise SimulationError(f"cannot run backwards to {t_end:.6f} from {self.now:.6f}")
        ran = 0
        while self._heap and self._heap[0][0] <= t_end:
            fire_at, seq, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                self.skipped_cancelled += 1
                continue
            self.now = fire_at
            if self.trace is not None:
                self.trace.append((fire_at, seq, ev.kind.value))
            self.executed += 1
            ran += 1
            ev.action()
        self.now = t_end
        return ran

    def discard_pending(self) -> None:
        """Drop every pending event and its action. Actions are closures over
        their owners, so a finished run's queue would otherwise keep the run
        alive in a reference cycle until the cyclic collector finds it."""
        for _, _, ev in self._heap:
            ev.action = None
        self._heap.clear()


STREAM_NAMES = ("mobility", "workload", "code-migration", "protocol")


class RngStreams:
    """Independent PCG64 streams derived from one scenario seed: `workload`,
    `code_migration` and `protocol`, plus keyed substreams such as one
    mobility stream per node.

    Consuming draws from one stream never perturbs another, so e.g. the same
    node trajectories appear under every protocol at a given seed.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.workload = self._stream(STREAM_NAMES.index("workload"))
        self.code_migration = self._stream(STREAM_NAMES.index("code-migration"))
        self.protocol = self._stream(STREAM_NAMES.index("protocol"))

    def substream(self, name: str, key: int) -> np.random.Generator:
        """A child stream, e.g. one per node, stable under any draw interleaving."""
        return self._stream(STREAM_NAMES.index(name), int(key))

    def _stream(self, *key: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, *key))))

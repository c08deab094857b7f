"""Deterministic discrete-event core: virtual clock, ordered queue, and the
random streams a run draws from its seed, each named by (seed, name, key)."""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

import numpy as np


class Engine:
    """Virtual-time event loop.

    An event is its heap entry, (fire_at, seq, action): events fire in
    (fire_at, seq) order, so same-instant events run in scheduling order and
    runs with the same seed replay identically. `schedule` returns the seq
    as the event's handle for `cancel`. The action is the event's only
    label: its `__qualname__` names the site that scheduled it.

    `reserve` takes a seq without scheduling anything, for work whose only
    effect its owner can apply later in the same order (see `ServerAgent`);
    no other event's seq moves. `running` is the seq of the event being run;
    after `run_until` ends normally it is the next seq to be handed out, so
    (now, running) orders after every event that has run and before every
    event still to come.
    """

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.running = 0
        self._cancelled: set[int] = set()
        self.executed = 0
        self.skipped_cancelled = 0

    def schedule(self, fire_at: float, action: Callable[[], None]) -> int:
        if fire_at < self.now:
            raise RuntimeError(f"cannot schedule at {fire_at:.6f}, clock is at {self.now:.6f}")
        seq = self._seq
        heapq.heappush(self._heap, (fire_at, seq, action))
        self._seq = seq + 1
        return seq

    def reserve(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

    def cancel(self, handle: int) -> None:
        """Skip the pending event `handle` when it comes up. Cancel only an
        event that has not run: the handle of one that has is never popped
        again, so it would stay in the cancelled set until the run ends."""
        self._cancelled.add(handle)

    def run_until(self, t_end: float) -> None:
        """Execute every pending event with fire_at <= t_end."""
        if t_end < self.now:
            raise RuntimeError(f"cannot run backwards to {t_end:.6f} from {self.now:.6f}")
        heap, cancelled = self._heap, self._cancelled
        while heap and heap[0][0] <= t_end:
            fire_at, seq, action = heapq.heappop(heap)
            if seq in cancelled:
                cancelled.discard(seq)
                self.skipped_cancelled += 1
                continue
            self.now = fire_at
            self.running = seq
            self.executed += 1
            action()
        self.now = t_end
        self.running = self._seq

    def discard_pending(self) -> None:
        """Drop every pending event. Actions are closures over their owners
        and only the heap holds them, so clearing it frees a finished run
        without waiting for the cyclic collector."""
        self._heap.clear()
        self._cancelled.clear()


STREAM_NAMES = ("mobility", "workload", "code-migration", "protocol")
#: values `drawn_in_blocks` takes from a stream at once; a block of draws
#: equals as many one-at-a-time draws, so the size changes no value
DRAW_BLOCK = 64


def drawn_in_blocks(draw: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The values of `draw(DRAW_BLOCK)` one at a time, drawing the next block
    when one runs out; `draw(k)` must equal k one-at-a-time draws."""
    while True:
        yield from draw(DRAW_BLOCK).tolist()


def stream(seed: int, name: str, *key: int) -> np.random.Generator:
    """The PCG64 stream `name` (in STREAM_NAMES) of `seed`, keyed by `key`,
    e.g. one mobility stream per node. Its draws depend on (seed, name, key)
    alone, so e.g. the same node trajectories appear under every protocol at
    a given seed. An unknown name raises ValueError."""
    entropy = (seed, STREAM_NAMES.index(name), *key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

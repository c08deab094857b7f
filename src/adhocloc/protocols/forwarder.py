"""Forwarder-chain localization.

Every station the code leaves keeps a forwarding entry (successor, order).
Orders grow along the chain, the mother station is pinned at order zero, so
following entries of strictly increasing order always terminates at the host.
Requests walk the chain over direct radio links; a link whose successor moved
out of range is a break.

Two maintenance disciplines share the machinery:

* reactive: breaks are discovered by the walking request itself and repaired
  in band (search diffusion, replies, pointer rewrite), charged to the request;
  after a resolved request the chain collapses to the single link mother ->
  host and every bypassed station forgets its entry, so the structure carries
  no history between lookups;
* proactive: the chain persists; a periodic tick probes every link with a
  direct check message and repairs breaks as maintenance traffic; a walking
  request that hits a break parks at the broken station and resumes once the
  tick repair rewires it, failing after a bounded number of tick periods.

When the code lands on a station that already holds a pointer, the stretch
past that station is orphaned: no walk can reach it, but its members have no
way to know and keep maintaining (and answering repairs with) their entries.
Walks therefore defend themselves. Each walk remembers the stations it has
forwarded from, so a lap through wrapped-around stale pointers is detected on
the spot, and a walk that reaches a station with no pointer at all cannot
wait for maintenance that will never come. In both cases the walk runs its
own repair immediately, reactive or not, rewiring the station toward the best
answerer (a station with no pointer is grafted in just below its adoptee,
deleting nothing, since it holds no place in the order to bridge from).

A station concludes its successor is gone only after ACK_TIMEOUT of silence,
so every break costs that much time before repair or parking starts. The
proactive tick runs every CHAIN_CHECK_PERIOD; a parked walk gives up after
PROACTIVE_WAIT_TICKS of them.

A repair diffuses a search around the broken station, first within REPAIR_TTL
hops, then network-wide. The answerers are the current host and every station
of order higher than the searcher that the search reaches, read off the chain;
they reply in ascending id, each reply charged, and no other station is asked.
The searcher reconnects to the sought successor, or to an answerer that is
nearer in hops than the sought one, preferring the highest order, then the
fewest hops, then the lowest id.
Relay nodes on the adopted multi-hop path are turned into chain members with
interpolated orders so the rebuilt stretch stays walkable over direct links;
stations whose order falls inside the bridged stretch but that are not on the
new path drop out of the chain and forget their entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import kernels
from ..metrics import RequestRecord
from ..radio import MessageKind
from .base import LocalizationProtocol, ScenarioContext

# A walk that exceeds this many chain steps, or a request that needs more than
# this many in-band repairs, is declared failed instead of looping.
MAX_WALK_FACTOR = 4
MAX_REPAIRS_PER_REQUEST = 8
#: seconds of silence before a link is declared broken
ACK_TIMEOUT = 0.03
#: hop limit of a repair's first, local search
REPAIR_TTL = 3
#: seconds between proactive link checks
CHAIN_CHECK_PERIOD = 1.0
#: check periods a parked walk waits for a repair
PROACTIVE_WAIT_TICKS = 3


@dataclass(slots=True)
class ForwarderEntry:
    """One station's pointer along the chain."""
    next_hop: int
    order: float


@dataclass(slots=True)
class _WalkState:
    steps: int = 0
    repairs: int = 0
    # stations this walk has already forwarded from; arriving at one again
    # means the chain wrapped back on itself and needs a repair, not a loop
    seen: set = field(default_factory=set)


class ForwarderProtocol(LocalizationProtocol):
    """Chain walker with pluggable break handling (reactive or proactive)."""

    def __init__(self, ctx: ScenarioContext, proactive: bool):
        super().__init__(ctx)
        self.proactive = proactive
        self.entries: Dict[int, ForwarderEntry] = {}
        # station -> (record, walk, timeout handle) per walk waiting for a
        # tick repair; a walk whose timeout failed it stays listed until its
        # station is released, which drops it: its timeout has run, and a
        # cancel would leave that handle in the engine's cancelled set
        self._parked: Dict[int, List[Tuple[RequestRecord, _WalkState, int]]] = {}
        self._repair_active: set[int] = set()
        self._max_steps = MAX_WALK_FACTOR * ctx.cfg.n_nodes
        if proactive:
            self.engine.schedule(CHAIN_CHECK_PERIOD, self._chain_tick)

    # -- code migration --------------------------------------------------------

    def on_code_jump(self, old_host: int) -> None:
        code = self.code
        new_host = code.host
        order = 0.0 if old_host == code.mother else float(code.jumps - 1)
        self.entries[old_host] = ForwarderEntry(new_host, order)
        # a station hosting the code holds no pointer; if the code landed on
        # a chain member, the stretch past it is orphaned but its stations
        # cannot know that and keep maintaining their entries
        self.entries.pop(new_host, None)
        # walks parked at either end can move again: the old station has a
        # fresh in-range pointer and the new one now hosts the code
        self._release_parked(old_host)
        self._release_parked(new_host)

    # -- request walk ----------------------------------------------------------

    def _attempt(self, record: RequestRecord) -> None:
        self._advance(record, _WalkState(), self.code.mother)

    def _advance(self, record: RequestRecord, walk: _WalkState,
                 station: int) -> None:
        walk.steps += 1
        if walk.steps > self._max_steps:
            self._fail(record)
            return
        code = self.code
        if station == code.host:
            if not self._send(station, code.mother, MessageKind.LOCATE_REPLY,
                              lambda: self._complete(record, station),
                              record.request_id):
                self._fail(record)
            return
        entry = self.entries.get(station)
        if entry is None or station in walk.seen:
            # a station with no pointer has nothing to wait out, and a walk
            # back at a station it has left proves the chain wrapped back on
            # itself through stale pointers: either way, repair right here
            self._break(record, walk, station, entry)
            return
        t = self.engine.now
        arrival = self.radio.direct(station, entry.next_hop,
                                    MessageKind.LOCATE_REQUEST, t,
                                    request_id=record.request_id)
        if arrival is None:
            self.engine.schedule(t + ACK_TIMEOUT, lambda: self._break(
                record, walk, station, entry))
            return
        walk.seen.add(station)
        nxt = entry.next_hop
        self.engine.schedule(arrival, lambda: self._advance(record, walk, nxt))

    def _complete(self, record: RequestRecord, host: int) -> None:
        """`host`'s reply reaches the mother; it held the code when it answered."""
        self._resolve(record, host, host)
        if not self.proactive:
            # the answered request re-anchors the chain: one link, no history
            self.entries.clear()
            if host != self.code.mother:
                self.entries[self.code.mother] = ForwarderEntry(host, 0.0)

    # -- break handling --------------------------------------------------------

    def _break(self, record: RequestRecord, walk: _WalkState, station: int,
               anchor: Optional[ForwarderEntry]) -> None:
        if self.entries.get(station) is not anchor:
            # the chain was rewired while we waited out the ack; walk again
            self._advance(record, walk, station)
            return
        if self.proactive and anchor is not None and station not in walk.seen:
            # a broken pointer the walk has not followed before; the periodic
            # check will notice it too, so the walk parks for that repair
            timeout_at = self.engine.now + PROACTIVE_WAIT_TICKS * CHAIN_CHECK_PERIOD
            timeout = self.engine.schedule(timeout_at, lambda: self._fail(record))
            self._parked.setdefault(station, []).append((record, walk, timeout))
            return
        walk.repairs += 1
        if walk.repairs > MAX_REPAIRS_PER_REQUEST:
            self._fail(record)
            return

        def resume(success: bool) -> None:
            if success or self.entries.get(station) is not anchor:
                # repaired, or rewired underneath the repair by a jump or a
                # concurrent repair; either way the walk can try again, and
                # the station's rewired pointer deserves a fresh attempt even
                # if the walk has been here before (the repairs counter still
                # bounds how often)
                walk.seen.discard(station)
                self._advance(record, walk, station)
            else:
                # the widened search drew silence from an unchanged chain:
                # nobody reachable can extend it, so the request is lost
                self._fail(record)

        self._repair(station, anchor, record.request_id, resume)

    def _release_parked(self, station: int) -> None:
        for record, walk, timeout in self._parked.pop(station, []):
            if not record.done:
                self.engine.cancel(timeout)
                self._advance(record, walk, station)

    # -- proactive maintenance ---------------------------------------------------

    def _chain_tick(self) -> None:
        t = self.engine.now
        for station, entry in sorted(self.entries.items()):
            if station in self._repair_active:
                continue
            probe = self.radio.direct(station, entry.next_hop,
                                      MessageKind.CHAIN_CHECK, t)
            if probe is None:
                # _repair stands down if the entry is rewired during the ack wait
                self._repair_active.add(station)
                self.engine.schedule(
                    t + ACK_TIMEOUT, lambda s=station, e=entry: self._repair(
                        s, e, None, lambda ok: self._tick_repair_done(s, ok)))
            elif station in self._parked:
                # the link healed on its own; waiting walks can move again
                self._release_parked(station)
        self.engine.schedule(t + CHAIN_CHECK_PERIOD, self._chain_tick)

    def _tick_repair_done(self, station: int, success: bool) -> None:
        self._repair_active.discard(station)
        if success:
            self._release_parked(station)
        # on failure parked walks stay put; the next tick tries again and
        # their own timers bound the wait

    # -- repair ------------------------------------------------------------------

    def _repair(self, station: int, anchor: Optional[ForwarderEntry],
                request_id: Optional[int], on_done: Callable[[bool], None],
                ttl: Optional[int] = REPAIR_TTL) -> None:
        """One search round around `station`. `anchor` is the station's entry
        when the break was seen; a searcher with no entry is off the chain,
        and every member may answer it. If the entry is replaced or dropped
        while search messages are in flight, the repair is acting on a chain
        that no longer exists and stands down through on_done(False)."""
        if self.entries.get(station) is not anchor:
            on_done(False)
            return
        searcher_order = anchor.order if anchor is not None else -1.0
        t = self.engine.now
        lat = self.radio.latency
        levels = self.radio.flood(station, MessageKind.CHAIN_REPAIR_FLOOD, t,
                                  ttl=ttl, request_id=request_id)
        code = self.code
        sought = anchor.next_hop if anchor is not None else None

        # the host and the members above the searcher that the flood reached
        # answer, in ascending id
        answerers = {x for x, e in self.entries.items() if e.order > searcher_order}
        depths = {x: depth for x in sorted((answerers | {code.host}) - {station})
                  if (depth := kernels.depth(levels, x)) is not None}
        replies: List[Tuple[float, int]] = []
        for x, depth in depths.items():
            arrival = self.radio.unicast(x, station, MessageKind.CHAIN_REPAIR_REPLY,
                                         t + depth * lat, request_id=request_id)
            if arrival is not None:
                replies.append((arrival, x))

        # an unreached sought station lies beyond every answerer
        sought_depth = None if sought is None else kernels.depth(levels, sought)
        pool = [x for _, x in replies if sought_depth is None
                or x == sought or depths[x] < sought_depth]

        if not pool:
            if ttl is not None:
                # widen the search after a round-trip worth of silence
                self.engine.schedule(t + 2 * ttl * lat, lambda: self._repair(
                    station, anchor, request_id, on_done, None))
            else:
                give_up_at = t + 2 * max(1, self.radio.diameter(t)) * lat
                self.engine.schedule(give_up_at, lambda: on_done(False))
            return

        def preference(x: int) -> Tuple[float, int, int]:
            e = self.entries.get(x)
            order = e.order if e is not None else float(code.jumps)
            return (-order, depths[x], x)

        best = min(pool, key=preference)
        path = self.radio.flood_path(levels, best, t)
        resume_at = max(arrival for arrival, _ in replies)
        self.engine.schedule(resume_at, lambda: self._finish_repair(
            station, anchor, best, path, on_done))

    def _finish_repair(self, station: int, anchor: Optional[ForwarderEntry],
                       best: int, path: Tuple[int, ...],
                       on_done: Callable[[bool], None]) -> None:
        code = self.code
        if path[0] != station or path[-1] != best:
            raise RuntimeError("repair path endpoints do not match")
        if self.entries.get(station) is not anchor:
            on_done(False)
            return
        e_best = self.entries.get(best)
        if e_best is None and best != code.host:
            # the replier was rewired out of the chain while its answer was
            # in flight; grafting onto it would wire in a dead end
            on_done(False)
            return
        searcher_order = anchor.order if anchor is not None else -1.0
        start_order = 0.0 if station == code.mother else searcher_order
        end_order = e_best.order if e_best is not None else float(code.jumps)
        if start_order < 0.0:
            # the searcher is off the chain (its entry vanished mid-walk);
            # graft it back in just below the adoptee without cutting
            # anything out of the live chain
            start_order = end_order - 1.0
        # relay nodes become chain members; the mother and the host never
        # carry interior pointers, the rebuilt hop simply spans past them
        interior = [v for v in path[1:-1] if v != code.mother and v != code.host]
        sequence = [station] + interior + [best]
        span = len(sequence) - 1
        for k in range(span):
            order = start_order + (end_order - start_order) * (k / span)
            self.entries[sequence[k]] = ForwarderEntry(sequence[k + 1], order)
        if searcher_order >= 0.0:
            # stations bridged over by the new stretch are out of the chain
            # now (the mother's anchor entry always survives)
            kept = set(sequence)
            dropped = [v for v, e in self.entries.items()
                       if v not in kept and v != code.mother
                       and start_order < e.order < end_order]
            for v in dropped:
                del self.entries[v]
                self._release_parked(v)
        on_done(True)

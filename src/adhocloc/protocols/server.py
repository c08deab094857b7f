"""Server-agent localization: the shared base and the centralized protocol.

ServerProtocol holds what the centralized and the zoned protocol share: the
query/reply/contact request path with its re-queries, the staggered and
jittered position reports, and the periodic re-election that hands an
agent's database to a better-centered node.

In the centralized protocol one mobile server agent owns the whole database;
the node closest to the network centroid hosts it. Every station diffuses its
position network-wide once per central_report_period, the code's host unicasts
a location update after each jump, and requesters query the agent, get the
database's host entry back, then contact that host; a stale entry costs a
re-query, up to MAX_RETRIES. A re-election every REELECTION_PERIOD moves the
agent (and its database, charged per hop at one unit per ten entries) to a
better-centered node when the gain clears HANDOFF_THRESHOLD, followed by a
network-wide announcement. Queries and location updates addressed to an
ex-host chase the agent through the forwarding pointer each ex-host keeps; a
chase that reaches a node with no pointer is lost, which costs a query a
re-query and drops an update.

The agent serializes everything it ingests through a single FIFO worker with
a fixed per-message SERVICE_TIME, so its response latency degrades as report
and query traffic converges on it. Every message to an agent carries its work
as a bare action, queued on arrival. One rule, `ServerAgent.report`, decides
for both protocols when a position report is an event: a report that can
change no station table only occupies the worker, a job the agent takes in
its turn (`ServerAgent.occupy`); any other keeps its arrival event.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Callable, Dict, Optional

from .. import kernels
from ..engine import Engine, drawn_in_blocks, stream
from ..geometry import centroid, dist, elect_server
from ..metrics import RequestRecord
from ..radio import MessageKind
from .base import LocalizationProtocol, ScenarioContext

#: longest chain of stale-host forwards a message may follow
CHASE_BUDGET = 8
#: re-queries a request may make after a failed or stale answer
MAX_RETRIES = 3
#: seconds between agent re-elections
REELECTION_PERIOD = 5.0
#: metres an agent's distance to the centroid must improve by to move it
HANDOFF_THRESHOLD = 50.0
#: seconds an agent spends on each message
SERVICE_TIME = 0.036


class ServerAgent:
    """One FIFO worker taking SERVICE_TIME per message.

    `process` enqueues a unit of work arriving now and schedules `action`
    at its completion instant.
    `code_host` is the code's host as last reported to this agent, None
    when it holds no code entry; `stations` holds the ids of the stations
    whose position reports the agent has processed.

    `occupy(arrival)` enqueues, ahead of time, a job that only occupies the
    worker: instead of an arrival event it takes a seq from the engine, and
    the worker takes the job once the engine's position (now, running seq)
    has passed (arrival, seq), where the event would have run. `process`
    and every read of `busy_until` or `processed` first take the jobs that
    have arrived, in that order, so every value equals what the arrival
    events would have made of it, between runs and after an abort too.
    """

    def __init__(self, engine: Engine, host: int):
        self.engine = engine
        self.host = host
        self.code_host: Optional[int] = None
        self.stations: set[int] = set()
        self.drops: Counter[int] = Counter()    # delivered, uncompleted drops
        self._busy_until = 0.0
        self._processed = 0
        self._occupancy: list[tuple[float, int]] = []   # (arrival, seq) heap

    @property
    def busy_until(self) -> float:
        if self._occupancy:
            self._take_arrived()
        return self._busy_until

    @property
    def processed(self) -> int:
        if self._occupancy:
            self._take_arrived()
        return self._processed

    def occupy(self, arrival: float) -> None:
        heapq.heappush(self._occupancy, (arrival, self.engine.reserve()))

    def report(self, station: int, arrival: float, next_at: float) -> None:
        """Queue `station`'s report, sent now, arriving at `arrival`; its next
        report leaves at `next_at`. A listed station loses its entry only to a
        completed drop, sent only by its own crossing reports, so with no drop
        in flight or queued and the next report leaving no earlier than this
        arrival the report changes no table and only occupies the worker."""
        if station in self.stations and not self.drops[station] and next_at >= arrival:
            self.occupy(arrival)
        else:
            self.engine.schedule(arrival, lambda: self.process(
                lambda: self.stations.add(station)))

    def process(self, action: Callable[[], None]) -> None:
        done = max(self.engine.now, self.busy_until) + SERVICE_TIME
        self._busy_until = done
        self._processed += 1
        self.engine.schedule(done, action)

    def _take_arrived(self) -> None:
        engine, pending = self.engine, self._occupancy
        position = (engine.now, engine.running)
        busy = self._busy_until
        while pending and pending[0] < position:
            busy = max(heapq.heappop(pending)[0], busy) + SERVICE_TIME
            self._processed += 1
        self._busy_until = busy

    def entry_count(self) -> int:
        return len(self.stations) + (self.code_host is not None)


class ServerProtocol(LocalizationProtocol):
    """Request path, report cadence and re-election shared by server agents.

    A request queries an agent (`_attempt`), whose answer names the code's
    host (`_reply`); the requester then contacts that host. Any undeliverable
    leg or stale answer costs a re-query, up to MAX_RETRIES, counted in
    `record.retries`. Subclasses supply `_attempt(record)`, `_report(node,
    next_at)`, where `next_at` is the node's next report instant, and
    `_reelect(pos, ref)`; `pos` holds every node's position at the
    re-election instant, read from the mobility model, and `ref` their
    centroid. A station's report gap is its period times a factor uniform in
    [0.75, 1.25] from the seed's `protocol` stream.
    """

    def __init__(self, ctx: ScenarioContext):
        super().__init__(ctx)
        self.handoffs = 0
        rng = stream(self.cfg.seed, "protocol")
        self._jitter = drawn_in_blocks(lambda k: rng.uniform(0.75, 1.25, k))

    # -- position reports ------------------------------------------------------

    def _start_timers(self, report_period: float) -> None:
        """Staggered first position reports, then the re-election clock."""
        n = self.cfg.n_nodes
        for node in range(n):
            self.engine.schedule(report_period * (node + 1) / n,
                                 lambda v=node: self._report_tick(v, report_period))
        self.engine.schedule(REELECTION_PERIOD, self._reelection_tick)

    def _report_tick(self, node: int, period: float) -> None:
        # station clocks drift, so the reporting cadence jitters around the
        # configured period instead of staying phase-locked
        next_at = self.engine.now + period * next(self._jitter)
        self._report(node, next_at)
        self.engine.schedule(next_at, lambda: self._report_tick(node, period))

    # -- elections ---------------------------------------------------------------

    def _reelection_tick(self) -> None:
        t = self.engine.now
        pos = self.model.positions(t)
        self._reelect(pos, centroid(pos))
        self.engine.schedule(t + REELECTION_PERIOD, self._reelection_tick)

    def _hand_off(self, agent: ServerAgent, best: int, pos,
                  ref: tuple[float, float]) -> bool:
        """Move `agent` to `best` if that gains more than HANDOFF_THRESHOLD
        in distance to `ref` and a route exists; the agent's database costs
        one unit per ten entries per hop. True when the agent moved."""
        incumbent = agent.host
        if best == incumbent:
            return False
        gain = dist(pos[incumbent], ref) - dist(pos[best], ref)
        if gain <= HANDOFF_THRESHOLD:
            return False
        t = self.engine.now
        path = self.radio.route(incumbent, best, t)
        if path is None:
            return False
        units = (len(path) - 1) * math.ceil(agent.entry_count() / 10)
        self.radio.ledger.charge(MessageKind.AGENT_MIGRATION, incumbent, best, units, t)
        agent.host = best
        self.handoffs += 1
        return True

    # -- localization ---------------------------------------------------------------

    def _leg(self, src: int, dst: int, kind: MessageKind, record: RequestRecord,
             then: Callable[[], None]) -> None:
        """Request-tagged unicast: re-query if undeliverable, else run
        `then` on arrival."""
        if not self._send(src, dst, kind, then, record.request_id):
            self._retry(record)

    def _reply(self, record: RequestRecord, server: int, claimed: int) -> None:
        """The agent at `server` answers the requester that `claimed` hosts
        the code; the requester then contacts `claimed`, which resolves the
        request if it still holds the code."""
        truth = self.code.host
        mother = self.code.mother

        def contacted() -> None:
            if self.code.host == claimed:
                self._resolve(record, claimed, truth)
            else:
                self._retry(record)

        self._leg(server, mother, MessageKind.SERVER_REPLY, record,
                  lambda: self._leg(mother, claimed, MessageKind.DATA, record,
                                    contacted))

    def _retry(self, record: RequestRecord) -> None:
        if record.retries < MAX_RETRIES:
            record.retries += 1
            self._attempt(record)
        else:
            self._fail(record)


class CentralizedProtocol(ServerProtocol):
    def __init__(self, ctx: ScenarioContext):
        super().__init__(ctx)
        self.forward_map: Dict[int, int] = {}
        pos = self.model.positions(0.0)
        host = elect_server(range(self.cfg.n_nodes), pos, centroid(pos))
        self.agent = ServerAgent(self.engine, host)
        self.known_server = [host] * self.cfg.n_nodes
        self._announce()
        self._send_location_update()
        self._start_timers(self.cfg.central_report_period)

    def on_code_jump(self, old_host: int) -> None:
        self._send_location_update()

    # -- maintenance traffic ---------------------------------------------------

    def _report(self, node: int, next_at: float) -> None:
        t = self.engine.now
        depth = self.radio.flood_depth(node, self.agent.host,
                                       MessageKind.POSITION_REPORT, t)
        if depth is not None:
            self.agent.report(node, t + depth * self.radio.latency, next_at)

    def _send_location_update(self) -> None:
        host = self.code.host
        self._chase(host, self.known_server[host], MessageKind.SERVER_UPDATE,
                    None, lambda: setattr(self.agent, "code_host", host),
                    lambda: None)

    def _reelect(self, pos, ref: tuple[float, float]) -> None:
        best = elect_server(range(self.cfg.n_nodes), pos, ref)
        incumbent = self.agent.host
        if self._hand_off(self.agent, best, pos, ref):
            self.forward_map[incumbent] = best
            self._announce()

    def _announce(self) -> None:
        holder = self.agent.host
        t = self.engine.now
        levels = self.radio.flood(holder, MessageKind.SERVER_UPDATE, t, ttl=None)
        self.known_server[holder] = holder
        lat = self.radio.latency
        for depth, level in enumerate(levels[1:], 1):
            for v in kernels.set_bits(level):
                self.engine.schedule(t + depth * lat,
                                     lambda v=v: self.known_server.__setitem__(v, holder))

    # -- agent addressing --------------------------------------------------------

    def _chase(self, sender: int, target: int, kind: MessageKind,
               request_id: Optional[int], action: Callable[[], None],
               lost: Callable[[], None], budget: int = CHASE_BUDGET) -> None:
        """Send to `target`, where the sender believes the agent sits,
        chasing forwarding pointers past stale addresses. The agent queues
        `action` on arrival; `lost` runs when delivery dies instead."""
        def arrived() -> None:
            if target == self.agent.host:
                self.agent.process(action)
                return
            successor = self.forward_map.get(target)
            if successor is None or budget <= 0:
                lost()
                return
            self._chase(target, successor, kind, request_id, action, lost,
                        budget - 1)

        if not self._send(sender, target, kind, arrived, request_id):
            lost()

    # -- localization ---------------------------------------------------------------

    def _attempt(self, record: RequestRecord) -> None:
        def served() -> None:
            claimed = self.agent.code_host
            if claimed is None:
                self._retry(record)
            else:
                self._reply(record, self.agent.host, claimed)

        mother = self.code.mother
        self._chase(mother, self.known_server[mother], MessageKind.SERVER_QUERY,
                    record.request_id, served, lambda: self._retry(record))

"""Zone-partitioned localization: one server agent per angular zone.

The deployment area is split into angular zones around the network centroid
at t = 0; the partition stays fixed afterwards. Each zone elects the member
node closest to the live network centroid as its agent. Members report their
position to their own zone's agent (an in-zone unicast per report_period),
which enters the member in its station table. A report that detects a
crossing also tells the old zone's agent to drop the node; tables learn only
by these messages, so an undeliverable drop leaves the old entry in place.
The old agent counts a delivered drop until it completes, and a report that
can change no table only occupies the worker (see `ServerAgent.report`).
The code's host keeps the zone database current the same way after each jump.

A requester queries its own zone's agent. On a database hit the agent answers
with the host's identity and the requester contacts the host, re-querying on
stale answers up to MAX_RETRIES. On a miss the query travels the ring of
agents, at most n_zones - 1 forwards; a full circle ends with a charged
not-found reply. Zone agents are re-elected periodically against the live
centroid with the same hysteresis and database-transfer accounting as the
centralized server, announcing inside their zone only. Messages to an agent
are addressed to its current host at send time (anycast within the zone).
"""

from __future__ import annotations

from typing import Callable, List

from ..geometry import ZoneLayout, centroid, elect_server, ring_next
from ..metrics import RequestRecord
from ..radio import MessageKind
from .base import ScenarioContext
from .server import ServerAgent, ServerProtocol


class ZonedProtocol(ServerProtocol):
    def __init__(self, ctx: ScenarioContext):
        super().__init__(ctx)
        cfg = self.cfg
        pos = self.model.positions(0.0)
        ref = centroid(pos)
        self.layout = ZoneLayout(cfg.n_zones, ref)
        self.last_zone = [self.layout.zone_of(p) for p in pos]
        self.agents: List[ServerAgent] = []
        taken: set[int] = set()
        for zone in range(cfg.n_zones):
            members = [v for v in range(cfg.n_nodes)
                       if self.last_zone[v] == zone and v not in taken]
            if not members:
                members = [v for v in range(cfg.n_nodes) if v not in taken]
            host = elect_server(members, pos, ref)
            taken.add(host)
            self.agents.append(ServerAgent(self.engine, host))
        for zone in range(cfg.n_zones):
            self._announce(zone, self.last_zone)
        self._send_sdb_insert(self.last_zone[self.code.host])
        self._start_timers(cfg.report_period)

    def _zone_at(self, node: int) -> int:
        return self.layout.zone_of(self.model.position(node, self.engine.now))

    def _to_zone(self, src: int, zone: int, kind: MessageKind,
                 action: Callable[[], None]) -> bool:
        """Unicast to the zone's agent, which runs `action` once it has
        processed the message; False when the message is undeliverable."""
        agent = self.agents[zone]
        return self._send(src, agent.host, kind, lambda: agent.process(action))

    # -- station table and database upkeep --------------------------------------

    def _report(self, node: int, next_at: float) -> None:
        zone = self._zone_at(node)
        previous = self.last_zone[node]
        agent = self.agents[zone]
        arrival = self.radio.unicast(node, agent.host, MessageKind.POSITION_REPORT,
                                     self.engine.now)
        if arrival is None:
            return
        agent.report(node, arrival, next_at)
        if zone != previous:
            # the old zone's agent drops the node once told about the move
            self.last_zone[node] = zone
            old = self.agents[previous]

            def dropped() -> None:
                old.drops[node] -= 1
                old.stations.discard(node)

            if self._to_zone(node, previous, MessageKind.POSITION_REPORT, dropped):
                old.drops[node] += 1

    def on_code_jump(self, old_host: int) -> None:
        host = self.code.host
        zone = self._zone_at(host)
        previous = self.sdb_zone
        self._send_sdb_insert(zone)
        if previous != zone:
            self._to_zone(host, previous, MessageKind.SERVER_UPDATE,
                          lambda: setattr(self.agents[previous], "code_host", None))

    def _send_sdb_insert(self, zone: int) -> None:
        """The code's host enters itself in `zone`'s database."""
        host = self.code.host
        self.sdb_zone = zone  # zone database holding the code entry
        self._to_zone(host, zone, MessageKind.SERVER_UPDATE,
                      lambda: setattr(self.agents[zone], "code_host", host))

    # -- elections ---------------------------------------------------------------

    def _reelect(self, pos, ref: tuple[float, float]) -> None:
        zones = [self.layout.zone_of(p) for p in pos]
        for zone, agent in enumerate(self.agents):
            members = [v for v in range(self.cfg.n_nodes) if zones[v] == zone]
            if not members:
                continue
            best = elect_server(members, pos, ref)
            if self._hand_off(agent, best, pos, ref):
                self._announce(zone, zones)

    def _announce(self, zone: int, zones: List[int]) -> None:
        members = sum(1 << v for v, z in enumerate(zones) if z == zone)
        self.radio.flood(self.agents[zone].host, MessageKind.SERVER_UPDATE,
                         self.engine.now, ttl=None, member_mask=members)

    # -- localization --------------------------------------------------------------

    def _attempt(self, record: RequestRecord) -> None:
        zone = self._zone_at(self.code.mother)
        agent = self.agents[zone]
        self._leg(self.code.mother, agent.host, MessageKind.SERVER_QUERY, record,
                  lambda: agent.process(lambda: self._serve(
                      record, zone, self.cfg.n_zones - 1)))

    def _serve(self, record: RequestRecord, zone: int, forwards_left: int) -> None:
        """Runs at a zone agent when it finishes processing the query."""
        agent = self.agents[zone]
        claimed = agent.code_host
        if claimed is not None:
            self._reply(record, agent.host, claimed)
        elif forwards_left <= 0:
            # full circle, nobody holds the code: charged not-found answer
            self._leg(agent.host, self.code.mother, MessageKind.SERVER_REPLY,
                      record, lambda: self._retry(record))
        else:
            nxt = ring_next(zone, self.cfg.n_zones)
            ahead = self.agents[nxt]
            self._leg(agent.host, ahead.host, MessageKind.RING_FORWARD, record,
                      lambda: ahead.process(lambda: self._serve(
                          record, nxt, forwards_left - 1)))

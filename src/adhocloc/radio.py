"""Idealized radio substrate: unit-disk connectivity, routed unicast, floods.

A connectivity snapshot holds the node positions and one int per node whose
bit v is set when node v is in range (`kernels.neighbour_bits`); every
topology query reads those bits, and routes and floods are BFS trees walked
over them with canonical lowest-id parents (`kernels.bfs_tree`).

The medium is lossless and queue-free. Unicast routing is idealized (BFS
shortest hop path on the connectivity snapshot at send time, validated link by
link at each hop's own send instant), so routing-layer discovery is free while
every protocol-level transmission is charged: one unit per unicast hop, one
unit per flood transmitter. Every charge lands in the MessageLedger, whose raw
log is the ground truth any total must recount to.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import kernels
from .mobility import RandomWaypointModel

#: destination marker for flood log rows
BROADCAST = -1
#: seconds per radio hop
PER_HOP_LATENCY = 0.01
#: connectivity snapshots kept; the least recently used is evicted first
SNAPSHOT_CACHE_SIZE = 64


class MessageKind(Enum):
    DATA = "Data"
    LOCATE_REQUEST = "LocateRequest"
    LOCATE_REPLY = "LocateReply"
    CHAIN_CHECK = "ChainCheck"
    CHAIN_REPAIR_FLOOD = "ChainRepairFlood"
    CHAIN_REPAIR_REPLY = "ChainRepairReply"
    SERVER_UPDATE = "ServerUpdate"
    SERVER_QUERY = "ServerQuery"
    SERVER_REPLY = "ServerReply"
    AGENT_MIGRATION = "AgentMigration"
    RING_FORWARD = "RingForward"
    POSITION_REPORT = "PositionReport"


@dataclass(slots=True)
class LedgerRow:
    request_id: Optional[int]
    kind: MessageKind
    src: int
    dst: int
    units: int
    t: float


class MessageLedger:
    """Append-only accounting of every charged transmission."""

    def __init__(self):
        self.total_units = 0
        self.by_kind: Counter = Counter()
        self.by_request: Counter = Counter()  # key None: unbilled traffic
        self.rows: list[LedgerRow] = []

    def charge(self, kind: MessageKind, src: int, dst: int, units: int, t: float,
               request_id: Optional[int] = None) -> None:
        if units < 0:
            raise ValueError("cannot charge negative units")
        self.total_units += units
        self.by_kind[kind.value] += units
        self.by_request[request_id] += units
        self.rows.append(LedgerRow(request_id, kind, src, dst, units, t))

    def recount(self) -> int:
        """Independent total from the raw log; must equal total_units exactly."""
        return sum(row.units for row in self.rows)

    def units_for_request(self, request_id: Optional[int]) -> int:
        return self.by_request[request_id]


@dataclass(slots=True)
class Delivery:
    hops: int
    arrival: float
    path: tuple[int, ...] = ()


@dataclass(slots=True)
class FloodResult:
    origin: int
    depths: np.ndarray          # -1 where unreached
    parents: np.ndarray
    units: int
    reached: tuple[int, ...]


class Radio:
    def __init__(self, model: RandomWaypointModel, range_m: float,
                 per_hop_latency: float, ledger: MessageLedger):
        if range_m <= 0:
            raise ValueError("radio range must be positive")
        if per_hop_latency < 0:
            raise ValueError("per-hop latency must be >= 0")
        self.model = model
        self.range_m = range_m
        self.latency = per_hop_latency
        self.ledger = ledger
        self._cache: OrderedDict[float, tuple[np.ndarray, list[int]]] = OrderedDict()

    # -- topology queries ---------------------------------------------------

    def snapshot(self, t: float) -> tuple[np.ndarray, list[int]]:
        """(positions, neighbour bitmasks) at time t, memoized on the exact
        timestamp."""
        hit = self._cache.get(t)
        if hit is not None:
            self._cache.move_to_end(t)
            return hit
        pos = self.model.positions(t)
        rows = kernels.neighbour_bits(kernels.adjacency(pos, self.range_m))
        self._cache[t] = (pos, rows)
        if len(self._cache) > SNAPSHOT_CACHE_SIZE:
            self._cache.popitem(last=False)
        return pos, rows

    def neighbors(self, node: int, t: float) -> list[int]:
        """Node ids within radio range at t (inclusive boundary), ascending."""
        _, rows = self.snapshot(t)
        return kernels.set_bits(rows[node])

    def in_range(self, a: int, b: int, t: float) -> bool:
        _, rows = self.snapshot(t)
        return bool(rows[a] >> b & 1)

    def connected(self, t: float) -> bool:
        _, rows = self.snapshot(t)
        hops, _ = kernels.bfs_tree(rows, 0)
        return bool((hops >= 0).all())

    def diameter(self, t: float) -> int:
        """Largest finite hop distance over all pairs at t."""
        _, rows = self.snapshot(t)
        best = 0
        for src in range(len(rows)):
            hops, _ = kernels.bfs_tree(rows, src)
            m = int(hops.max())
            if m > best:
                best = m
        return best

    def route(self, src: int, dst: int, t: float) -> Optional[tuple[int, ...]]:
        """Hop path src -> dst on the snapshot at t, or None. Charges nothing;
        callers that bill at a non-unit rate charge the ledger themselves."""
        if src == dst:
            return (src,)
        _, rows = self.snapshot(t)
        hops, parents = kernels.bfs_tree(rows, src)
        if hops[dst] < 0:
            return None
        return _parent_walk(parents, src, dst)

    # -- transmissions ------------------------------------------------------

    def unicast(self, src: int, dst: int, kind: MessageKind, t: float,
                request_id: Optional[int] = None) -> Optional[Delivery]:
        """Route src -> dst on the snapshot at t, walking hop by hop.

        The path is planned once on the send-time snapshot; each hop's link is
        re-validated at that hop's own send instant, so a topology change can
        break delivery mid-path. Charges one unit per hop actually traversed.
        Returns None when unreachable (nothing delivered); a send to self
        is delivered at once for zero units.
        """
        path = self.route(src, dst, t)
        if path is None:
            return None
        traversed = 0
        for k in range(len(path) - 1):
            hop_time = t + k * self.latency
            if k > 0 and not self._edge_alive(path[k], path[k + 1], hop_time):
                self.ledger.charge(kind, src, dst, traversed, t, request_id)
                return None
            traversed += 1
        self.ledger.charge(kind, src, dst, traversed, t, request_id)
        return Delivery(traversed, t + traversed * self.latency, path)

    def _edge_alive(self, a: int, b: int, t: float) -> bool:
        pos = self.model.positions(t)
        dx = pos[a, 0] - pos[b, 0]
        dy = pos[a, 1] - pos[b, 1]
        return dx * dx + dy * dy <= self.range_m * self.range_m

    def direct(self, src: int, dst: int, kind: MessageKind, t: float,
               request_id: Optional[int] = None) -> Optional[Delivery]:
        """Single-hop send; fails (charging nothing) when dst is out of range."""
        if src == dst:
            self.ledger.charge(kind, src, dst, 0, t, request_id)
            return Delivery(0, t, (src,))
        if not self.in_range(src, dst, t):
            return None
        self.ledger.charge(kind, src, dst, 1, t, request_id)
        return Delivery(1, t + self.latency, (src, dst))

    def flood(self, origin: int, kind: MessageKind, t: float,
              ttl: Optional[int] = None, request_id: Optional[int] = None,
              member_mask: int = -1) -> FloodResult:
        """Breadth-first diffusion from origin on the snapshot at t.

        Every reached node rebroadcasts once except those exactly at a finite
        ttl, which receive without relaying; the origin always transmits, even
        into silence. Only members of member_mask (bit v set for member v; all
        nodes by default), plus the origin, relay or count as reached, which
        confines a zone's diffusion to the zone.
        """
        if ttl is not None and ttl < 1:
            raise ValueError("flood ttl must be >= 1")
        _, rows = self.snapshot(t)
        depths, parents = kernels.bfs_tree(rows, origin, member_mask)
        if ttl is not None:
            cut = depths > ttl
            depths[cut] = -1
            parents[cut] = -1
        reached = tuple(int(v) for v in np.nonzero(depths >= 0)[0])
        if ttl is None:
            units = len(reached)
        else:
            units = int(((depths >= 0) & (depths < ttl)).sum())
            units = max(units, 1)  # an isolated origin still transmits once
        self.ledger.charge(kind, origin, BROADCAST, units, t, request_id)
        return FloodResult(origin, depths, parents, units, reached)

    def flood_path(self, flood: FloodResult, node: int) -> tuple[int, ...]:
        """Relay path origin -> node inside a flood's BFS tree."""
        if flood.depths[node] < 0:
            raise ValueError(f"node {node} was not reached by the flood")
        return _parent_walk(flood.parents, flood.origin, node)


def _parent_walk(parents: np.ndarray, src: int, dst: int) -> tuple[int, ...]:
    """Path src -> dst read back from a BFS tree's parent array."""
    path = [dst]
    while path[-1] != src:
        path.append(int(parents[path[-1]]))
    path.reverse()
    return tuple(path)

"""Idealized radio substrate: unit-disk connectivity, routed unicast, floods.

Topology is one int per node whose bit v is set when node v is in range;
every topology query reads those rows. Each is one BFS walk over them
(`kernels.bfs_tree`) that returns the tree as its levels and goes as deep as
its caller reads: a flood walks the whole tree, a route stops at its
destination's level and reads its path back by the lowest-id parent rule
(`kernels.path_back`), and floods read for one node's depth share one tree
while the rows and the node stay the same (`flood_depth`). Whether the
network is connected is a property of an epoch's rows, so the span keeps it
per epoch for every run of its world (`LinkSpan.connectivity`).

Trajectories are piecewise linear, so a link changes only where the pair's
d² − r² crosses 0, at a root of one quadratic per segment between the knots
of the pair's own two nodes.
A `LinkSpan` solves those crossings once from 0 to the model's horizon
(`kernels.range_crossings`) and keeps the quiet windows between them, shared
by every run of one world; each run's `Radio` answers a query inside a
window by moving its own cursor to the window's epoch, two bits per
crossing. Its answers equal the exact path's bit for bit: the exact path
(`snapshot`: `positions_at`, then `adjacency` and `neighbour_bits`) answers
every query outside the windows, wherever float error could matter: in
guard bands around each crossing sized from the root's conditioning, over
grazing and co-moving pairs near range, at the instants a link flips across
a knot (a jump), and at the crossings, at 0 and from the horizon on.
`run_scenario` draws the model to a horizon past every read of its run, hop
checks still in flight at its end included, and calls `Radio.build` at the
run's first event, solving the span if no earlier run of its world has, so
the exact path also answers start-up, and a radio never built has no
window. The radio answers topology only: readers of coordinates ask the
mobility model, `RandomWaypointModel.positions` for every node or
`position` for one.

The medium is lossless and queue-free. Unicast routing is idealized (BFS
shortest hop path on the connectivity snapshot at send time, validated link by
link at each hop's own send instant), so routing-layer discovery is free while
every protocol-level transmission is charged: one unit per unicast hop, one
unit per flood transmitter. No link changes inside a quiet window, so only
the hops that leave at or after the close of the send instant's window are
checked, and a unicast with none such needs no path: its hop count is its
BFS depth. Every charge lands in the MessageLedger, whose raw log is the
ground truth any total must recount to. The log is kept as columns, so a
charge is one append per column. Its rows are a read-only view
(`LedgerRows`), counted or iterated, that builds each row as it is read; its
totals by kind and by request are built where they are read.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from . import kernels
from .mobility import RandomWaypointModel

#: destination marker for flood log rows
BROADCAST = -1
#: seconds per radio hop
PER_HOP_LATENCY = 0.01
#: slack on d² − r², relative to the squared extent of the knots. Either
#: path computes d² − r² to a few ulps of that square (about 1e-15 of it), so
#: 1e-12 leaves a thousandfold margin; the guard bands it implies have a
#: half-width of about 1e-4 s at 1 km and 10 m/s.
SLACK = 1e-12


def _joins_all(rows: list[int]) -> bool:
    """Whether the BFS tree from node 0 spans every node of `rows`."""
    return sum(kernels.bfs_tree(rows, 0)) == (1 << len(rows)) - 1


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


#: an enum member hashes in Python (`Enum.__hash__`), its id in C
_KIND_BY_ID = {id(kind): kind for kind in MessageKind}


@dataclass(frozen=True, slots=True)
class LedgerRow:
    request_id: Optional[int]
    kind: MessageKind
    src: int
    dst: int
    units: int
    t: float


class LedgerRows:
    """Read-only view of a ledger's columns, counted or iterated, that builds
    each `LedgerRow` as it is read; a charge made after the view was taken
    shows in it."""

    __slots__ = ("_columns",)

    def __init__(self, columns: tuple):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return map(LedgerRow, *self._columns)


class MessageLedger:
    """Append-only accounting of every charged transmission.

    The raw log is six columns in `LedgerRow`'s field order: request id and
    kind in lists, src, dst and units in `array("q")`, t in `array("d")`. A
    charge appends one value to each and adds to `total_units`; `rows`,
    `by_kind`, `recount` and `units_for_request` are built from the columns
    where they are read."""

    def __init__(self):
        self.total_units = 0
        self._request_id: list[Optional[int]] = []
        self._kind: list[MessageKind] = []
        self._src, self._dst, self._units = array("q"), array("q"), array("q")
        self._t = array("d")
        self._columns = (self._request_id, self._kind, self._src, self._dst,
                         self._units, self._t)
        self._by_request: dict[Optional[int], int] = {}  # key None: unbilled
        self._folded = 0  # rows already summed into _by_request

    def charge(self, kind: MessageKind, src: int, dst: int, units: int, t: float,
               request_id: Optional[int] = None) -> None:
        if units < 0:  # before any append, so a refused charge leaves no row
            raise ValueError("cannot charge negative units")
        self._request_id.append(request_id)
        self._kind.append(kind)
        self._src.append(src)
        self._dst.append(dst)
        self._units.append(units)
        self._t.append(t)
        self.total_units += units

    @property
    def rows(self) -> LedgerRows:
        return LedgerRows(self._columns)

    @property
    def by_kind(self) -> Counter:
        """Units per kind's value, a key for every kind charged, 0 units too."""
        units_by_id: dict[int, int] = {}
        for key, units in zip(map(id, self._kind), self._units):
            units_by_id[key] = units_by_id.get(key, 0) + units
        return Counter({_KIND_BY_ID[key].value: n for key, n in units_by_id.items()})

    def recount(self) -> int:
        """Independent total from the units column; must equal total_units exactly."""
        return sum(self._units)

    def units_for_request(self, request_id: Optional[int]) -> int:
        """Units charged to `request_id` (None: unbilled traffic); a call sums
        only the rows charged since the last."""
        totals, start = self._by_request, self._folded
        for key, units in zip(self._request_id[start:], self._units[start:]):
            totals[key] = totals.get(key, 0) + units
        self._folded = len(self._units)
        return totals.get(request_id, 0)


@dataclass(slots=True)
class FloodResult:
    rows: list[int]             # the topology flooded, for flood_path
    levels: list[int]           # bitmask of the nodes at each depth


class LinkSpan:
    """The quiet windows of one model at one range up to the model's horizon:
    open intervals inside (0, horizon) that hold no guard-band point and no
    crossing instant of `kernels.range_crossings`, so their links are those
    of their epoch (the crossings at or before the open end) throughout.
    Each pair's crossings and guards are solved between its own two nodes'
    knots alone, so another node's turn moves none of them. Solved when a
    radio first builds on the span, then kept, so every run of one world
    adopts the same arrays; it holds nothing of a run.
    `connectivity` is world data too: whether each epoch's links join every
    node, filled by `Radio.connected` for the epochs its runs ask about, so
    a later run of the world walks none of them again.
    """

    def __init__(self, model: RandomWaypointModel, range_m: float):
        if range_m <= 0:
            raise ValueError("radio range must be positive")
        self.model = model
        self.range_m = range_m
        self.connectivity: dict[int, bool] = {}

    @cached_property
    def solved(self) -> tuple:
        """(opens, closes, epochs, a, b, start rows): the windows in time
        order and each crossing's pair, flat, about 40 bytes per crossing."""
        knot_t, knot_x, knot_y, offsets = self.model.knot_arrays
        hi = self.model.horizon
        extent = max(self.range_m, float(np.abs(knot_x).max()),
                     float(np.abs(knot_y).max()))
        start, (times, a, b), (lows, highs) = kernels.range_crossings(
            knot_t, knot_x, knot_y, offsets, hi,
            self.range_m * self.range_m, SLACK * extent * extent)
        # a crossing instant is a zero-width guard and the horizon a guard
        # running to infinity; the windows are the gaps between guards, each
        # from the running maximum of the ends before it (0 at first) to the
        # next start
        lows = np.concatenate((lows, times, [hi]))
        order = np.argsort(lows)
        closes = lows[order]
        ends = np.concatenate((highs, times, [np.inf]))[order]
        opens = np.maximum.accumulate(np.concatenate(([0.0], ends[:-1])))
        quiet = opens < closes
        opens, closes = opens[quiet], closes[quiet]
        epochs = np.searchsorted(times, opens, side="right")
        return (array("d", opens.tobytes()), array("d", closes.tobytes()),
                *(array("q", v.astype(np.int64).tobytes()) for v in (epochs, a, b)),
                kernels.neighbour_bits(start))


class Radio:
    """A run's radio over `span`'s model and range, charging `ledger`; each
    hop takes PER_HOP_LATENCY, the latency `World` sizes the horizon by.

    `build`, which `run_scenario` calls at the run's first event, adopts the
    span's windows, solving them if no radio has yet. A query inside a
    window gets the rows of the window's epoch, the start rows with every
    crossing of the epoch applied; anywhere else, and everywhere until the
    build, the exact path answers. The cursor (an epoch, its rows and its
    window) is the radio's own, so radios sharing a span never see each
    other's moves. Most queries fall in the window of the query before and
    get the cursor's rows without a search; any other takes one bisect over
    the windows' opens. After a windowed answer, `epoch` is the answer's
    epoch and `until` the close of its window.
    """

    def __init__(self, span: LinkSpan, ledger: MessageLedger):
        self.span = span
        self.model = span.model
        self.range_m = span.range_m
        self.latency = PER_HOP_LATENCY
        self.ledger = ledger
        self.opens = self.closes = array("d")   # no window until the build
        self._open = self.until = 0.0           # the cursor's, open and empty
        # (rows, target, levels, component size) of flood_depth's last tree
        self._depth_memo: tuple = (None, None, None, 0)
        # (instant, rows) of snapshot's last answer
        self._exact: tuple = (None, None)

    def build(self) -> None:
        (self.opens, self.closes, self._epochs, self._a, self._b,
         self._epoch_rows) = self.span.solved
        self.epoch = 0
        self._open = self.until = 0.0

    # -- topology queries ---------------------------------------------------

    def _windowed(self, t: float) -> Optional[list[int]]:
        """The rows of t's window, moving the cursor there; None when no
        window holds t, leaving the cursor where it was."""
        if self._open < t < self.until:
            return self._epoch_rows
        window = bisect_left(self.opens, t) - 1     # the last opening before t
        if window < 0 or t >= self.closes[window]:
            return None
        self._open, self.until = self.opens[window], self.closes[window]
        epoch = self._epochs[window]
        if epoch != self.epoch:
            # a rows list, once handed out, is never edited: a move edits a copy
            rows = list(self._epoch_rows)
            lo, hi = sorted((self.epoch, epoch))
            for a, b in zip(self._a[lo:hi], self._b[lo:hi]):
                rows[a] ^= 1 << b
                rows[b] ^= 1 << a
            self.epoch = epoch
            self._epoch_rows = rows
        return self._epoch_rows

    def snapshot(self, t: float) -> list[int]:
        """Neighbour bitmasks at time t, computed exactly from the positions and
        kept for the next read at an equal t: the exact path of topology queries."""
        if t != self._exact[0]:
            adjacency = kernels.adjacency(self.model.positions(t), self.range_m)
            self._exact = t, kernels.neighbour_bits(adjacency)
        return self._exact[1]

    def _rows(self, t: float) -> list[int]:
        rows = self._windowed(t)
        return self.snapshot(t) if rows is None else rows

    def neighbors(self, node: int, t: float) -> list[int]:
        """Node ids within radio range at t (inclusive boundary), ascending."""
        return kernels.set_bits(self._rows(t)[node])

    def in_range(self, a: int, b: int, t: float) -> bool:
        return bool(self._rows(t)[a] >> b & 1)

    def connected(self, t: float) -> bool:
        """Whether every node reaches node 0 at t. An instant a window
        answers reads its epoch's entry in the span's connectivity table,
        walking the rows only on a miss; the exact path walks and stores
        nothing, for its instant has no epoch."""
        rows = self._windowed(t)
        if rows is None:
            return _joins_all(self.snapshot(t))
        table = self.span.connectivity
        if self.epoch not in table:
            table[self.epoch] = _joins_all(rows)
        return table[self.epoch]

    def diameter(self, t: float) -> int:
        """Largest finite hop distance over all pairs at t, walking only the
        trees that can set it (BoundingDiameters: Takes and Kosters, CIKM
        2011). A tree of depth e bounds the eccentricity of each node it
        reaches at depth d by e + d; a node not yet reached has the bound n.
        The lowest-id node whose bound exceeds the largest depth found is
        walked next, until no node's bound does."""
        rows = self._rows(t)
        unsettled = (1 << len(rows)) - 1    # the nodes whose bound exceeds found
        found, trees = 0, []
        while unsettled:
            trees.append(kernels.bfs_tree(rows, (unsettled & -unsettled).bit_length() - 1))
            found = max(found, len(trees[-1]) - 1)
            for levels in trees:    # each settles its nodes within found - e hops
                unsettled &= ~sum(levels[:found - len(levels) + 2])
        return found

    def route(self, src: int, dst: int, t: float) -> Optional[tuple[int, ...]]:
        """Hop path src -> dst on the snapshot at t, or None. Charges nothing;
        callers that bill at a non-unit rate charge the ledger themselves."""
        rows = self._rows(t)
        levels = kernels.bfs_tree(rows, src, stop=1 << dst)
        if not levels[-1] >> dst & 1:
            return None
        return kernels.path_back(rows, levels, dst)

    # -- transmissions ------------------------------------------------------

    def unicast(self, src: int, dst: int, kind: MessageKind, t: float,
                request_id: Optional[int] = None) -> Optional[float]:
        """Route src -> dst on the snapshot at t, walking hop by hop; returns
        the arrival time, or None when the message is not delivered.

        The path is planned once on the send-time snapshot; each later hop's
        link is re-validated at that hop's own send instant, so a topology
        change can break delivery mid-path. Charges one unit per hop actually
        traversed. No link changes before the close of t's window (t itself
        on the exact path), so only the hops that leave at or after it are
        checked, and the path is read back from the plan's walk only for
        them. A send to self arrives at t for zero units, so test for None,
        not for a false value.
        """
        rows = self._windowed(t)
        # the close of t's window (t on the exact path), read before a hop
        # check can move the cursor
        until, rows = (t, self.snapshot(t)) if rows is None else (self.until, rows)
        levels = kernels.bfs_tree(rows, src, stop=1 << dst)
        if not levels[-1] >> dst & 1:
            return None
        hops = len(levels) - 1
        path = None
        for k in range(1, hops):
            hop_time = t + k * self.latency
            if hop_time >= until:
                path = path or kernels.path_back(rows, levels, dst)
                if not self.in_range(path[k], path[k + 1], hop_time):
                    self.ledger.charge(kind, src, dst, k, t, request_id)
                    return None
        self.ledger.charge(kind, src, dst, hops, t, request_id)
        return t + hops * self.latency

    def direct(self, src: int, dst: int, kind: MessageKind, t: float,
               request_id: Optional[int] = None) -> Optional[float]:
        """Single-hop send to another station; returns the arrival time, or
        None (charging nothing) when dst is out of range."""
        if not self.in_range(src, dst, t):
            return None
        self.ledger.charge(kind, src, dst, 1, t, request_id)
        return t + self.latency

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
        rows = self._rows(t)
        levels = kernels.bfs_tree(rows, origin, member_mask)
        if ttl is not None:
            del levels[ttl + 1:]
        # the nodes short of the ttl relay; levels[0] is the origin, so an
        # isolated one still transmits once
        units = sum(levels[:ttl]).bit_count()
        self.ledger.charge(kind, origin, BROADCAST, units, t, request_id)
        return FloodResult(rows, levels)

    def flood_depth(self, origin: int, target: int, kind: MessageKind,
                    t: float) -> Optional[int]:
        """An unbounded flood from origin at t of which the caller reads only
        target's depth: returns that depth, or None when the flood misses
        target, and charges what `flood(origin, kind, t)` charges. Hop
        distance is symmetric, so one BFS from target answers every origin in
        its component while the rows and the target stay the same; an origin
        outside that component floods on its own."""
        rows = self._rows(t)
        memo_rows, memo_target, levels, size = self._depth_memo
        if (rows is not memo_rows and rows != memo_rows) or target != memo_target:
            levels = kernels.bfs_tree(rows, target)
            size = sum(levels).bit_count()
            self._depth_memo = rows, target, levels, size
        depth = kernels.depth(levels, origin)
        if depth is None:
            self.flood(origin, kind, t)
        else:
            self.ledger.charge(kind, origin, BROADCAST, size, t)
        return depth

    def flood_path(self, flood: FloodResult, node: int) -> tuple[int, ...]:
        """Relay path origin -> node inside a flood's BFS tree."""
        depth = kernels.depth(flood.levels, node)
        if depth is None:
            raise ValueError(f"node {node} was not reached by the flood")
        return kernels.path_back(flood.rows, flood.levels[:depth + 1], node)

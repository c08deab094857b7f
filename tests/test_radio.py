"""Unit-disk links, the link timeline, unicast planning with in-flight
revalidation, the world's split seconds, floods."""

import itertools
from collections import Counter
from dataclasses import FrozenInstanceError

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adhocloc import kernels
from adhocloc.config import PROTOCOLS, ScenarioConfig
from adhocloc.engine import Engine, stream
from adhocloc.mobility import RandomWaypointModel, Trajectory
from adhocloc.protocols import (CentralizedProtocol, ForwarderProtocol, ZonedProtocol,
                                 make_protocol)
from adhocloc.protocols.base import LocalizationProtocol
from adhocloc.radio import (BROADCAST, PER_HOP_LATENCY, LedgerRow, LinkSpan,
                            MessageKind, MessageLedger, Radio)
from adhocloc.scenario import World, run_scenario
from conftest import build_ctx, scripted_model, static_model
from test_kernels import bfs_tree_frontier, mask_bits

LINE = [(0, 0), (200, 0), (400, 0), (600, 0)]


def line_radio(range_m=250.0):
    ledger = MessageLedger()
    return Radio(LinkSpan(static_model(LINE), range_m), ledger), ledger


def random_radio(rng, n, range_m=250.0):
    """A radio over n still nodes; also returns their bool adjacency matrix.
    The nodes never move, so the radio reads its exact rows once, for the
    thousands of queries a test makes at n = 70."""
    points = np.round(rng.uniform(0, [1000.0, 500.0], (n, 2)), 1)
    radio = Radio(LinkSpan(static_model(points), range_m), MessageLedger())
    rows = radio.snapshot(0.0)
    radio.snapshot = lambda t: rows
    return radio, kernels.adjacency(radio.model.positions(0.0), range_m)


def flood_on_matrix(adj, origin, ttl, member):
    """Depths, parents, units and reached of a flood on a masked bool matrix."""
    if member is not None:
        m = member.copy()
        m[origin] = True
        adj = adj & m[None, :] & m[:, None]
    depths, parents = bfs_tree_frontier(adj, origin)
    if ttl is not None:
        cut = depths > ttl
        depths[cut] = -1
        parents[cut] = -1
    reached = tuple(int(v) for v in np.nonzero(depths >= 0)[0])
    if ttl is None:
        units = len(reached)
    else:
        units = max(int(((depths >= 0) & (depths < ttl)).sum()), 1)
    return depths, parents, units, reached


class TestLinks:
    def test_range_is_inclusive_at_the_boundary(self):
        model = static_model([(0, 0), (250.0, 0), (500.0, 0), (750.0000001, 0)])
        r = Radio(LinkSpan(model, 250.0), MessageLedger())
        assert r.in_range(0, 1, 0.0)       # exactly at range
        assert r.in_range(1, 2, 0.0)
        assert not r.in_range(2, 3, 0.0)   # a hair past it
        assert not r.in_range(0, 2, 0.0)

    def test_neighbors_are_sorted_ids(self):
        radio, _ = line_radio()
        assert radio.neighbors(1, 0.0) == [0, 2]
        assert radio.neighbors(0, 0.0) == [1]

    def test_connected_and_diameter_on_the_line(self):
        radio, _ = line_radio()
        assert radio.connected(0.0)
        assert radio.diameter(0.0) == 3

    def test_disconnected_network_is_reported(self):
        model = static_model([(0, 0), (900, 400)])
        radio = Radio(LinkSpan(model, 250.0), MessageLedger())
        assert not radio.connected(0.0)
        assert radio.diameter(0.0) == 0

    def test_neighbor_queries_equal_the_matrix(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 25, 70):
            radio, adj = random_radio(rng, n)
            for a in range(n):
                assert radio.neighbors(a, 0.0) == np.nonzero(adj[a])[0].tolist()
                for b in range(n):
                    assert radio.in_range(a, b, 0.0) == adj[a, b]

    def test_route_is_shortest_and_uncharged(self):
        radio, ledger = line_radio()
        assert radio.route(0, 3, 0.0) == (0, 1, 2, 3)
        assert radio.route(3, 0, 0.0) == (3, 2, 1, 0)
        assert ledger.recount() == 0


class TestUnicast:
    def test_self_send_is_free_and_instant(self):
        radio, ledger = line_radio()
        assert radio.unicast(2, 2, MessageKind.DATA, 1.0) == 1.0
        assert list(ledger.rows)[-1].units == 0
        assert radio.route(2, 2, 1.0) == (2,)
        # an arrival at t = 0 is a delivery, though 0.0 is a false value
        assert radio.unicast(2, 2, MessageKind.DATA, 0.0) == 0.0
        assert ledger.recount() == 0
        proto = LocalizationProtocol(build_ctx(static_model(LINE)))
        ran = []
        assert proto._send(2, 2, MessageKind.DATA,
                           lambda: ran.append(proto.engine.now)) is True
        proto.engine.run_until(0.0)
        assert ran == [0.0]

    def test_multi_hop_delivery_charges_one_unit_per_hop(self):
        radio, ledger = line_radio()
        arrival = radio.unicast(0, 3, MessageKind.DATA, 2.0, request_id=9)
        assert arrival == pytest.approx(2.03)
        assert list(ledger.rows)[-1].units == 3
        assert radio.route(0, 3, 2.0) == (0, 1, 2, 3)
        assert ledger.units_for_request(9) == 3

    def test_unreachable_destination_returns_none_uncharged(self):
        model = static_model([(0, 0), (900, 400)])
        radio = Radio(LinkSpan(model, 250.0), MessageLedger())
        assert radio.unicast(0, 1, MessageKind.DATA, 0.0) is None
        assert radio.ledger.recount() == 0

    def test_midpath_break_charges_the_hops_completed(self):
        # node 2 sits on the planned 0-1-2-3 route but has left its slot by
        # the time the message tries to cross the 2-3 link; the two hops
        # completed are charged, the failed one is not. On a built radio
        # the send falls in the first window, which closes before the last
        # hop leaves, so the hops past its close are checked at their own
        # instants
        runner = Trajectory([0.0, 0.012, 0.020, 1.0], [400.0, 400.0, 5000.0, 5000.0],
                            [0.0, 0.0, 0.0, 0.0])
        trajs = [Trajectory([0.0], [0.0], [0.0]),
                 Trajectory([0.0], [200.0], [0.0]),
                 runner,
                 Trajectory([0.0], [600.0], [0.0])]
        model = RandomWaypointModel.from_trajectories(trajs)
        t = 0.001
        for built in (False, True):
            radio = Radio(LinkSpan(model, 250.0), MessageLedger())
            if built:
                radio.build()
                assert radio._windowed(t) is not None
                assert t < radio.until <= t + 2 * PER_HOP_LATENCY
            assert radio.unicast(0, 3, MessageKind.DATA, t, request_id=5) is None
            assert radio.ledger.units_for_request(5) == 2

    def test_the_second_hop_is_checked_at_its_own_send_instant(self):
        # on the 0-1-2 line, node 2 is in range of node 1 at the send time
        # but gone when the second hop leaves, one latency later: the first
        # hop is charged and the message is lost
        runner = Trajectory([0.0, 0.005, 0.010], [400.0, 400.0, 5000.0], [0.0, 0.0, 0.0])
        trajs = [Trajectory([0.0], [0.0], [0.0]),
                 Trajectory([0.0], [200.0], [0.0]),
                 runner]
        ledger = MessageLedger()
        radio = Radio(LinkSpan(RandomWaypointModel.from_trajectories(trajs), 250.0), ledger)
        assert radio.route(0, 2, 0.0) == (0, 1, 2)
        assert radio.unicast(0, 2, MessageKind.DATA, 0.0, request_id=4) is None
        assert ledger.units_for_request(4) == 1

    def test_break_charge_is_visible_in_the_raw_log(self):
        runner = Trajectory([0.0, 0.012, 0.020], [400.0, 400.0, 5000.0], [0.0, 0.0, 0.0])
        trajs = [Trajectory([0.0], [0.0], [0.0]),
                 Trajectory([0.0], [200.0], [0.0]),
                 runner,
                 Trajectory([0.0], [600.0], [0.0])]
        model = RandomWaypointModel.from_trajectories(trajs)
        ledger = MessageLedger()
        Radio(LinkSpan(model, 250.0), ledger).unicast(0, 3, MessageKind.DATA, 0.0)
        (row,) = ledger.rows
        assert row.kind is MessageKind.DATA
        assert (row.src, row.dst, row.units) == (0, 3, 2)


def test_bad_arguments_are_refused():
    model = static_model(LINE)
    with pytest.raises(ValueError, match="range"):
        LinkSpan(model, 0.0)
    radio, _ = line_radio()
    with pytest.raises(ValueError, match="ttl"):
        radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.0, ttl=0)


@pytest.mark.parametrize("name", PROTOCOLS)
def test_the_configured_protocol_is_built(name):
    # an unknown name never reaches make_protocol: ScenarioConfig refuses it
    protocol = make_protocol(build_ctx(static_model(LINE), protocol=name))
    assert type(protocol) is {"forwarder_proactive": ForwarderProtocol,
                              "forwarder_reactive": ForwarderProtocol,
                              "centralized": CentralizedProtocol,
                              "zoned": ZonedProtocol}[name]
    assert getattr(protocol, "proactive", False) == (name == "forwarder_proactive")


class TestDirect:
    def test_one_hop_within_range(self):
        radio, ledger = line_radio()
        assert radio.direct(1, 2, MessageKind.CHAIN_CHECK, 0.5) == pytest.approx(0.51)
        assert list(ledger.rows)[-1].units == 1
        assert ledger.recount() == 1

    def test_out_of_range_is_silent_and_free(self):
        radio, ledger = line_radio()
        assert radio.direct(0, 2, MessageKind.CHAIN_CHECK, 0.0) is None
        assert ledger.recount() == 0


class TestFlood:
    def test_unlimited_flood_reaches_all_and_counts_transmitters(self):
        radio, ledger = line_radio()
        levels = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.0)
        assert levels == [0b0001, 0b0010, 0b0100, 0b1000]
        assert list(ledger.rows)[-1].units == 4

    def test_ttl_limits_depth_and_frontier_nodes_do_not_relay(self):
        radio, ledger = line_radio()
        f1 = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.0, ttl=1)
        assert f1 == [0b0001, 0b0010] and list(ledger.rows)[-1].units == 1
        f2 = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.1, ttl=2)
        assert f2 == [0b0001, 0b0010, 0b0100] and list(ledger.rows)[-1].units == 2

    @pytest.mark.parametrize("ttl", [None, 1, 3])
    def test_isolated_origin_still_pays_its_own_broadcast(self, ttl):
        model = static_model([(0, 0), (900, 400)])
        radio = Radio(LinkSpan(model, 250.0), MessageLedger())
        levels = radio.flood(0, MessageKind.SERVER_UPDATE, 0.0, ttl=ttl)
        assert levels == [0b01]
        assert list(radio.ledger.rows)[-1].units == 1

    def test_member_mask_blocks_excluded_relays(self):
        radio, _ = line_radio()
        levels = radio.flood(0, MessageKind.SERVER_UPDATE, 0.0, member_mask=0b1101)
        assert levels == [0b0001]

    def test_origin_is_always_a_member_of_its_own_flood(self):
        radio, _ = line_radio()
        levels = radio.flood(0, MessageKind.SERVER_UPDATE, 0.0, member_mask=0b1110)
        assert levels == [0b0001, 0b0010, 0b0100, 0b1000]

    @pytest.mark.parametrize("ttl", [None, 1, 2, 4])
    def test_masked_flood_equals_the_masked_matrix(self, ttl):
        rng = np.random.default_rng(12)
        for n in (2, 25, 70):
            radio, adj = random_radio(rng, n, range_m=300.0)
            for with_mask in (False, True):
                member = rng.uniform(size=n) < 0.6 if with_mask else None
                bits = mask_bits(member) if with_mask else -1
                for origin in range(n):
                    levels = radio.flood(origin, MessageKind.SERVER_UPDATE, 0.0,
                                         ttl=ttl, member_mask=bits)
                    depths, parents, units, reached = flood_on_matrix(
                        adj, origin, ttl, member)
                    hops = [kernels.depth(levels, v) for v in range(n)]
                    assert hops == [depths[v] if v in reached else None
                                    for v in range(n)]
                    for v in reached:
                        if v != origin:
                            assert radio.flood_path(levels, v, 0.0)[-2] == parents[v]
                    assert list(radio.ledger.rows)[-1].units == units

    def test_flood_is_charged_as_a_broadcast_row(self):
        radio, ledger = line_radio()
        radio.flood(1, MessageKind.SERVER_UPDATE, 0.0, request_id=4)
        (row,) = ledger.rows
        assert row.dst == BROADCAST
        assert row.units == 4
        assert ledger.units_for_request(4) == 4

    def test_flood_path_follows_canonical_parents(self):
        radio, _ = line_radio()
        levels = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.0)
        assert radio.flood_path(levels, 3, 0.0) == (0, 1, 2, 3)
        assert radio.flood_path(levels, 0, 0.0) == (0,)

    def test_flood_path_reads_the_rows_of_the_floods_instant(self):
        # node 3 sinks out of node 1's range at t = 5 and stays in node 2's,
        # so the flood at t = 2 and one at t = 8 have the same levels, and
        # the lowest-id parent of node 3 goes from node 1 to node 2
        model = scripted_model([[(0.0, 0.0, 0.0)], [(0.0, 150.0, 100.0)],
                                [(0.0, 150.0, -100.0)],
                                [(0.0, 300.0, 0.0), (10.0, 300.0, -200.0)]])
        radio = built_radio(model)
        levels = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 2.0)
        epoch = radio.epoch
        # a later query in another epoch moves the cursor
        assert radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 8.0) == levels
        assert radio.epoch != epoch
        path = kernels.path_back(exact_rows(model, 250.0, 2.0), levels, 3)
        assert radio.flood_path(levels, 3, 2.0) == path == (0, 1, 3)
        assert radio.flood_path(levels, 3, 8.0) == (0, 2, 3)

    def test_flood_path_to_unreached_node_raises(self):
        model = static_model([(0, 0), (900, 400)])
        radio = Radio(LinkSpan(model, 250.0), MessageLedger())
        levels = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.0)
        with pytest.raises(ValueError):
            radio.flood_path(levels, 1, 0.0)


def count_trees(monkeypatch):
    """The source of every whole-tree `kernels.bfs_tree` walk from now on, in
    order; walks that stop early (routes) are not counted."""
    trees = []
    bfs_tree = kernels.bfs_tree

    def counted(rows, src, mask=-1, stop=0):
        if not stop:
            trees.append(src)
        return bfs_tree(rows, src, mask, stop)

    monkeypatch.setattr(kernels, "bfs_tree", counted)
    return trees


class TestFloodDepth:
    #: two components, {0, 1, 2, 3} on a line and {4, 5}
    SPLIT = LINE + [(900, 400), (1000, 400)]

    def test_depths_and_charges_equal_the_floods(self, monkeypatch):
        kind = MessageKind.POSITION_REPORT
        # one rows object throughout, with the target changing twice
        queries = [(origin, target) for target in (2, 2, 4, 0)
                   for origin in range(len(self.SPLIT))]
        ref = Radio(LinkSpan(static_model(self.SPLIT), 250.0), MessageLedger())
        expected = []
        for origin, target in queries:
            expected.append(kernels.depth(ref.flood(origin, kind, 0.0), target))
        radio = Radio(LinkSpan(static_model(self.SPLIT), 250.0), MessageLedger())
        trees = count_trees(monkeypatch)
        depths = [radio.flood_depth(origin, target, kind, 0.0)
                  for origin, target in queries]
        assert depths == expected
        assert all(type(d) is int for d in depths if d is not None)
        assert list(radio.ledger.rows) == list(ref.ledger.rows)
        # one tree per target change, plus the floods of the origins outside
        # the target's component
        assert trees == [2, 4, 5, 4, 5, 4, 0, 1, 2, 3, 0, 4, 5]

    def test_a_new_topology_gets_a_new_tree(self):
        # node 3 leaves the line between t = 0 and t = 10
        knots = [[(0.0, x, y)] for x, y in LINE[:3]] + [[(0.0, 600, 0), (10.0, 600, 400)]]
        radio = Radio(LinkSpan(scripted_model(knots), 250.0), MessageLedger())
        ref = Radio(LinkSpan(scripted_model(knots), 250.0), MessageLedger())
        kind = MessageKind.POSITION_REPORT
        for t in (0.0, 10.0, 0.0):
            for origin in range(4):
                levels = ref.flood(origin, kind, t)
                assert radio.flood_depth(origin, 0, kind, t) == kernels.depth(levels, 0)
        assert list(radio.ledger.rows) == list(ref.ledger.rows)


class TestDiameter:
    @settings(max_examples=150, deadline=None)
    @given(points=st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 500)),
                           min_size=1, max_size=30),
           range_m=st.floats(1.0, 1200.0))
    @example(points=[(0, 0)], range_m=250.0)                       # one node
    @example(points=[(0, 0), (500, 0), (1000, 0)], range_m=250.0)  # no edges
    @example(points=LINE, range_m=250.0)                           # connected
    @example(points=LINE + [(900, 400), (1000, 400)], range_m=250.0)
    def test_equals_the_largest_component_diameter(self, points, range_m):
        radio = Radio(LinkSpan(static_model(points), range_m), MessageLedger())
        graph = nx.from_numpy_array(kernels.adjacency(radio.model.positions(0.0),
                                                      range_m))
        assert radio.diameter(0.0) == max(
            nx.diameter(graph.subgraph(part))
            for part in nx.connected_components(graph))
        assert radio.connected(0.0) == nx.is_connected(graph)

    def test_walks_fewer_trees_than_nodes(self, monkeypatch):
        radio, adj = random_radio(np.random.default_rng(5), 25)
        assert nx.is_connected(nx.from_numpy_array(adj))
        trees = count_trees(monkeypatch)
        assert radio.diameter(0.0) == nx.diameter(nx.from_numpy_array(adj))
        assert 0 < len(trees) < 25


class TestBfsWork:
    """BFS calls are deterministic, so a lost shortcut shows as a count."""

    @staticmethod
    def counted_run(protocol, monkeypatch):
        trees = count_trees(monkeypatch)
        result = run_scenario(ScenarioConfig(protocol=protocol, lam=1.0, seed=3,
                                             duration=60.0))
        return len(trees), result.ledger.rows

    def test_centralized_reports_share_one_tree_per_topology(self, monkeypatch):
        calls, rows = self.counted_run("centralized", monkeypatch)
        reports = sum(row.kind is MessageKind.POSITION_REPORT for row in rows)
        assert calls < reports / 2

    def test_zoned_routes_build_no_tree(self, monkeypatch):
        calls, rows = self.counted_run("zoned", monkeypatch)
        assert calls < len(rows) / 10


class RowLedger:
    """The ledger as a list of rows beside running counters, as it was kept
    before the columns: the reference the column ledger must equal."""

    def __init__(self):
        self.total_units = 0
        self.by_kind: Counter = Counter()
        self.by_request: Counter = Counter()
        self.rows: list[LedgerRow] = []

    def charge(self, kind, src, dst, units, t, request_id=None):
        if units < 0:
            raise ValueError("cannot charge negative units")
        self.total_units += units
        self.by_kind[kind.value] += units
        self.by_request[request_id] += units
        self.rows.append(LedgerRow(request_id, kind, src, dst, units, t))

    def recount(self):
        return sum(row.units for row in self.rows)

    def units_for_request(self, request_id):
        return self.by_request[request_id]


CHARGES = st.tuples(
    st.sampled_from(list(MessageKind)), st.integers(0, 30),
    st.one_of(st.just(BROADCAST), st.integers(0, 30)), st.integers(0, 20),
    st.floats(0.0, 1e4), st.one_of(st.none(), st.integers(0, 6)))


def assert_same_ledger(ledger, ref, request_ids):
    rows = ledger.rows
    assert list(rows) == ref.rows and len(rows) == len(ref.rows)
    # Counter equality forgives a key whose count is 0; the items do not
    assert list(ledger.by_kind.items()) == list(ref.by_kind.items())
    for request_id in [*request_ids, None, 99]:
        assert ledger.units_for_request(request_id) == ref.units_for_request(request_id)
    assert ledger.recount() == ref.recount()
    assert ledger.total_units == ref.total_units


class TestLedger:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(CHARGES, st.just("read")), max_size=40))
    def test_columns_equal_a_row_ledger(self, steps):
        # `stepwise` is read after every step, `sparse` only at a read, so
        # units_for_request folds in both one row and many rows at a time
        stepwise, sparse, ref = MessageLedger(), MessageLedger(), RowLedger()
        request_ids = set()
        for step in steps:
            if step == "read":
                assert_same_ledger(sparse, ref, request_ids)
            else:
                for ledger in (stepwise, sparse, ref):
                    ledger.charge(*step)
                if step[-1] is not None:
                    request_ids.add(step[-1])
            assert_same_ledger(stepwise, ref, request_ids)
        assert_same_ledger(sparse, ref, request_ids)

    def test_rows_are_read_only(self):
        ledger = MessageLedger()
        rows = ledger.rows
        ledger.charge(MessageKind.DATA, 0, 1, 3, 0.5)
        (row,) = rows           # a charge made after the view was taken shows
        with pytest.raises(FrozenInstanceError):
            row.units = 4
        assert [row.units for row in ledger.rows] == [3]

    def test_recount_sums_the_raw_rows(self):
        ledger = MessageLedger()
        ledger.charge(MessageKind.DATA, 0, 1, 3, 0.0)
        ledger.charge(MessageKind.SERVER_QUERY, 1, 2, 2, 0.1, request_id=1)
        assert ledger.total_units == 5
        assert ledger.recount() == 5
        assert ledger.units_for_request(1) == 2

    def test_by_kind_groups_units(self):
        ledger = MessageLedger()
        ledger.charge(MessageKind.DATA, 0, 1, 3, 0.0)
        ledger.charge(MessageKind.DATA, 1, 2, 1, 0.1)
        ledger.charge(MessageKind.CHAIN_CHECK, 0, 1, 2, 0.2)
        assert ledger.by_kind["Data"] == 4
        assert ledger.by_kind["ChainCheck"] == 2

    def test_negative_units_are_rejected(self):
        ledger = MessageLedger()
        ledger.charge(MessageKind.DATA, 0, 1, 3, 0.5, request_id=2)
        before = [list(column) for column in ledger._columns]
        with pytest.raises(ValueError):
            ledger.charge(MessageKind.DATA, 0, 1, -1, 0.6, request_id=2)
        # a refused charge leaves nothing behind in any column
        assert [list(column) for column in ledger._columns] == before
        assert len(ledger.rows) == 1 and ledger.total_units == 3
        assert ledger.recount() == 3 and ledger.units_for_request(2) == 3


def test_moving_node_changes_its_neighbourhood():
    model = scripted_model([
        [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)],
        [(0.0, 200.0, 0.0), (10.0, 800.0, 0.0)],
    ])
    radio = Radio(LinkSpan(model, 250.0), MessageLedger())
    assert radio.in_range(0, 1, 0.0)
    assert not radio.in_range(0, 1, 10.0)


def exact_rows(model, range_m, t):
    """The exact path's rows: interpolate every node, test every pair."""
    return kernels.neighbour_bits(kernels.adjacency(model.positions(t), range_m))


def built_radio(model, range_m=250.0):
    """A radio whose windows are solved up to the horizon."""
    radio = Radio(LinkSpan(model, range_m), MessageLedger())
    radio.build()
    return radio


def around(times):
    """Each time and its neighbouring floats on either side."""
    times = np.asarray(list(times), dtype=np.float64)
    return np.concatenate([times, np.nextafter(times, -np.inf),
                           np.nextafter(times, np.inf)])


def window_ends(radio):
    """Where the radio's windows open and close: its crossings and guard
    ends, and none before the build."""
    return [*radio.opens, *radio.closes]


def assert_rows_are_exact(radio, times):
    """Windowed answers equal the exact rows at every time; returns how many
    a window answered."""
    answered = 0
    for t in times:
        t = float(t)
        if t < 0:
            continue
        exact = exact_rows(radio.model, radio.range_m, t)
        rows = radio._windowed(t)
        if rows is not None:
            answered += 1
            assert rows == exact, t
        assert radio._rows(t) == exact, t
    return answered


#: knot gaps in seconds; 0 stacks two knots at one time, where a node jumps
GAPS = st.sampled_from([0.0, 0.5, 7.0, 12.5, 30.0, 45.25, 120.0])
#: coordinates on a 12.5 m grid, so pairs sit exactly at range (250 m) often
COORD = st.integers(0, 40).map(lambda k: 12.5 * k)


@st.composite
def knot_lists(draw):
    nodes = []
    for _ in range(draw(st.integers(2, 6))):
        k = draw(st.integers(1, 6))               # single-knot nodes rest
        t = draw(st.sampled_from([0.0, 0.0, 3.0]))
        knots = []
        for gap in [0.0] + draw(st.lists(GAPS, min_size=k - 1, max_size=k - 1)):
            t += gap
            knots.append((t, draw(COORD), draw(COORD)))
        nodes.append(knots)
    return nodes


class TestLinkTimeline:
    @settings(max_examples=120, deadline=None)
    @given(nodes=knot_lists(), extra=st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_rows_equal_the_exact_rows(self, nodes, extra):
        model = scripted_model(nodes)
        radio = built_radio(model)
        knots = [t for knots in nodes for t, _, _ in knots]
        past = [model.horizon, model.horizon + 1.0]
        extra = [f * model.horizon for f in extra]
        assert_rows_are_exact(radio, around(knots + window_ends(radio) + past
                                            + extra))

    @settings(max_examples=120, deadline=None)
    @given(nodes=knot_lists(), data=st.data())
    def test_a_long_lived_timeline_answers_like_a_fresh_one(self, nodes, data):
        # whatever a timeline keeps from earlier queries changes no answer:
        # queries in any order, at window ends and the domain's edges, get
        # what a timeline built for that one query returns
        radio = built_radio(scripted_model(nodes))
        horizon = radio.model.horizon
        marks = [0.0, horizon, horizon + 1.0, *window_ends(radio)]
        fractions = data.draw(st.lists(st.floats(0.0, 1.0), max_size=10))
        pool = around(marks).tolist() + [f * horizon for f in fractions]
        queries = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
        handed_out = []
        for t in queries + sorted(queries) + sorted(queries, reverse=True):
            fresh = Radio(radio.span, MessageLedger())
            if horizon:
                fresh.build()
            rows, expected = radio._windowed(t), fresh._windowed(t)
            assert (rows is None) == (expected is None), t
            if rows is not None:
                assert rows == expected, t
                handed_out.append((rows, list(rows)))
        # a rows list, once handed out, is never edited
        assert all(rows == copy for rows, copy in handed_out)

    @settings(max_examples=120, deadline=None)
    @given(nodes=knot_lists(), fractions=st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_the_windows_are_the_complement_of_the_guards(self, nodes, fractions):
        model = scripted_model(nodes)
        assume(model.horizon > 0)
        solve, solved = kernels.range_crossings, []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "range_crossings",
                          lambda *args: solved.append(solve(*args)) or solved[-1])
            opens, closes = LinkSpan(model, 250.0).solved[:2]
        [(_, (times, _, _), (lows, highs))] = solved
        opens, closes, horizon = np.array(opens), np.array(closes), model.horizon
        # sorted, disjoint and inside (0, horizon)
        assert np.all(opens < closes)
        assert np.all(closes[:-1] <= opens[1:])
        assert opens.size == 0 or (opens[0] >= 0.0 and closes[-1] <= horizon)
        # no crossing instant and no guard point inside a window
        for o, c in zip(opens, closes):
            assert not np.any((o < times) & (times < c))
            assert not np.any((lows < c) & (o < highs))
        # every other instant of (0, horizon) lies in a window: probe each
        # gap between consecutive guard ends and crossings, and next to them
        marks = np.unique(np.concatenate((times, lows, highs, [0.0, horizon])))
        probes = np.concatenate((around(marks), (marks[:-1] + marks[1:]) / 2,
                                 np.array(fractions) * horizon))
        guarded = ((lows <= probes[:, None]) & (probes[:, None] <= highs)).any(axis=1)
        quiet = ((0.0 < probes) & (probes < horizon) & ~guarded
                 & ~np.isin(probes, times))
        inside = ((opens < probes[:, None]) & (probes[:, None] < closes)).any(axis=1)
        assert np.array_equal(inside, quiet)

    def test_a_rebuild_forgets_the_window(self):
        # node 1 leaves node 0's range at t = 3; t = 8 lies in a quiet epoch
        radio = built_radio(scripted_model([[(0.0, 0.0, 0.0)],
                                            [(0.0, 100.0, 0.0), (10.0, 600.0, 0.0)]]))
        moved = radio._windowed(8.0)
        radio.build()
        assert radio._windowed(8.0) == moved == exact_rows(radio.model, 250.0, 8.0)

    @pytest.mark.parametrize("nodes", [
        # closest approach exactly at range, and a hair inside and outside it
        *([[(0.0, 0.0, 0.0)], [(0.0, -300.0, y), (60.0, 300.0, y)]]
          for y in (250.0, 250.0 - 1e-9, 250.0 + 1e-9)),
        # two nodes moving in parallel exactly at range
        [[(0.0, 0.0, 0.0), (60.0, 600.0, 0.0)], [(0.0, 0.0, 250.0), (60.0, 600.0, 250.0)]],
        # a jump across the range, one knot time stamped twice
        [[(0.0, 0.0, 0.0)], [(0.0, 100.0, 0.0), (20.0, 100.0, 0.0),
                             (20.0, 400.0, 0.0), (70.0, 0.0, 0.0)]],
        # a turn back exactly at range, so a segment starts with d² − r² = 0
        # and rising, and the pair's next segment starts out of range
        [[(0.0, 0.0, 0.0)], [(0.0, 300.0, 0.0), (10.0, 250.0, 0.0),
                             (20.0, 300.0, 0.0), (30.0, 400.0, 0.0)]],
    ])
    def test_edge_cases_equal_the_exact_rows(self, nodes):
        radio = built_radio(scripted_model(nodes))
        times = np.linspace(0.0, 80.0, 801).tolist() + [30.0, 50.0, 20.0]
        assert_rows_are_exact(radio, around(times + window_ends(radio)))

    @pytest.mark.parametrize("model, windows", [
        # every node has one knot, so the horizon is 0 and holds no window
        (static_model([(0.0, 0.0), (200.0, 0.0), (500.0, 0.0)]), 0),
        # one node and so no pair: the whole span is one window
        (scripted_model([[(0.0, 0.0, 0.0), (10.0, 500.0, 0.0)]]), 1),
    ])
    def test_a_span_without_pairs_or_time_keeps_its_start_rows(self, model, windows):
        radio = built_radio(model)
        *_, a, b, start = radio.span.solved
        assert len(a) == len(b) == 0
        assert start == exact_rows(model, 250.0, 0.0)
        assert len(radio.opens) == windows
        assert_rows_are_exact(radio, around([0.0, 5.0, model.horizon, model.horizon + 1.0]))

    def test_waypoint_runs_past_the_horizon_stay_exact(self, monkeypatch):
        # blocks of a few segments, an odd count so that a pair's segments
        # straddle block edges and the check for a flip between two of them
        # crosses one
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_INTERVALS", 7)
        model = RandomWaypointModel(25, 1000.0, 500.0, 8.0, 15.0,
                                    lambda node: stream(4, "mobility", node),
                                    horizon=60.0)
        radio = Radio(LinkSpan(model, 250.0), MessageLedger())
        radio.build()
        rng = np.random.default_rng(4)
        # the span is solved to the horizon; past it the exact path answers
        # and the model draws no further legs
        early = assert_rows_are_exact(radio, rng.uniform(0.0, 60.0, 400))
        assert_rows_are_exact(radio, rng.uniform(60.0, 130.0, 200))
        assert_rows_are_exact(radio, rng.uniform(0.0, 130.0, 400))
        assert early > 300
        assert radio.closes[-1] <= model.horizon == 60.0
        assert all(radio._windowed(t) is None
                   for t in [60.0, *rng.uniform(60.0, 130.0, 50)])

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_runs_equal_the_exact_path_runs(self, protocol, monkeypatch):
        for node_mob in ("medium", "high"):
            cfg = ScenarioConfig(protocol=protocol, node_mob=node_mob, lam=1.0,
                                 duration=60.0, seed=4)
            timed = run_scenario(cfg)
            assert (timed.radio.closes[-1] <= timed.model.horizon
                    == cfg.duration + 2 * cfg.n_nodes * PER_HOP_LATENCY)
            with monkeypatch.context() as patch:
                patch.setattr(Radio, "_windowed", lambda self, t: None)
                patch.setattr(Radio, "build", lambda self: None)
                exact = run_scenario(cfg)
            assert len(exact.radio.opens) == 0
            assert list(timed.ledger.rows) == list(exact.ledger.rows)
            assert timed.records == exact.records

    def test_no_window_is_built_before_the_event_loop(self, monkeypatch):
        class Started(Exception):
            pass

        def run_until(engine, t_end):
            raise Started

        built = []
        monkeypatch.setattr(Engine, "run_until", run_until)
        monkeypatch.setattr(Radio, "build", lambda self: built.append(self))
        for protocol in PROTOCOLS:
            for n_zones in (2, 25):
                with pytest.raises(Started):
                    run_scenario(ScenarioConfig(protocol=protocol, n_zones=n_zones,
                                                lam=4.0, seed=2))
        assert built == []

    def test_a_run_builds_the_timeline_once(self, monkeypatch):
        builds = []
        build = Radio.build

        def counted(radio):
            builds.append(radio)
            build(radio)

        monkeypatch.setattr(Radio, "build", counted)
        for protocol in PROTOCOLS:
            builds.clear()
            run_scenario(ScenarioConfig(protocol=protocol, duration=200.0, seed=4))
            assert len(builds) == 1, protocol


class TestTimelineShortcuts:
    """What the radio answers from the span without walking a path."""

    @settings(max_examples=120, deadline=None)
    @given(nodes=knot_lists(), data=st.data())
    def test_unicast_on_a_built_timeline_equals_the_exact_path(self, nodes, data):
        model = scripted_model(nodes)
        assume(model.horizon > 0)
        radio = built_radio(model)
        exact = Radio(LinkSpan(model, 250.0), MessageLedger())
        # sends a few half-latencies before a window closes, so the last hop
        # of a path leaves after it, and sends anywhere in the horizon
        closes = np.array(radio.closes)
        late = (closes[:, None] - np.arange(1, 8) * PER_HOP_LATENCY / 2).ravel()
        fractions = data.draw(st.lists(st.floats(0.0, 1.0), max_size=10))
        anywhere = [*around(window_ends(radio)), *(np.array(fractions) * model.horizon)]
        pools = [[float(t) for t in pool if t >= 0] for pool in (late, anywhere)]
        assume(all(pools))
        instants = data.draw(st.lists(st.one_of(*map(st.sampled_from, pools)),
                                      min_size=1, max_size=12))
        n = model.n_nodes
        for request_id, t in enumerate(instants):
            # every pair, sends to self included
            for src, dst in itertools.product(range(n), repeat=2):
                assert (radio.unicast(src, dst, MessageKind.DATA, t, request_id)
                        == exact.unicast(src, dst, MessageKind.DATA, t, request_id))
        assert list(radio.ledger.rows) == list(exact.ledger.rows)

    def test_only_the_hops_past_the_window_are_checked(self, monkeypatch):
        # a still 0-1-2-3-4 line, and node 5 that comes into node 4's range
        # at about t = 5.5: the send's window closes between the second and
        # the last hop leaving, so hops 1 and 2 leave inside it and only hop
        # 3 is checked
        knots = [[(0.0, x, 0.0)] for x in range(0, 1000, 200)]
        radio = built_radio(scripted_model(knots + [[(0.0, 1000.0, 400.0),
                                                      (10.0, 800.0, 100.0)]]))
        assert radio._windowed(1.0) is not None
        until = radio.until
        t = until - 2.5 * PER_HOP_LATENCY
        assert radio._windowed(t) is not None and radio.until == until
        checked, in_range = [], Radio.in_range

        def wrapped(radio, a, b, at):
            checked.append(at)
            return in_range(radio, a, b, at)

        monkeypatch.setattr(Radio, "in_range", wrapped)
        assert radio.unicast(0, 4, MessageKind.DATA, t) == t + 4 * PER_HOP_LATENCY
        assert list(radio.ledger.rows)[-1].units == 4
        assert checked == [t + 3 * PER_HOP_LATENCY]
        assert all(at >= until for at in checked)

    def test_connected_equals_an_unbuilt_radio_in_and_out_of_windows(self):
        # node 1 leaves node 0's range at t = 5: epoch 0 is connected, 1 not
        model = scripted_model([[(0.0, 0.0, 0.0)],
                                [(0.0, 100.0, 0.0), (10.0, 600.0, 0.0)]])
        radio = Radio(LinkSpan(model, 250.0), MessageLedger())
        exact = Radio(LinkSpan(model, 250.0), MessageLedger())
        assert radio.connected(1.0)                 # before the build
        radio.build()
        exact_instants = [radio.closes[0], model.horizon, model.horizon + 1.0]
        for t in exact_instants:
            assert radio._windowed(t) is None
            assert radio.connected(t) == exact.connected(t)
        for t, joined in ((1.0, True), (8.0, False)):
            assert radio._windowed(t) is not None
            assert radio.connected(t) == exact.connected(t) == joined

    def test_a_second_run_of_a_world_reads_no_second_the_first_checked(
            self, monkeypatch):
        asked = []
        connected = Radio.connected

        def counted_connected(radio, t):
            asked.append(t)
            return connected(radio, t)

        monkeypatch.setattr(Radio, "connected", counted_connected)
        cfg = ScenarioConfig(protocol="zoned", lam=1.0, seed=4, duration=60.0)
        other = ScenarioConfig(protocol="centralized", lam=0.25, seed=4, duration=60.0)
        world = World(cfg)
        run_scenario(cfg, world)
        # the watchdog checks once a second, and some of its seconds take
        # the exact path
        checks = [float(t) for t in range(1, 61)]
        assert asked == checks
        fresh = Radio(world.span, MessageLedger())
        fresh.build()
        assert any(fresh._windowed(t) is None for t in checks)
        split = {t: not connected(fresh, t) for t in checks}
        assert world.split == split
        asked.clear()
        second = run_scenario(other, world)
        assert asked == [] and world.split == split
        # the second run equals a fresh world's
        alone = run_scenario(other)
        assert list(second.ledger.rows) == list(alone.ledger.rows)
        assert second.records == alone.records

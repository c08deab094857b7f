"""Unit-disk links, unicast planning with in-flight revalidation, floods."""

import numpy as np
import pytest

from adhocloc import kernels
from adhocloc.mobility import RandomWaypointModel, Trajectory
from adhocloc.radio import BROADCAST, MessageKind, MessageLedger, Radio
from conftest import scripted_model, static_model
from test_kernels import bfs_tree_frontier, mask_bits

LINE = [(0, 0), (200, 0), (400, 0), (600, 0)]


def line_radio(latency=0.01, range_m=250.0):
    ledger = MessageLedger()
    return Radio(static_model(LINE), range_m, latency, ledger), ledger


def random_radio(rng, n, range_m=250.0):
    """A radio over n still nodes; also returns their bool adjacency matrix."""
    points = np.round(rng.uniform(0, [1000.0, 500.0], (n, 2)), 1)
    radio = Radio(static_model(points), range_m, 0.01, MessageLedger())
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
        r = Radio(model, 250.0, 0.01, MessageLedger())
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
        radio = Radio(model, 250.0, 0.01, MessageLedger())
        assert not radio.connected(0.0)

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
        out = radio.unicast(2, 2, MessageKind.DATA, 1.0)
        assert out.hops == 0
        assert out.arrival == 1.0
        assert out.path == (2,)
        assert ledger.recount() == 0

    def test_multi_hop_delivery_charges_one_unit_per_hop(self):
        radio, ledger = line_radio()
        out = radio.unicast(0, 3, MessageKind.DATA, 2.0, request_id=9)
        assert out.hops == 3
        assert out.path == (0, 1, 2, 3)
        assert out.arrival == pytest.approx(2.03)
        assert ledger.units_for_request(9) == 3

    def test_unreachable_destination_returns_none_uncharged(self):
        model = static_model([(0, 0), (900, 400)])
        radio = Radio(model, 250.0, 0.01, MessageLedger())
        assert radio.unicast(0, 1, MessageKind.DATA, 0.0) is None
        assert radio.ledger.recount() == 0

    def test_midpath_break_charges_the_hops_attempted(self):
        # node 2 sits on the planned 0-1-2-3 route but has left its slot by
        # the time the message tries to cross the 1-2 link
        runner = Trajectory()
        runner.append(0.0, 400.0, 0.0)
        runner.append(0.012, 400.0, 0.0)
        runner.append(0.020, 5000.0, 0.0)
        trajs = [Trajectory([0.0], [0.0], [0.0]),
                 Trajectory([0.0], [200.0], [0.0]),
                 runner,
                 Trajectory([0.0], [600.0], [0.0])]
        model = RandomWaypointModel.from_trajectories(trajs, 10000, 500)
        ledger = MessageLedger()
        radio = Radio(model, 250.0, 0.01, ledger)
        assert radio.unicast(0, 3, MessageKind.DATA, 0.0, request_id=5) is None
        assert ledger.units_for_request(5) == 2

    def test_break_charge_is_visible_in_the_raw_log(self):
        runner = Trajectory()
        runner.append(0.0, 400.0, 0.0)
        runner.append(0.012, 400.0, 0.0)
        runner.append(0.020, 5000.0, 0.0)
        trajs = [Trajectory([0.0], [0.0], [0.0]),
                 Trajectory([0.0], [200.0], [0.0]),
                 runner,
                 Trajectory([0.0], [600.0], [0.0])]
        model = RandomWaypointModel.from_trajectories(trajs, 10000, 500)
        ledger = MessageLedger()
        Radio(model, 250.0, 0.01, ledger).unicast(0, 3, MessageKind.DATA, 0.0)
        (row,) = ledger.rows
        assert row.kind is MessageKind.DATA
        assert (row.src, row.dst, row.units) == (0, 3, 2)


class TestDirect:
    def test_one_hop_within_range(self):
        radio, ledger = line_radio()
        out = radio.direct(1, 2, MessageKind.CHAIN_CHECK, 0.5)
        assert out.hops == 1 and out.arrival == pytest.approx(0.51)
        assert ledger.recount() == 1

    def test_out_of_range_is_silent_and_free(self):
        radio, ledger = line_radio()
        assert radio.direct(0, 2, MessageKind.CHAIN_CHECK, 0.0) is None
        assert ledger.recount() == 0


class TestFlood:
    def test_unlimited_flood_reaches_all_and_counts_transmitters(self):
        radio, _ = line_radio()
        flood = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.0)
        assert sorted(flood.reached) == [0, 1, 2, 3]
        assert flood.units == 4
        assert flood.depths.tolist() == [0, 1, 2, 3]

    def test_ttl_limits_depth_and_frontier_nodes_do_not_relay(self):
        radio, _ = line_radio()
        f1 = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.0, ttl=1)
        assert sorted(f1.reached) == [0, 1] and f1.units == 1
        f2 = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.1, ttl=2)
        assert sorted(f2.reached) == [0, 1, 2] and f2.units == 2

    def test_isolated_origin_still_pays_its_own_broadcast(self):
        model = static_model([(0, 0), (900, 400)])
        radio = Radio(model, 250.0, 0.01, MessageLedger())
        flood = radio.flood(0, MessageKind.SERVER_UPDATE, 0.0)
        assert sorted(flood.reached) == [0]
        assert flood.units == 1

    def test_member_mask_blocks_excluded_relays(self):
        radio, _ = line_radio()
        flood = radio.flood(0, MessageKind.SERVER_UPDATE, 0.0, member_mask=0b1101)
        assert sorted(flood.reached) == [0]

    def test_origin_is_always_a_member_of_its_own_flood(self):
        radio, _ = line_radio()
        flood = radio.flood(0, MessageKind.SERVER_UPDATE, 0.0, member_mask=0b1110)
        assert sorted(flood.reached) == [0, 1, 2, 3]

    @pytest.mark.parametrize("ttl", [None, 1, 2, 4])
    def test_masked_flood_equals_the_masked_matrix(self, ttl):
        rng = np.random.default_rng(12)
        for n in (2, 25, 70):
            radio, adj = random_radio(rng, n, range_m=300.0)
            for with_mask in (False, True):
                member = rng.uniform(size=n) < 0.6 if with_mask else None
                bits = mask_bits(member) if with_mask else -1
                for origin in range(n):
                    flood = radio.flood(origin, MessageKind.SERVER_UPDATE, 0.0,
                                        ttl=ttl, member_mask=bits)
                    depths, parents, units, reached = flood_on_matrix(
                        adj, origin, ttl, member)
                    assert np.array_equal(flood.depths, depths)
                    assert np.array_equal(flood.parents, parents)
                    assert flood.units == units
                    assert flood.reached == reached

    def test_flood_is_charged_as_a_broadcast_row(self):
        radio, ledger = line_radio()
        radio.flood(1, MessageKind.SERVER_UPDATE, 0.0, request_id=4)
        (row,) = ledger.rows
        assert row.dst == BROADCAST
        assert row.units == 4
        assert ledger.units_for_request(4) == 4

    def test_flood_path_follows_canonical_parents(self):
        radio, _ = line_radio()
        flood = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.0)
        assert radio.flood_path(flood, 3) == (0, 1, 2, 3)
        assert radio.flood_path(flood, 0) == (0,)

    def test_flood_path_to_unreached_node_raises(self):
        model = static_model([(0, 0), (900, 400)])
        radio = Radio(model, 250.0, 0.01, MessageLedger())
        flood = radio.flood(0, MessageKind.CHAIN_REPAIR_FLOOD, 0.0)
        with pytest.raises(ValueError):
            radio.flood_path(flood, 1)


class TestLedger:
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
        with pytest.raises(ValueError):
            ledger.charge(MessageKind.DATA, 0, 1, -1, 0.0)


def test_moving_node_changes_its_neighbourhood():
    model = scripted_model([
        [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)],
        [(0.0, 200.0, 0.0), (10.0, 800.0, 0.0)],
    ])
    radio = Radio(model, 250.0, 0.01, MessageLedger())
    assert radio.in_range(0, 1, 0.0)
    assert not radio.in_range(0, 1, 10.0)

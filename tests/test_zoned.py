"""Zoned servers: partition, ring queries, station table upkeep, misses."""

import math

import pytest

from adhocloc.config import ScenarioConfig
from adhocloc.metrics import RequestRecord
from adhocloc.protocols.server import SERVICE_TIME
from adhocloc.protocols.zoned import ZonedProtocol
from adhocloc.radio import PER_HOP_LATENCY, MessageKind
from adhocloc.scenario import run_scenario
from conftest import build_ctx, jump_code, scripted_model, static_model

# two nodes per quadrant around a centroid at the origin; the inner node of
# each pair (odd ids) wins its zone's election
BOX8 = [(150, 80), (60, 150), (-150, 80), (-60, 150),
        (-150, -80), (-60, -150), (150, -80), (60, -150)]


def make_zoned(model, host=None, **overrides):
    overrides.setdefault("n_zones", 4)
    overrides.setdefault("report_period", 1000.0)
    ctx = build_ctx(model, host=host, **overrides)
    proto = ZonedProtocol(ctx)
    return proto


def issue(proto, request_id=1):
    record = RequestRecord(request_id=request_id,
                           issued_at=proto.engine.now, warmup=False)
    proto.locate(record)
    return record


def ring_rows(proto):
    return [r for r in proto.radio.ledger.rows
            if r.kind is MessageKind.RING_FORWARD]


#: nodes along y = +10 are zone 0 (agent node 0), along y = -10 zone 1
#: (agent node 1), with two zones
TWO_ROWS = [(0, 10), (0, -10), (200, 10), (400, 10), (600, 10),
            (-200, -10), (-400, -10), (-600, -10)]


def report_back_at_1s(proto):
    """Node 0, in zone 0, reports at t = 1 as if it came from zone 1, whose
    agent (node 3, one hop away) lists it: a drop is on its way there."""
    proto.engine.run_until(1.0)
    proto.agents[1].stations.add(0)
    proto.last_zone[0] = 1
    proto._report(0, next_at=2.0)


#: when zone 1's agent completes that drop: it arrives after one hop to an
#: idle worker
DROPPED_AT = 1.0 + PER_HOP_LATENCY + SERVICE_TIME


def jump_out_and_back(proto):
    """Zone 0's drop from node 7 has three hops to go; the code's re-insert
    from node 2, 5 ms later, only one."""
    proto.engine.run_until(1.0)
    jump_code(proto, 7)      # zone 0 into zone 1
    proto.engine.run_until(1.005)
    jump_code(proto, 2)      # and back
    proto.engine.run_until(2.0)


class TestPartition:
    def test_zones_and_agents_fall_out_of_the_initial_snapshot(self):
        proto = make_zoned(static_model(BOX8), host=2)
        assert proto.last_zone == [0, 0, 1, 1, 2, 2, 3, 3]
        assert [a.host for a in proto.agents] == [1, 3, 5, 7]
        assert proto.sdb_zone == 1
        proto.engine.run_until(0.1)
        assert proto.agents[1].code_host == 2
        assert [a.code_host is not None for a in proto.agents] == [False, True, False, False]


class TestRequestPath:
    def test_an_own_zone_hit_never_touches_the_ring(self):
        proto = make_zoned(static_model(BOX8), host=1)
        proto.engine.run_until(2.0)
        record = issue(proto)
        proto.engine.run_until(4.0)
        # one hop each for query, reply and contact plus one service time
        assert record.resolved_at == pytest.approx(
            2.0 + 3 * PER_HOP_LATENCY + SERVICE_TIME)
        assert record.returned_host == 1 and record.retries == 0
        assert proto.radio.ledger.units_for_request(1) == 3
        assert ring_rows(proto) == []

    def test_a_neighbour_zone_hit_costs_one_ring_forward(self):
        proto = make_zoned(static_model(BOX8), host=2)
        proto.engine.run_until(2.0)
        record = issue(proto)
        proto.engine.run_until(4.0)
        # five hops, the ring forward included, and a service time at each
        # of the two agents
        assert record.resolved_at == pytest.approx(
            2.0 + 5 * PER_HOP_LATENCY + 2 * SERVICE_TIME)
        assert record.returned_host == 2 and record.retries == 0
        assert proto.radio.ledger.units_for_request(1) == 5
        assert len(ring_rows(proto)) == 1

    def test_a_full_circle_of_misses_nacks_and_retries_until_failure(self):
        proto = make_zoned(static_model(BOX8), host=2)
        proto.engine.run_until(1.0)
        for agent in proto.agents:
            agent.code_host = None
        record = issue(proto)
        proto.engine.run_until(4.0)
        # every attempt rings all four agents and buys a charged not-found
        assert record.resolved_at is None
        assert record.retries == 3
        assert record.failed_at == pytest.approx(
            1.0 + 4 * (6 * PER_HOP_LATENCY + 4 * SERVICE_TIME))
        assert proto.radio.ledger.units_for_request(1) == 24
        assert len(ring_rows(proto)) == 12


class TestDatabaseUpkeep:
    def test_the_code_entry_follows_jumps_across_zones(self):
        proto = make_zoned(static_model(BOX8), host=2)
        proto.engine.run_until(1.0)
        jump_code(proto, 4)      # zone 1 into zone 2
        assert proto.sdb_zone == 2
        proto.engine.run_until(1.5)
        assert proto.agents[2].code_host == 4
        assert proto.agents[1].code_host is None
        proto.engine.run_until(2.0)
        record = issue(proto)
        proto.engine.run_until(4.0)
        # eight hops, two ring forwards among them, and a service time at
        # each of the three agents asked
        assert record.resolved_at == pytest.approx(
            2.0 + 8 * PER_HOP_LATENCY + 3 * SERVICE_TIME)
        assert record.returned_host == 4
        assert proto.radio.ledger.units_for_request(1) == 8
        assert len(ring_rows(proto)) == 2

    def test_a_crossing_report_moves_the_registry_entry(self):
        # node 0 walks from zone 0 (agent node 1) into zone 1 (agent node 3)
        knots = [[(0.0, x, y), (4.0, x, y)] for x, y in BOX8]
        knots[0] = [(0.0, 150.0, 80.0), (1.0, 150.0, 80.0),
                    (1.5, -120.0, 80.0), (4.0, -120.0, 80.0)]
        for undeliverable in (False, True):
            if undeliverable:
                # zone 0's agent leaves everyone's range before node 0 crosses
                knots[1] = [(0.0, 60.0, 150.0), (1.0, 60.0, 150.0),
                            (1.2, 60.0, 1000.0), (4.0, 60.0, 1000.0)]
            proto = make_zoned(scripted_model(knots), host=2, report_period=0.5)
            drops = []

            class Table(set):
                def discard(self, node):
                    drops.append((proto.engine.now, node))
                    super().discard(node)

            proto.agents[0].stations = Table()
            proto.engine.run_until(3.0)
            assert proto.last_zone[0] == 1
            reports = [(r.t, r.dst) for r in proto.radio.ledger.rows
                       if r.kind is MessageKind.POSITION_REPORT and r.src == 0]
            crossed = min(t for t, dst in reports if dst == 3)
            holders = [zone for zone, agent in enumerate(proto.agents)
                       if 0 in agent.stations]
            if undeliverable:
                # nothing tells zone 0 of the move, so its entry stays
                assert (crossed, 1) not in reports
                assert drops == [] and holders == [0, 1]
            else:
                # the charged drop removes the entry once zone 0's agent has
                # processed it, and nothing else does
                assert (crossed, 1) in reports
                [(dropped_at, node)] = drops
                assert node == 0 and dropped_at > crossed
                assert holders == [1]


    def test_a_report_arriving_as_its_member_s_drop_completes_keeps_its_entry(self):
        proto = make_zoned(static_model(BOX8), host=2)
        agent, engine = proto.agents[1], proto.engine
        report_back_at_1s(proto)
        processed = agent.processed
        # the report's arrival event is scheduled before the drop's
        # completion, so it arrives ahead of it at the same instant, while
        # the worker is busy up to that instant
        agent.report(0, DROPPED_AT, next_at=2.0)
        engine.run_until(DROPPED_AT)
        assert 0 not in agent.stations and agent.processed == processed + 2
        engine.run_until(2.0)
        assert 0 in agent.stations

    def test_the_code_leaves_zone_0_and_comes_back(self):
        proto = make_zoned(static_model(TWO_ROWS), mother=3, n_zones=2)
        assert [agent.host for agent in proto.agents] == [0, 1]
        jump_out_and_back(proto)
        rows = list(proto.radio.ledger.rows)[-4:]
        assert proto.sdb_zone == 0
        assert [(r.src, r.dst, r.units) for r in rows] == [(7, 1, 3), (7, 0, 3),
                                                          (2, 0, 1), (2, 1, 1)]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a zone agent applies drops in arrival order; "
                       "ROADMAP item 7 has them carry code.jumps")
    def test_an_old_zone_s_late_drop_keeps_the_code_s_new_entry(self):
        proto = make_zoned(static_model(TWO_ROWS), mother=3, n_zones=2)
        jump_out_and_back(proto)
        assert proto.agents[0].code_host == 2


class TestReportRule:
    """When a report to a static layout's agent is an event."""

    @pytest.mark.parametrize("next_at, events", [
        (2.0, 0),
        # a next report leaving before this arrival could send a drop ahead
        # of it, so this report keeps its arrival and completion
        (1.0 + PER_HOP_LATENCY / 2, 2),
    ])
    def test_a_listed_member_s_report_is_an_event_only_if_its_next_report_leaves_first(
            self, next_at, events):
        proto = make_zoned(static_model(BOX8), host=2)
        agent, engine = proto.agents[0], proto.engine
        engine.run_until(1.0)
        agent.stations.add(0)
        executed = engine.executed
        proto._report(0, next_at)
        engine.run_until(1.5)
        # either way the report occupies the worker for one service time
        assert engine.executed == executed + events
        assert agent.processed == 1
        assert agent.busy_until == 1.0 + PER_HOP_LATENCY + SERVICE_TIME
        assert agent.stations == {0}

    def test_a_report_sent_while_its_member_s_drop_is_in_flight_keeps_its_event(self):
        proto = make_zoned(static_model(BOX8), host=2)
        agent, engine = proto.agents[1], proto.engine
        report_back_at_1s(proto)
        assert agent.drops[0] == 1
        # a report that reaches zone 1's agent behind the drop
        agent.report(0, 1.0 + 2 * PER_HOP_LATENCY, next_at=2.0)
        engine.run_until(DROPPED_AT)
        assert 0 not in agent.stations and agent.drops[0] == 0
        engine.run_until(2.0)
        # its completion follows the drop's and lists the member again
        assert 0 in agent.stations


class TestEventWork:
    def test_a_report_that_changes_no_table_is_no_event(self):
        result = run_scenario(ScenarioConfig(protocol="zoned", lam=1.0, seed=3,
                                             duration=60.0))
        reports = sum(row.kind is MessageKind.POSITION_REPORT
                      for row in result.ledger.rows)
        # a tick per report, and an arrival and a completion only for a report
        # that may change a table; with both for every report this run
        # executes 3.8 events per report
        assert result.engine.executed < 2.25 * reports
        assert [agent.processed for agent in result.protocol.agents] == [535, 396]


class TestReelection:
    def test_a_drifting_zone_agent_hands_off_inside_its_zone(self):
        # node 1, zone 0's agent, walks outward along its own ray until node 0
        # sits much closer to the live centroid; the other agents stay best
        knots = [[(0.0, x, y), (12.0, x, y)] for x, y in BOX8]
        knots[1] = [(0.0, 60.0, 150.0), (4.0, 120.0, 300.0), (12.0, 120.0, 300.0)]
        proto = make_zoned(scripted_model(knots), host=0, report_period=1.0)
        floods = []
        flood = proto.radio.flood

        def recording_flood(origin, kind, t, **kwargs):
            result = flood(origin, kind, t, **kwargs)
            floods.append((origin, kind, t, result, list(proto.radio.ledger.rows)[-1].units))
            return result

        proto.radio.flood = recording_flood
        proto.engine.run_until(4.99)
        entries = proto.agents[0].entry_count()
        assert entries == 3         # the code entry plus both members' reports
        hops = len(proto.radio.route(1, 0, 5.0)) - 1
        proto.engine.run_until(5.0)
        assert [a.host for a in proto.agents] == [0, 3, 5, 7]
        assert proto.handoffs == 1
        rows = [r for r in proto.radio.ledger.rows
                if r.kind is MessageKind.AGENT_MIGRATION]
        assert len(rows) == 1
        assert (rows[0].src, rows[0].dst, rows[0].t) == (1, 0, 5.0)
        assert rows[0].units == hops * math.ceil(entries / 10)
        announced = [(res, units) for origin, kind, t, res, units in floods
                     if kind is MessageKind.SERVER_UPDATE and t == 5.0]
        assert len(announced) == 1
        (res, units), = announced
        assert res[0] == 1
        assert res == [0b1, 0b10]
        assert units == 2


class TestOneZone:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_zone_loads_its_agent_like_the_centralized_server(self, seed):
        # at the same report period, one zone's agent ingests what the
        # central agent does: every station's reports, the updates and the
        # queries; only the report transport differs
        base = ScenarioConfig(lam=0.25, duration=200.0, seed=seed)
        central = run_scenario(base.replace(protocol="centralized"))
        zoned = run_scenario(base.replace(protocol="zoned", n_zones=1,
                                          report_period=1.0))
        (agent,) = zoned.protocol.agents
        loads = [a.processed * SERVICE_TIME / base.duration
                 for a in (central.protocol.agent, agent)]
        assert loads[0] == pytest.approx(loads[1], abs=0.01)

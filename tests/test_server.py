"""Centralized server: election, FIFO queue, query round trips, handoffs."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocloc.config import ScenarioConfig
from adhocloc.engine import DRAW_BLOCK, Engine, stream
from adhocloc.metrics import RequestRecord
from adhocloc.protocols.server import (CHASE_BUDGET, SERVICE_TIME, CentralizedProtocol,
                                       ServerAgent)
from adhocloc.radio import PER_HOP_LATENCY, MessageKind
from adhocloc.scenario import run_scenario
from conftest import build_ctx, jump_code, scripted_model, static_model
from pins import pin

# a connected cluster whose centroid sits nearest node 2
CLUSTER6 = [(0, 0), (200, 0), (400, 0), (600, 0), (450, 100), (350, -100)]


def make_server(model, host=None, **overrides):
    overrides.setdefault("central_report_period", 1000.0)
    ctx = build_ctx(model, host=host, **overrides)
    proto = CentralizedProtocol(ctx)
    return proto


def issue(proto, request_id=1):
    record = RequestRecord(request_id=request_id,
                           issued_at=proto.engine.now, warmup=False)
    proto.locate(record)
    return record


def migration_rows(proto):
    return [r for r in proto.radio.ledger.rows
            if r.kind is MessageKind.AGENT_MIGRATION]


#: five nodes in a line, 200 m apart; the agent settles mid-line at node 2
LINE5 = [(200.0 * k, 0.0) for k in range(5)]


def jump_far_then_near(proto):
    """The update from node 4 leaves first but has two hops to go; the one
    from node 3, 5 ms later, only one."""
    proto.engine.run_until(1.0)
    jump_code(proto, 4)
    proto.engine.run_until(1.005)
    jump_code(proto, 3)
    proto.engine.run_until(2.0)


#: instants on a binary grid, so sums of them tie exactly
TICK_TIMES = st.sampled_from([k / 8 for k in range(17)])
DELAYS = st.sampled_from([0.0, 0.125, 0.25, SERVICE_TIME, 2 * SERVICE_TIME])
BOUNDS = st.sampled_from([k / 8 + d for k in range(20) for d in (0.0, SERVICE_TIME)])


class TestServerAgent:
    def test_work_queues_fifo_behind_the_service_time(self):
        engine = Engine()
        agent = ServerAgent(engine, host=0)
        s = SERVICE_TIME
        fired = []
        # the second job arrives while the first runs and queues behind it;
        # the idle gap before the third resets the queue instead of
        # accumulating
        for arrival in (1.0, 1.0 + s / 2, 3.0):
            engine.schedule(arrival,
                            lambda: agent.process(lambda: fired.append(engine.now)))
        engine.run_until(5.0)
        assert fired == [1.0 + s, 1.0 + s + s, 3.0 + s]
        assert agent.processed == 3 and agent.busy_until == 3.0 + s

    def test_a_job_whose_action_does_nothing_still_occupies_the_worker(self):
        engine = Engine()
        agent = ServerAgent(engine, host=0)
        s = SERVICE_TIME
        fired = []
        engine.schedule(1.0, lambda: agent.process(lambda: None))
        engine.schedule(1.0 + s / 2,
                        lambda: agent.process(lambda: fired.append(engine.now)))
        engine.run_until(1.0)
        assert agent.busy_until == 1.0 + s and agent.processed == 1
        engine.run_until(5.0)
        # the second job still queues behind the first, and every job's
        # completion is an event: two deliveries and two completions ran
        assert fired == [1.0 + s + s]
        assert agent.processed == 2 and engine.executed == 4

    @settings(max_examples=200, deadline=None)
    @given(ticks=st.lists(st.tuples(TICK_TIMES, st.lists(st.tuples(DELAYS, st.booleans()),
                                                         min_size=1, max_size=4)),
                          min_size=1, max_size=12),
           bounds=st.lists(BOUNDS, min_size=1, max_size=6))
    def test_occupancy_jobs_equal_arrival_events(self, ticks, bounds):
        # ticks send jobs that arrive after a delay: action jobs always as
        # arrival events, occupancy jobs either taken lazily (`occupy`) or,
        # for the reference, as an arrival event whose job's action does
        # nothing; the grid makes arrivals tie with one another, with
        # completions and with the run bounds, in either seq order
        def drive(lazy):
            engine = Engine()
            agent = ServerAgent(engine, host=0)
            seen = []

            def look(tag):
                seen.append((tag, engine.now, agent.busy_until, agent.processed))

            def arrive(job):
                agent.process(lambda: look(("done", job)))
                look(("arrival", job))

            def tick(jobs):
                for job, (delay, occupies) in jobs:
                    at = engine.now + delay
                    if not occupies:
                        engine.schedule(at, lambda job=job: arrive(job))
                    elif lazy:
                        agent.occupy(at)
                    else:
                        engine.schedule(at, lambda: agent.process(lambda: None))
                look("tick")

            job = 0
            for at, sends in ticks:
                jobs = list(enumerate(sends, start=job))
                job += len(sends)
                engine.schedule(at, lambda jobs=jobs: tick(jobs))
            for bound in sorted(bounds):
                engine.run_until(bound)
                look("bound")
            return seen

        assert drive(lazy=True) == drive(lazy=False)

    def test_entry_count_spans_both_tables(self):
        agent = ServerAgent(Engine(), host=0)
        agent.code_host = 3
        agent.stations.update((0, 4))
        assert agent.entry_count() == 3


class TestElection:
    def test_the_most_central_node_is_elected_and_announced(self):
        proto = make_server(static_model(CLUSTER6), host=3)
        assert proto.agent.host == 2
        assert proto.known_server[2] == 2     # the holder knows instantly
        proto.engine.run_until(0.05)
        # the announcement flood and the host's first location update land
        assert proto.known_server == [2] * 6
        assert proto.agent.code_host == 3

    def test_the_announcement_reaches_each_node_after_its_depth_in_hops(self):
        proto = make_server(static_model(CLUSTER6), host=3)
        proto.engine.run_until(0.05)
        learned = []

        class Logged(list):
            def __setitem__(self, node, host):
                learned.append((proto.engine.now, node, host))
                super().__setitem__(node, host)

        proto.known_server = Logged([None] * 6)
        proto._announce()
        proto.engine.run_until(0.1)
        # the holder at once, its four neighbours one hop later in id
        # order, and node 0, two hops out behind node 1, last
        lat = proto.radio.latency
        assert learned == [(0.05, 2, 2)] + [(0.05 + lat, v, 2) for v in (1, 3, 4, 5)] \
            + [(0.05 + 2 * lat, 0, 2)]
        assert proto.known_server == [2] * 6

    def test_stations_report_positions_on_a_jittered_cadence(self):
        proto = make_server(static_model(CLUSTER6), host=3,
                            central_report_period=1.0)
        proto.engine.run_until(2.2)
        assert proto.radio.ledger.by_kind["PositionReport"] >= 6
        assert sorted(proto.agent.stations) == [0, 1, 2, 3, 4, 5]
        assert proto.agent.entry_count() == 7

    def test_report_ticks_equal_one_draw_at_a_time(self):
        period = 1.0
        proto = make_server(static_model(CLUSTER6), host=3,
                            central_report_period=period)
        ticks = []
        report = proto._report
        proto._report = lambda node, next_at: (
            ticks.append((proto.engine.now, node, next_at)), report(node, next_at))
        proto.engine.run_until(100.0)
        assert len(ticks) > 2 * DRAW_BLOCK
        # the same cadence from scalar draws, taken in tick order; each
        # report is told its station's next tick
        draws = stream(proto.cfg.seed, "protocol")
        n = len(CLUSTER6)
        pending = [(period * (v + 1) / n, v) for v in range(n)]
        expected = []
        while pending[0][0] <= 100.0:
            t, v = heapq.heappop(pending)
            gap = period * float(draws.uniform(0.75, 1.25))
            expected.append((t, v, t + gap))
            heapq.heappush(pending, (t + gap, v))
        assert ticks == expected


class TestRequestPath:
    def test_query_reply_contact_costs_seven_units(self):
        proto = make_server(static_model(CLUSTER6), host=3)
        proto.engine.run_until(2.0)
        record = issue(proto)
        proto.engine.run_until(4.0)
        # two hops to the agent, one service time, two hops back, three out
        # to the host
        assert record.resolved_at == pytest.approx(
            2.0 + 7 * PER_HOP_LATENCY + SERVICE_TIME)
        assert record.returned_host == 3 and record.truth_host == 3
        assert record.retries == 0
        assert proto.radio.ledger.units_for_request(1) == 7

    def test_stale_reply_triggers_one_requery(self):
        proto = make_server(static_model(CLUSTER6), host=3)
        proto.engine.run_until(2.0)
        record = issue(proto)
        proto.engine.run_until(2.09)
        # the reply naming host 3 is already in flight when the code leaves
        jump_code(proto, 4)
        proto.engine.run_until(4.0)
        assert record.retries == 1
        assert record.returned_host == 4 and record.truth_host == 4
        # the requery waits behind host 4's one-hop update, sent at the jump;
        # then two hops back and three out to host 4
        assert record.resolved_at == pytest.approx(
            2.09 + 6 * PER_HOP_LATENCY + 2 * SERVICE_TIME)
        assert proto.radio.ledger.units_for_request(1) == 14

    def test_an_agent_without_the_code_entry_is_requeried_until_failure(self):
        proto = make_server(static_model(CLUSTER6), host=3)
        proto.engine.run_until(2.0)
        proto.agent.code_host = None
        record = issue(proto)
        proto.engine.run_until(4.0)
        # four queries of two hops and one service time each, no reply sent
        assert record.resolved_at is None
        assert record.retries == 3
        assert record.failed_at == pytest.approx(
            2.0 + 4 * (2 * PER_HOP_LATENCY + SERVICE_TIME))
        assert proto.radio.ledger.units_for_request(1) == 8


class TestHandoff:
    def test_a_drifting_agent_hands_the_database_to_a_better_center(self):
        # node 4 starts dead center, then wanders north until node 2 is
        # clearly better placed at the first re-election
        model = scripted_model([
            [(0.0, 100.0, 0.0), (12.0, 100.0, 0.0)],
            [(0.0, 500.0, 0.0), (12.0, 500.0, 0.0)],
            [(0.0, 300.0, 100.0), (12.0, 300.0, 100.0)],
            [(0.0, 300.0, -100.0), (12.0, 300.0, -100.0)],
            [(0.0, 300.0, 0.0), (5.0, 300.0, 300.0), (12.0, 300.0, 300.0)],
        ])
        proto = make_server(model, host=3)
        assert proto.agent.host == 4
        proto.engine.run_until(6.0)
        assert proto.agent.host == 2 and proto.handoffs == 1
        assert proto.forward_map == {4: 2}
        rows = migration_rows(proto)
        assert len(rows) == 1
        # one hop, one database entry: a single migration unit
        assert (rows[0].src, rows[0].dst, rows[0].units) == (4, 2, 1)
        assert proto.known_server == [2] * 5

    def test_a_stale_server_address_is_chased_through_the_forward_map(self):
        model = scripted_model([
            [(0.0, 100.0, 0.0), (12.0, 100.0, 0.0)],
            [(0.0, 500.0, 0.0), (12.0, 500.0, 0.0)],
            [(0.0, 300.0, 100.0), (12.0, 300.0, 100.0)],
            [(0.0, 300.0, -100.0), (12.0, 300.0, -100.0)],
            [(0.0, 300.0, 0.0), (5.0, 300.0, 300.0), (12.0, 300.0, 300.0)],
        ])
        proto = make_server(model, host=3)
        proto.engine.run_until(6.0)
        assert proto.agent.host == 2
        # pretend the mother missed the announcement
        proto.known_server[0] = 4
        record = issue(proto)
        proto.engine.run_until(8.0)
        # five hops (the chase through the forward map included) and one
        # service time
        assert record.resolved_at == pytest.approx(
            6.0 + 5 * PER_HOP_LATENCY + SERVICE_TIME)
        assert record.returned_host == 3
        assert proto.radio.ledger.units_for_request(1) == 5

    def test_a_query_chased_into_a_dead_end_requeries_until_failure(self):
        proto = make_server(static_model(CLUSTER6), host=3)
        proto.engine.run_until(2.0)
        assert proto.agent.host == 2
        # node 5 never hosted the agent, so it holds no forwarding pointer
        proto.known_server[0] = 5
        record = issue(proto)
        proto.engine.run_until(4.0)
        # four queries of two hops each, none of them reaching the agent
        assert record.resolved_at is None
        assert record.retries == 3
        assert record.failed_at == pytest.approx(2.0 + 8 * PER_HOP_LATENCY)
        assert proto.radio.ledger.units_for_request(1) == 8
        assert proto.agent.processed == 1    # the initial location update

    @pytest.mark.parametrize("pointers", [CHASE_BUDGET, CHASE_BUDGET + 1])
    def test_a_chase_follows_at_most_chase_budget_pointers(self, pointers):
        # every station on a ring of radius 100 m is in range of every
        # other, so only the budget can stop a query chased along the chain
        ring = [(100.0 * math.cos(math.tau * k / 12), 100.0 * math.sin(math.tau * k / 12))
                for k in range(12)]
        proto = make_server(static_model(ring), host=11)
        proto.engine.run_until(1.0)
        chain = list(range(1, pointers + 2))    # off the mother and the code
        proto.agent.host = chain[-1]
        proto.known_server[proto.code.mother] = chain[0]
        proto.forward_map = dict(zip(chain, chain[1:]))
        before = proto.agent.processed
        issue(proto)
        proto.engine.run_until(2.0)
        assert (proto.agent.processed > before) == (pointers == CHASE_BUDGET)

    def test_a_location_update_chased_into_a_dead_end_is_dropped(self):
        proto = make_server(static_model(CLUSTER6), host=3)
        proto.engine.run_until(2.0)
        proto.known_server[4] = 5
        jump_code(proto, 4)
        proto.engine.run_until(4.0)
        # the one-hop update to node 5 is charged, then goes nowhere
        assert proto.radio.ledger.by_kind["ServerUpdate"] == 8
        assert proto.agent.code_host == 3 and proto.agent.processed == 1

    def test_crossing_updates_reach_a_mid_line_agent(self):
        proto = make_server(static_model(LINE5))
        assert proto.agent.host == 2
        jump_far_then_near(proto)
        rows = list(proto.radio.ledger.rows)[-2:]
        assert proto.agent.host == 2
        assert [(r.src, r.dst, r.units, r.t) for r in rows] == [(4, 2, 2, 1.0),
                                                              (3, 2, 1, 1.005)]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="an agent applies updates in arrival order; "
                       "ROADMAP item 7 has them carry code.jumps")
    def test_the_agent_keeps_the_newer_of_two_crossing_updates(self):
        proto = make_server(static_model(LINE5))
        jump_far_then_near(proto)
        assert proto.agent.code_host == 3

    def test_a_small_centering_gain_does_not_move_the_agent(self):
        # the incumbent drifts just far enough that node 1 looks better,
        # but the gain stays under the handoff threshold
        model = scripted_model([
            [(0.0, 100.0, 0.0), (12.0, 100.0, 0.0)],
            [(0.0, 300.0, 100.0), (12.0, 300.0, 100.0)],
            [(0.0, 300.0, -100.0), (12.0, 300.0, -100.0)],
            [(0.0, 500.0, 0.0), (12.0, 500.0, 0.0)],
            [(0.0, 300.0, 0.0), (5.0, 300.0, 140.0), (12.0, 300.0, 140.0)],
        ])
        proto = make_server(model, host=3)
        assert proto.agent.host == 4
        proto.engine.run_until(12.0)
        assert proto.agent.host == 4 and proto.handoffs == 0
        assert proto.forward_map == {} and migration_rows(proto) == []


def agent_tables(result):
    """Each server agent's job count, station table and code entry."""
    proto = result.protocol
    agents = getattr(proto, "agents", None) or [proto.agent]
    return [(agent.processed, agent.stations, agent.code_host) for agent in agents]


class TestReportRule:
    @pytest.mark.parametrize("lam", [0.5, 8.0])
    # at 0.02 s a station's next report leaves before a report of a few hops
    # arrives; at 0.1 s a 4-zone agent's queue holds a drop of seed 12's
    # stations while they come back
    @pytest.mark.parametrize("report_period, duration", [(0.02, 4.0), (0.1, 20.0),
                                                         (2.0, 60.0)])
    @pytest.mark.parametrize("protocol, n_zones", [("centralized", 1), ("zoned", 2),
                                                   ("zoned", 4)])
    def test_runs_equal_the_event_path_runs(self, protocol, n_zones, report_period,
                                            duration, lam, monkeypatch):
        cfg = ScenarioConfig(protocol=protocol, n_zones=n_zones, lam=lam,
                             report_period=report_period,
                             central_report_period=report_period,
                             node_mob="high", duration=duration, seed=12)
        settled = run_scenario(cfg)

        def evented_report(agent, station, arrival, next_at):
            agent.engine.schedule(arrival, lambda: agent.process(
                lambda: agent.stations.add(station)))

        monkeypatch.setattr(ServerAgent, "report", evented_report)
        evented = run_scenario(cfg)
        assert list(settled.ledger.rows) == list(evented.ledger.rows)
        assert settled.records == evented.records
        assert agent_tables(settled) == agent_tables(evented)
        assert settled.engine.executed < evented.engine.executed


#: a 60 s centralized run whose agent's job count is pinned
LISTED_REPORTS_RUN = ScenarioConfig(protocol="centralized", lam=1.0, seed=3,
                                    duration=60.0)
#: centralized runs that abort at 3 s, by pin name: their overrides
ABORTED_RUNS = {
    "range1": {"range": 1.0},
    # a report is still on its way at the abort
    "range150-seed6": {"range": 150.0, "seed": 6},
}


def agent_jobs(result) -> int:
    return result.protocol.agent.processed


def aborted_run(overrides: dict):
    return run_scenario(ScenarioConfig(protocol="centralized", partition_grace=2.0,
                                       duration=10.0, **overrides))


def agent_state(result) -> dict:
    """The jobs the agent took and the instant its queue drains."""
    agent = result.protocol.agent
    return {"processed": agent.processed, "busy_until": agent.busy_until}


def pinned_values() -> dict:
    return {"server.agent_jobs": agent_jobs(run_scenario(LISTED_REPORTS_RUN)),
            **{f"server.aborted_agent.{name}": agent_state(aborted_run(overrides))
               for name, overrides in ABORTED_RUNS.items()}}


class TestEventWork:
    """Executed events are deterministic, so a lost shortcut shows as a count."""

    def test_a_listed_station_s_report_schedules_no_completion(self):
        result = run_scenario(LISTED_REPORTS_RUN)
        reports = sum(row.kind is MessageKind.POSITION_REPORT
                      for row in result.ledger.rows)
        # a tick per report; an arrival and a completion only for a report
        # from a station not yet listed when it left
        assert result.engine.executed < 1.75 * reports
        assert agent_jobs(result) == pin("server.agent_jobs")

    @pytest.mark.parametrize("name", ABORTED_RUNS)
    def test_an_aborted_run_counts_the_jobs_taken_before_the_abort(self, name):
        result = aborted_run(ABORTED_RUNS[name])
        assert result.aborted and result.engine.now == 3.0
        assert agent_state(result) == pin(f"server.aborted_agent.{name}")

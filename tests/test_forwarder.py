"""Forwarder chains: walks, collapse, repairs, grafts, wraps and parking."""

import pytest

from adhocloc.config import ScenarioConfig
from adhocloc.metrics import RequestRecord
from adhocloc.protocols.forwarder import ForwarderEntry, ForwarderProtocol
from adhocloc.radio import MessageKind
from adhocloc.scenario import run_scenario
from conftest import build_ctx, jump_code, scripted_model, static_model
from pins import pin

LINE4 = [(0, 0), (200, 0), (400, 0), (600, 0)]


def make_forwarder(model, proactive=False, **overrides):
    ctx = build_ctx(model, **overrides)
    return ForwarderProtocol(ctx, proactive=proactive)


def issue(proto, t, request_id=1):
    record = RequestRecord(request_id=request_id, issued_at=t, warmup=False)
    proto.locate(record)
    return record


class TestChainBookkeeping:
    def test_each_departure_leaves_an_ordered_entry(self):
        proto = make_forwarder(static_model(LINE4))
        jump_code(proto, 1)
        jump_code(proto, 2)
        jump_code(proto, 3)
        assert proto.entries == {0: ForwarderEntry(1, 0.0),
                                 1: ForwarderEntry(2, 1.0),
                                 2: ForwarderEntry(3, 2.0)}

    def test_the_mother_is_pinned_at_order_zero(self):
        proto = make_forwarder(static_model(LINE4))
        jump_code(proto, 1)
        jump_code(proto, 0)      # back onto the mother
        jump_code(proto, 1)      # and away again
        assert proto.entries[0].order == 0.0

    def test_landing_on_a_member_clears_its_pointer_but_keeps_the_rest(self):
        proto = make_forwarder(static_model(LINE4))
        jump_code(proto, 1)
        jump_code(proto, 2)
        jump_code(proto, 3)
        jump_code(proto, 1)      # host lands on a chain member
        assert 1 not in proto.entries
        assert proto.entries[3] == ForwarderEntry(1, 3.0)
        # the stretch beyond the new host is orphaned, not erased: its
        # stations have no way to know the walk will never come
        assert proto.entries[2] == ForwarderEntry(3, 2.0)


class TestWalk:
    def test_request_at_the_mother_resolves_locally_for_free(self):
        proto = make_forwarder(static_model(LINE4))
        record = issue(proto, 0.0)
        assert record.resolved_at == 0.0
        assert record.returned_host == 0 and record.truth_host == 0
        assert proto.radio.ledger.recount() == 0

    def test_walk_along_an_intact_chain(self):
        proto = make_forwarder(static_model(LINE4))
        for host in (1, 2, 3):
            jump_code(proto, host)
        record = issue(proto, 0.0)
        proto.engine.run_until(1.0)
        # three forwards at one hop each, then a three-hop reply
        assert record.resolved_at == pytest.approx(0.06)
        assert record.returned_host == 3 and record.truth_host == 3
        assert proto.radio.ledger.units_for_request(1) == 6

    def test_a_walk_past_its_step_budget_fails(self):
        proto = make_forwarder(static_model(LINE4))
        proto._max_steps = 2
        for host in (1, 2, 3):
            jump_code(proto, host)
        proto.engine.run_until(1.0)
        record = issue(proto, 1.0)
        proto.engine.run_until(2.0)
        # stations 0 and 1 forward; arriving at station 2 is the third step
        assert record.status == "failed"
        assert record.failed_at == pytest.approx(1.02)
        assert all(r.kind is not MessageKind.LOCATE_REPLY
                   for r in proto.radio.ledger.rows)

    def test_reactive_resolution_collapses_the_chain(self):
        proto = make_forwarder(static_model(LINE4))
        for host in (1, 2, 3):
            jump_code(proto, host)
        issue(proto, 0.0)
        proto.engine.run_until(1.0)
        assert proto.entries == {0: ForwarderEntry(3, 0.0)}

    def test_proactive_resolution_keeps_the_chain_standing(self):
        proto = make_forwarder(static_model(LINE4), proactive=True)
        for host in (1, 2, 3):
            jump_code(proto, host)
        record = issue(proto, 0.0)
        proto.engine.run_until(0.5)    # resolve before the first tick
        assert record.resolved_at is not None
        assert proto.entries == {0: ForwarderEntry(1, 0.0),
                                 1: ForwarderEntry(2, 1.0),
                                 2: ForwarderEntry(3, 2.0)}


class TestMaintenance:
    def test_reactive_charges_nothing_while_idle(self):
        proto = make_forwarder(static_model(LINE4))
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(10.0)
        assert proto.radio.ledger.recount() == 0

    def test_proactive_ticks_probe_every_link_every_period(self):
        proto = make_forwarder(static_model(LINE4), proactive=True)
        for host in (1, 2, 3):
            jump_code(proto, host)
        proto.engine.run_until(5.5)
        # ticks at 1..5 s probe the three standing links
        assert proto.radio.ledger.by_kind == {"ChainCheck": 15}

    def test_tick_repair_rewires_a_break_without_any_request(self):
        # station 1 walks out of the chain for good; a bystander at (200, 60)
        # bridges the gap for the repair diffusion
        model = scripted_model([
            [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)],
            [(0.0, 200.0, 0.0), (1.0, 200.0, 0.0), (1.2, 5000.0, 0.0),
             (10.0, 5000.0, 0.0)],
            [(0.0, 400.0, 0.0), (10.0, 400.0, 0.0)],
            [(0.0, 200.0, 60.0), (10.0, 200.0, 60.0)],
        ])
        proto = make_forwarder(model, proactive=True)
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(4.0)
        assert 1 not in proto.entries
        assert proto.entries == {0: ForwarderEntry(3, 0.0),
                                 3: ForwarderEntry(2, 1.0)}
        # maintenance traffic is not billed to any request
        assert proto.radio.ledger.units_for_request(None) == proto.radio.ledger.recount()

    def test_tick_repair_stands_down_when_the_entry_goes_during_the_ack_wait(self):
        # the 1 -> 2 link is out of range, so the 1 s tick's probe fails;
        # the code lands on station 1 before the ack timeout runs out
        proto = make_forwarder(static_model([(0, 0), (200, 0), (600, 0)]),
                               proactive=True)
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(1.01)
        assert proto._repair_active == {1}
        jump_code(proto, 1)     # drops station 1's pointer
        proto.engine.run_until(1.5)
        floods = [r for r in proto.radio.ledger.rows
                  if r.kind is MessageKind.CHAIN_REPAIR_FLOOD and r.src == 1]
        assert floods == []
        assert proto._repair_active == set()

    def test_a_tick_skips_a_station_whose_repair_is_in_flight(self):
        # a 50-station line 200 m apart and a code host out of everyone's
        # reach: station 1's link to it fails the 1 s tick, and its repair
        # gives up only after 2 x diameter (49 hops) x latency of silence,
        # at 2.07 s, past the next tick
        line = [(200 * k, 0) for k in range(50)]
        proto = make_forwarder(static_model(line + [(9900, 400)]), proactive=True)
        sent = []
        direct = proto.radio.direct

        def spied(src, dst, kind, t, request_id=None):
            sent.append((src, kind, t))
            return direct(src, dst, kind, t, request_id)

        proto.radio.direct = spied
        jump_code(proto, 1)
        jump_code(proto, 50)
        proto.engine.run_until(2.05)
        assert proto._repair_active == {1}
        # the 2 s tick probes station 0's healthy link and leaves station 1 be
        assert [(src, t) for src, kind, t in sent
                if kind is MessageKind.CHAIN_CHECK] == [(0, 1.0), (1, 1.0), (0, 2.0)]
        floods = [round(r.t, 6) for r in proto.radio.ledger.rows
                  if r.kind is MessageKind.CHAIN_REPAIR_FLOOD]
        assert floods == [1.03, 1.09]


class TestWalkRepairs:
    def repair_model(self):
        # 0 -- 1 -- 2 is the chain; 1 deserts at t=1; 3 sits within range of
        # both 0 and 2 and can be drafted as the replacement relay
        return scripted_model([
            [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)],
            [(0.0, 200.0, 0.0), (1.0, 200.0, 0.0), (1.2, 5000.0, 0.0),
             (10.0, 5000.0, 0.0)],
            [(0.0, 400.0, 0.0), (10.0, 400.0, 0.0)],
            [(0.0, 200.0, 60.0), (10.0, 200.0, 60.0)],
        ])

    def test_reactive_walk_repairs_a_break_in_band(self):
        proto = make_forwarder(self.repair_model())
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(2.0)
        record = issue(proto, 2.0)
        proto.engine.run_until(2.08)
        # silence until the ack timeout, then diffusion, reply and rewire:
        # the drafted relay holds an interpolated order
        assert proto.entries == {0: ForwarderEntry(3, 0.0),
                                 3: ForwarderEntry(2, 1.0)}
        proto.engine.run_until(4.0)
        assert record.resolved_at == pytest.approx(2.11)
        assert record.returned_host == 2 and record.truth_host == 2
        # the resolution then collapsed the repaired chain as usual
        assert proto.entries == {0: ForwarderEntry(2, 0.0)}

    def test_a_repair_path_between_other_endpoints_raises(self, monkeypatch):
        proto = make_forwarder(self.repair_model())
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(2.0)
        flood_path = proto.radio.flood_path
        # the relay path read back from the adoptee to the searcher
        monkeypatch.setattr(proto.radio, "flood_path",
                            lambda flood, node: flood_path(flood, node)[::-1])
        issue(proto, 2.0)
        with pytest.raises(RuntimeError, match="endpoints"):
            proto.engine.run_until(4.0)

    def test_repair_cost_is_charged_to_the_request(self):
        proto = make_forwarder(self.repair_model())
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(2.0)
        record = issue(proto, 2.0, request_id=7)
        proto.engine.run_until(4.0)
        assert record.resolved_at is not None
        # diffusion 3 + reply 2 + two walk hops + two reply hops
        assert proto.radio.ledger.units_for_request(7) == 9
        kinds = set(proto.radio.ledger.by_kind)
        assert {"ChainRepairFlood", "ChainRepairReply"} <= kinds

    def test_only_the_host_and_higher_members_answer_in_ascending_id(self):
        # chain 0 -> 1 -> 2 -> 4 -> host 3; station 2's link to 4 is out of
        # range, and its ttl-3 search reaches every node: the lower members
        # 0 and 1, the non-member 5 that bridges 2 and 4, the higher member
        # 4 and the host 3
        proto = make_forwarder(static_model(
            [(0, 0), (200, 0), (400, 0), (800, 200), (800, 0), (600, 0)]))
        for host in (1, 2, 4, 3):
            jump_code(proto, host)
        record = issue(proto, 0.0)
        proto.engine.run_until(1.0)
        floods = [r for r in proto.radio.ledger.rows
                  if r.kind is MessageKind.CHAIN_REPAIR_FLOOD]
        replies = [(r.src, r.dst) for r in proto.radio.ledger.rows
                   if r.kind is MessageKind.CHAIN_REPAIR_REPLY]
        assert [(r.src, r.units) for r in floods] == [(2, 5)]
        assert replies == [(3, 2), (4, 2)]
        assert record.returned_host == 3

    def test_bypassed_station_is_dropped_from_the_chain(self):
        proto = make_forwarder(self.repair_model())
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(2.0)
        issue(proto, 2.0)
        proto.engine.run_until(2.08)   # after the rewire, before resolution
        assert 1 not in proto.entries

    def test_pointerless_station_is_grafted_just_below_its_adoptee(self):
        proto = make_forwarder(static_model([(0, 0), (200, 0), (400, 0)]))
        proto.entries[0] = ForwarderEntry(1, 0.0)
        proto.code.host = 2
        proto.code.jumps = 5
        record = issue(proto, 0.0)
        proto.engine.run_until(0.05)
        # the dead-end station gets a pointer grafted one order below the
        # host it found, leaving room for the host's future departures
        assert proto.entries[1] == ForwarderEntry(2, 4.0)
        proto.engine.run_until(1.0)
        assert record.resolved_at is not None
        assert record.returned_host == 2

    def test_wrapped_walk_detects_its_own_lap_and_recovers(self):
        # stale pointers loop 1 -> 2 -> 1; the host sits one hop off the
        # loop, and station 2 drifts away so the repair prefers the host
        model = scripted_model([
            [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)],
            [(0.0, 200.0, 0.0), (10.0, 200.0, 0.0)],
            [(0.0, 400.0, 0.0), (2.025, 400.0, 0.0), (2.035, 650.0, 0.0),
             (10.0, 650.0, 0.0)],
            [(0.0, 450.0, 0.0), (10.0, 450.0, 0.0)],
        ])
        proto = make_forwarder(model)
        proto.entries[0] = ForwarderEntry(1, 0.0)
        proto.entries[1] = ForwarderEntry(2, 1.0)
        proto.entries[2] = ForwarderEntry(1, 1.5)
        proto.code.host = 3
        proto.code.jumps = 3
        proto.engine.run_until(2.0)
        record = issue(proto, 2.0)
        proto.engine.run_until(2.09)
        # the lap was caught at station 1 and the repair bridged it
        # straight to the host, erasing the loop edge
        assert proto.entries[1] == ForwarderEntry(3, 1.0)
        assert 2 not in proto.entries
        proto.engine.run_until(4.0)
        assert record.resolved_at is not None
        assert record.returned_host == 3 and record.truth_host == 3
        assert proto.entries == {0: ForwarderEntry(3, 0.0)}


def released_walk_events() -> tuple[int, int]:
    """The executed and the cancelled-skip event counts of a 60 s proactive
    run with a fast code."""
    engine = run_scenario(ScenarioConfig(
        protocol="forwarder_proactive", lam=1.0, code_band="high",
        node_mob="high", seed=3, duration=60.0)).engine
    return engine.executed, engine.skipped_cancelled


def pinned_values() -> dict:
    executed, skipped = released_walk_events()
    return {"forwarder.released_walks.executed": executed,
            "forwarder.released_walks.skipped_cancelled": skipped}


class TestParking:
    def parking_model(self):
        # station 1 leaves at t=1.5 and returns at t=3.5; nobody can bridge
        # 0 to 2 in the meantime
        return scripted_model([
            [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)],
            [(0.0, 200.0, 0.0), (1.5, 200.0, 0.0), (1.6, 5000.0, 0.0),
             (3.4, 5000.0, 0.0), (3.5, 200.0, 0.0), (10.0, 200.0, 0.0)],
            [(0.0, 400.0, 0.0), (10.0, 400.0, 0.0)],
        ])

    def test_proactive_walk_parks_and_resumes_when_the_link_heals(self):
        proto = make_forwarder(self.parking_model(), proactive=True)
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(2.0)
        record = issue(proto, 2.0, request_id=5)
        proto.engine.run_until(6.0)
        # the 4 s tick sees the healed link and releases the walk
        assert record.resolved_at == pytest.approx(4.04)
        assert record.returned_host == 2
        assert proto._parked == {}
        # the wait itself costs the request nothing beyond its own messages
        assert proto.radio.ledger.units_for_request(5) == 4

    def test_parked_walk_gives_up_after_the_configured_ticks(self):
        model = scripted_model([
            [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)],
            [(0.0, 200.0, 0.0), (1.5, 200.0, 0.0), (1.6, 5000.0, 0.0),
             (10.0, 5000.0, 0.0)],
            [(0.0, 400.0, 0.0), (10.0, 400.0, 0.0)],
        ])
        proto = make_forwarder(model, proactive=True)
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(2.0)
        record = issue(proto, 2.0)
        proto.engine.run_until(8.0)
        assert record.status == "failed"
        # parked at 2.03 after the ack timeout, three tick periods of grace
        assert record.failed_at == pytest.approx(5.03)

    def test_a_jump_at_the_broken_station_releases_the_walk(self):
        proto = make_forwarder(self.parking_model(), proactive=True)
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(2.0)
        record = issue(proto, 2.0)
        proto.engine.run_until(2.5)
        assert 0 in proto._parked
        # the code hops back onto the broken station: the walk is already there
        jump_code(proto, 0)
        proto.engine.run_until(3.0)
        assert record.resolved_at is not None
        assert record.returned_host == 0

    def test_releasing_a_walk_its_timeout_failed_cancels_nothing(self):
        model = scripted_model([
            [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)],
            [(0.0, 200.0, 0.0), (1.5, 200.0, 0.0), (1.6, 5000.0, 0.0),
             (10.0, 5000.0, 0.0)],
            [(0.0, 400.0, 0.0), (10.0, 400.0, 0.0)],
        ])
        proto = make_forwarder(model, proactive=True)
        jump_code(proto, 1)
        jump_code(proto, 2)
        proto.engine.run_until(2.0)
        record = issue(proto, 2.0)
        proto.engine.run_until(6.0)
        assert record.failed_at == pytest.approx(5.03) and 0 in proto._parked
        # the code hops back onto the station the failed walk parked at
        jump_code(proto, 0)
        assert proto._parked == {}
        assert record.failed_at == pytest.approx(5.03)
        # a handle of an event that has run would never be popped again
        pending = {seq for _, seq, _ in proto.engine._heap}
        assert proto.engine._cancelled <= pending

    def test_released_walks_cancel_their_timeouts(self):
        # executed events are deterministic, so a timeout left to fire, or
        # a cancel that drops the wrong event, shows as a count
        executed, skipped = released_walk_events()
        assert executed == pin("forwarder.released_walks.executed")
        assert skipped == pin("forwarder.released_walks.skipped_cancelled")

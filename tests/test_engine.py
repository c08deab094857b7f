"""Event ordering, cancellation, tracing and named RNG stream independence."""

import numpy as np
import pytest

from adhocloc.engine import Engine, stream

#: the streams a run reads unkeyed; the mobility streams are keyed by node
UNKEYED = ("workload", "code-migration", "protocol")


def test_events_fire_in_time_order():
    engine = Engine()
    seen = []
    engine.schedule(2.0, lambda: seen.append("late"))
    engine.schedule(1.0, lambda: seen.append("early"))
    engine.schedule(1.5, lambda: seen.append("mid"))
    engine.run_until(10.0)
    assert seen == ["early", "mid", "late"]
    assert engine.executed == 3
    assert engine.now == 10.0


def test_same_instant_events_run_in_schedule_order():
    engine = Engine()
    seen = []
    for tag in ("a", "b", "c", "d"):
        engine.schedule(3.0, lambda tag=tag: seen.append(tag))
    engine.run_until(3.0)
    assert seen == ["a", "b", "c", "d"]


def test_run_until_includes_the_boundary_instant():
    engine = Engine()
    seen = []
    engine.schedule(5.0, lambda: seen.append("edge"))
    engine.schedule(5.0000001, lambda: seen.append("past"))
    engine.run_until(5.0)
    assert seen == ["edge"]
    assert engine.now == 5.0
    engine.run_until(6.0)
    assert seen == ["edge", "past"]


def test_actions_may_schedule_followups_inside_the_run():
    engine = Engine()
    seen = []

    def first():
        seen.append("first")
        engine.schedule(engine.now + 1.0, lambda: seen.append("second"))

    engine.schedule(1.0, first)
    engine.run_until(10.0)
    assert seen == ["first", "second"]


def test_scheduling_in_the_past_raises():
    engine = Engine()
    engine.run_until(5.0)
    with pytest.raises(RuntimeError, match="cannot schedule"):
        engine.schedule(4.0, lambda: None)


def test_running_backwards_raises():
    engine = Engine()
    engine.run_until(5.0)
    with pytest.raises(RuntimeError, match="backwards"):
        engine.run_until(4.0)


def test_cancelled_events_are_skipped_and_counted():
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: seen.append("keep"))
    drop = engine.schedule(2.0, lambda: seen.append("drop"))
    engine.cancel(drop)
    engine.run_until(3.0)
    assert seen == ["keep"]
    assert engine.executed == 1
    assert engine.skipped_cancelled == 1


def test_cancelling_an_event_that_already_ran_changes_nothing():
    engine = Engine()
    seen = []
    done = engine.schedule(1.0, lambda: seen.append("done"))
    engine.run_until(1.5)
    engine.cancel(done)
    engine.schedule(2.0, lambda: seen.append("later"))
    engine.run_until(3.0)
    assert seen == ["done", "later"]
    assert engine.executed == 2
    assert engine.skipped_cancelled == 0


def test_executed_counts_only_the_events_that_ran():
    engine = Engine()
    for k in range(5):
        engine.schedule(float(k), lambda: None)
    engine.run_until(2.5)
    assert engine.executed == 3


class TestStream:
    def test_same_seed_replays_identically(self):
        for name in UNKEYED:
            assert np.array_equal(stream(42, name).random(32),
                                  stream(42, name).random(32))

    def test_different_seeds_differ(self):
        assert not np.array_equal(stream(1, "workload").random(16),
                                  stream(2, "workload").random(16))

    def test_draws_on_one_stream_never_shift_another(self):
        plain = stream(7, "code-migration")
        stream(7, "workload").random(1000)
        stream(7, "protocol").random(1000)
        assert np.array_equal(plain.random(32),
                              stream(7, "code-migration").random(32))

    def test_streams_are_mutually_distinct(self):
        draws = [stream(3, name).random(16) for name in UNKEYED]
        draws.append(stream(3, "mobility", 0).random(16))
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_substream_is_keyed_and_stable(self):
        a = stream(9, "mobility", 4)
        b = stream(9, "mobility", 4)
        c = stream(9, "mobility", 5)
        ref = a.random(16)
        assert np.array_equal(ref, b.random(16))
        assert not np.array_equal(ref, c.random(16))

    def test_substream_does_not_consume_the_parent(self):
        plain = stream(11, "workload")
        forked = stream(11, "workload")
        for key in range(8):
            stream(11, "mobility", key).random(64)
        assert np.array_equal(plain.random(16), forked.random(16))

    def test_unknown_stream_name_raises(self):
        with pytest.raises(ValueError):
            stream(1, "weather", 0)

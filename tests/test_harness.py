"""Config parsing, scenario runs, sweeps, CSV output and the CLI."""

import ast
import contextlib
import gc
import hashlib
import importlib
import io
import re
import tempfile
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import adhocloc
from adhocloc import cli, kernels, scenario, sweep
from adhocloc.config import (CODE_BANDS, JUMP_RATES, KEY_ALIASES, PROTOCOLS,
                             ConfigError, NODE_SPEED_PRESETS, ScenarioConfig,
                             parse_config_text)
from adhocloc.engine import DRAW_BLOCK, stream
from adhocloc.metrics import MetricsReport
from adhocloc.mobility import RandomWaypointModel
from adhocloc.protocols.base import CodeMigrationProcess, LocalizationProtocol
from adhocloc.radio import PER_HOP_LATENCY, Radio
from adhocloc.scenario import World, WorldKey, run_scenario
from adhocloc.sweep import (AVERAGE_SEED, CSV_COLUMNS, average_row, cell_rows,
                            comparison_table, run_sweep, write_csv)
from conftest import build_ctx, classify_mobility, scripted_model, static_model
import pins
from pins import pin


def short_cfg(**overrides):
    base = dict(duration=15.0, lam=0.5, warmup=2.0, seed=1)
    base.update(overrides)
    return ScenarioConfig(**base)


def made_report(cfg: ScenarioConfig, **values) -> MetricsReport:
    """A report of the given results for `cfg`, without running it."""
    results = dict(measured_mob=5.0, n_requests=10, n_resolved=10, n_failed=0,
                   n_in_flight=0, n_warmup=0, total_messages=100, by_kind={},
                   rtime_s=0.5)
    results.update(values)
    return MetricsReport(cfg=cfg, **results)


def reads_within_horizon(patch) -> list[float]:
    """Make every topology read (`Radio._rows`, which the link timeline
    answers) and every position read assert that it falls at or before the
    mobility model's horizon; returns a list whose one item is the latest
    time read so far."""
    latest = [0.0]

    def checked(read, model_of):
        def wrapper(owner, *args):
            t = args[-1]
            assert t <= model_of(owner).horizon, t
            latest[0] = max(latest[0], t)
            return read(owner, *args)
        return wrapper

    patch.setattr(Radio, "_rows", checked(Radio._rows, lambda radio: radio.model))
    for name in ("positions", "position"):
        patch.setattr(RandomWaypointModel, name,
                      checked(getattr(RandomWaypointModel, name), lambda model: model))
    return latest


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def non_finite_overrides(bad: float) -> list[dict]:
    """Config keywords that put `bad` in each float field, and in either
    member of each pair."""
    return [*({f.name: bad} for f in fields(ScenarioConfig) if f.type == "float"),
            {"area": (bad, 500.0)}, {"area": (1000.0, bad)},
            {"node_mob": "custom", "node_speed": (bad, 15.0)},
            {"node_mob": "custom", "node_speed": (8.0, bad)}]


@st.composite
def fuzz_config_keys(draw):
    """Config keywords of small random scenarios, valid or not: the whole
    range of sizes, geometries, loads and speeds a run must survive, and now
    and then a NaN, an infinity or a negative seed."""
    n_nodes = draw(st.integers(2, 12))
    speeds = sorted(draw(st.floats(0.1, 30.0)) for _ in range(2))
    keys = dict(
        n_nodes=n_nodes,
        area=(draw(st.floats(10.0, 2000.0)), draw(st.floats(10.0, 2000.0))),
        range=draw(st.floats(10.0, 600.0)),
        lam=draw(st.sampled_from([0.05, 0.5, 2.0, 8.0])),
        node_mob="custom", node_speed=tuple(speeds),
        code_band=draw(st.sampled_from(CODE_BANDS)),
        n_zones=draw(st.integers(1, 6)),
        duration=draw(st.floats(5.0, 40.0)),
        protocol=draw(st.sampled_from(PROTOCOLS)),
        mother=draw(st.integers(0, n_nodes - 1)),
        seed=draw(st.integers(0, 2**16)))
    # now and then one value no run can use: a negative seed, or a NaN or an
    # infinity in one float field or pair member
    spoil = draw(st.integers(0, 9))
    if spoil == 8:
        keys["seed"] = -keys["seed"] - 1
    elif spoil == 9:
        bad = draw(st.sampled_from(NON_FINITE))
        keys.update(draw(st.sampled_from(non_finite_overrides(bad))))
    return keys


#: the keys the fuzz property's horizon examples share
HORIZON_PROBE = dict(lam=8.0, range=300.0, area=(600.0, 600.0), node_mob="custom",
                     node_speed=(10.0, 30.0), code_band="high", n_zones=2,
                     mother=0, duration=10.0)


class TestConfig:
    def test_defaults_validate_and_fill_the_speed_preset(self):
        cfg = ScenarioConfig()
        assert cfg.node_speed == NODE_SPEED_PRESETS["medium"]
        assert cfg.jump_rate == 0.5
        assert cfg.mob_target == 5.0
        for band in CODE_BANDS:
            assert cfg.replace(code_band=band).jump_rate == JUMP_RATES[band]

    def test_flat_text_parses_comments_aliases_and_pairs(self):
        cfg = parse_config_text("""
            # comparison load point
            lambda = 0.25
            protocol = centralized
            area = 1000x500
            node_speed = 3, 6
            seed = 7
        """)
        assert cfg.lam == 0.25
        assert cfg.protocol == "centralized"
        assert cfg.area == (1000.0, 500.0)
        # an explicit speed without a mobility label means a custom band
        assert cfg.node_mob == "custom" and cfg.node_speed == (3.0, 6.0)
        assert cfg.mob_target is None
        assert cfg.seed == 7

    def test_unknown_keys_and_malformed_lines_are_rejected(self):
        with pytest.raises(ConfigError, match="line 1.*unknown"):
            parse_config_text("latency = 3")
        # fixed protocol parameters are constants, not config keys
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("max_retries = 1")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("protocol centralized")
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text("n_nodes = many")
        # errors name the key as written in the file, not the field
        with pytest.raises(ConfigError, match="lambda expects a number"):
            parse_config_text("lambda = abc")

    def test_pairs_parse_in_every_spelling(self):
        for raw in ("1000x500", "1000X500", "1000 500", "1000,500"):
            assert parse_config_text(f"area = {raw}").area == (1000.0, 500.0)
        for raw in ("3,6", "3, 6", "3 6"):
            cfg = parse_config_text(f"node_speed = {raw}")
            assert cfg.node_speed == (3.0, 6.0)
        for raw in ("3", "a,b", "1x2x3", ""):
            with pytest.raises(ConfigError, match="node_speed expects two numbers"):
                parse_config_text(f"node_speed = {raw}")

    def test_validation_guards_the_interesting_edges(self):
        with pytest.raises(ConfigError, match="protocol"):
            ScenarioConfig(protocol="flooding")
        with pytest.raises(ConfigError, match="n_zones <= n_nodes"):
            ScenarioConfig(protocol="zoned", n_zones=26)
        assert ScenarioConfig(protocol="zoned", n_zones=1).n_zones == 1
        with pytest.raises(ConfigError, match="mother"):
            ScenarioConfig(n_nodes=5, mother=5)
        with pytest.raises(ConfigError, match="metric_dt"):
            ScenarioConfig(duration=1.0, metric_dt=1.0)
        with pytest.raises(ConfigError, match="node_speed"):
            ScenarioConfig(node_mob="custom")
        for bad, word in [({"code_band": "fast"}, "code_band"),
                          ({"node_mob": "brisk"}, "node_mob"),
                          ({"node_mob": "custom", "node_speed": (6.0, 3.0)}, "min <= max"),
                          ({"node_mob": "custom", "node_speed": (0.0, 3.0)}, "0 < min"),
                          ({"area": (1000.0, 0.0)}, "area"),
                          ({"n_nodes": 1}, "two nodes"),
                          ({"range": 0.0}, "range"),
                          ({"n_zones": 0}, "n_zones must be >= 1"),
                          ({"metric_dt": 0.0}, "metric_dt must be positive"),
                          ({"report_period": 0.0}, "report_period must be positive"),
                          ({"central_report_period": -1.0},
                           "central_report_period must be positive"),
                          ({"warmup": -1.0}, "warmup"),
                          ({"partition_grace": 0.0}, "partition_grace"),
                          ({"seed": -1}, "seed must be >= 0")]:
            with pytest.raises(ConfigError, match=word):
                ScenarioConfig(**bad)

    @pytest.mark.parametrize(
        "overrides", [keys for bad in NON_FINITE for keys in non_finite_overrides(bad)],
        ids=lambda keys: ",".join(f"{key}={value}" for key, value in keys.items()))
    def test_no_float_field_takes_a_nan_or_an_infinity(self, overrides):
        with pytest.raises(ConfigError, match="must be finite"):
            ScenarioConfig(**overrides)

    def test_a_mobility_label_brings_its_preset_speed(self):
        cfg = ScenarioConfig()
        assert cfg.replace(node_mob="high").node_speed == NODE_SPEED_PRESETS["high"]
        custom = cfg.replace(node_speed=(3.0, 6.0))
        assert custom.node_mob == "custom" and custom.node_speed == (3.0, 6.0)
        # a custom band keeps its speed; a preset label must come with its
        # own preset speed, so a row's label always describes its run
        assert custom.replace(node_mob="custom").node_speed == (3.0, 6.0)
        assert cfg.replace(node_mob="low", node_speed=(2.0, 4.5)).node_mob == "low"
        with pytest.raises(ConfigError, match="node_mob=low"):
            cfg.replace(node_mob="low", node_speed=(3.0, 6.0))
        with pytest.raises(ConfigError, match="node_mob=high"):
            ScenarioConfig(node_mob="high", node_speed=(3.0, 6.0))

    def test_replace_validates_a_copy_and_leaves_the_original_alone(self):
        cfg = ScenarioConfig()
        other = cfg.replace(lam=1.0, protocol="zoned", n_zones=4)
        assert other.lam == 1.0 and cfg.lam == 0.25
        with pytest.raises(ConfigError):
            cfg.replace(lam=-1.0)

    def test_a_config_is_checked_when_built_and_cannot_change(self):
        with pytest.raises(ConfigError, match="lambda"):
            ScenarioConfig(lam=-1.0)
        cfg = short_cfg()
        with pytest.raises(FrozenInstanceError):
            cfg.lam = 1.0
        # a hand-wired context gets the filled preset too
        assert (build_ctx(static_model([(0, 0), (100, 0)])).cfg.node_speed
                == NODE_SPEED_PRESETS["medium"])
        assert run_scenario(cfg).cfg is cfg

    def test_the_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("#### Config keys", 1)[1].split("\n#", 1)[0]
        listed = [KEY_ALIASES.get(key, key)
                  for key in re.findall(r"^- `(\w+)`", section, flags=re.M)]
        assert listed == [f.name for f in fields(ScenarioConfig)]


def arrivals_loop(rng, lam, duration):
    """Loop reference for the request arrivals: one scalar `exponential` call
    per gap, summed one at a time."""
    arrivals, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / lam))
        if t > duration:
            return arrivals
        arrivals.append(t)


def recorded_streams(patch) -> list[tuple]:
    """Record the entropy of every `SeedSequence` built from here on; each
    random stream of a run is seeded by one."""
    built, seed_sequence = [], np.random.SeedSequence

    def recording(entropy=None, *args, **kwargs):
        built.append(tuple(entropy))
        return seed_sequence(entropy, *args, **kwargs)

    patch.setattr(np.random, "SeedSequence", recording)
    return built


class TestScenario:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 4.0])
    def test_arrivals_equal_one_exponential_call_per_gap(self, lam):
        for seed, duration in ((1, 200.0), (5, 60.0), (9, 1000.0)):
            arrivals = scenario._draw_arrivals(seed, lam, duration)
            assert arrivals == arrivals_loop(stream(seed, "workload"), lam, duration)
        # the 1,000 s run's gaps take more than one block at every λ
        assert len(arrivals) > DRAW_BLOCK

    def test_same_seed_reruns_are_byte_identical(self):
        cfg = short_cfg()
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert cell_rows([first.report]) == cell_rows([second.report])
        bufs = []
        for result in (first, second):
            buf = io.StringIO()
            write_csv([[result.report]], buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_different_seeds_diverge(self):
        first = run_scenario(short_cfg(seed=1))
        second = run_scenario(short_cfg(seed=2))
        assert (first.report.measured_mob != second.report.measured_mob
                or first.report.nb_msg != second.report.nb_msg)

    def test_requests_partition_into_statuses_and_units_are_attached(self):
        result = run_scenario(short_cfg())
        assert len(result.records) == result.report.n_requests + result.report.n_warmup
        for record in result.records:
            assert record.status in ("resolved", "failed", "in_flight")
            assert record.units >= 0
        assert result.report.total_messages == result.ledger.recount()

    def test_a_lasting_partition_aborts_with_a_dated_reason(self):
        cfg = short_cfg(range=1.0, partition_grace=2.0, duration=10.0)
        result = run_scenario(cfg)
        assert result.aborted and result.report.aborted
        assert re.fullmatch(
            r"network partitioned since t=1\.000, still split at t=3\.000",
            result.abort_reason)

    @pytest.mark.parametrize("seed, mob", [(3, "medium"), (3, "high"),
                                           (7001, "medium"), (7001, "high")])
    def test_every_protocol_sees_the_same_requests_and_jumps(self, seed, mob):
        # common random numbers: a paired comparison of the protocols rests on
        # each of them facing the same request arrivals and code jumps
        jumps = {}
        jump = CodeMigrationProcess._jump

        def recording_jump(mover):
            made, old_host = mover.jumps_made, mover.protocol.code.host
            jump(mover)
            if mover.jumps_made > made:
                jumps.setdefault(mover, []).append(
                    (mover.protocol.engine.now, old_host, mover.protocol.code.host))

        seen = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CodeMigrationProcess, "_jump", recording_jump)
            for protocol in PROTOCOLS:
                result = run_scenario(ScenarioConfig(
                    protocol=protocol, lam=1.0, node_mob=mob, code_band=mob,
                    seed=seed, duration=200.0))
                assert not result.aborted
                seen.append(([r.issued_at for r in result.records],
                             jumps.pop(result.mover)))
        arrivals, moves = seen[0]
        assert len(arrivals) > 100 and len(moves) > 50
        assert all(other == seen[0] for other in seen[1:])

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_run_builds_only_the_streams_it_reads(self, protocol, monkeypatch):
        # (seed, 0, node) mobility, (seed, 1) workload, (seed, 2) code
        # migration; only the server protocols read (seed, 3), their jitter
        built = recorded_streams(monkeypatch)
        cfg = short_cfg(protocol=protocol, seed=5)
        run_scenario(cfg)
        expected = [(5, 0, v) for v in range(cfg.n_nodes)] + [(5, 1), (5, 2)]
        if protocol in ("centralized", "zoned"):
            expected.append((5, 3))
        assert Counter(built) == Counter(expected)

    def test_a_world_builds_one_mobility_stream_per_node(self, monkeypatch):
        built = recorded_streams(monkeypatch)
        cfg = short_cfg(seed=5)
        World(cfg).model
        assert built == [(5, 0, v) for v in range(cfg.n_nodes)]

    @settings(max_examples=360, derandomize=True, deadline=None)
    @given(keys=fuzz_config_keys())
    # two runs whose reads go past their duration, though not past the
    # horizon: a horizon at the duration fails both
    @example(keys=dict(HORIZON_PROBE, protocol="forwarder_reactive", n_nodes=12, seed=1))
    @example(keys=dict(HORIZON_PROBE, protocol="zoned", n_nodes=6, seed=0))
    def test_random_configs_finish_or_are_rejected(self, keys):
        # a run ends, aborted or not, or its config is refused; no other
        # exception, no read past the model's horizon, and every request's
        # units recount from the raw log
        try:
            with pytest.MonkeyPatch.context() as patch:
                reads_within_horizon(patch)
                result = run_scenario(ScenarioConfig(**keys))
        except ConfigError:
            return
        units = Counter()
        for row in result.ledger.rows:
            units[row.request_id] += row.units
        assert all(r.units == units[r.request_id] for r in result.records)

    def test_the_model_horizon_covers_the_reads_after_the_last_event(self):
        # messages in flight when the run ends still have hops checked, so
        # a run may read past its duration, but never past the horizon
        with pytest.MonkeyPatch.context() as patch:
            reads_within_horizon(patch)
            for protocol in PROTOCOLS:
                for seed in (1, 2):
                    run_scenario(ScenarioConfig(protocol=protocol, lam=4.0,
                                                node_mob="high", code_band="high",
                                                duration=100.0, seed=seed))

    def test_a_query_sent_at_the_end_is_checked_past_it(self, monkeypatch):
        # the world's model, built with the horizon the world gives it, is a
        # line 0-1-2-3-4 with node 5 above node 2, leaving its range at
        # t = 20. The one request comes at t = 20, the run's end, with the
        # code off the mother at seed 2, and its query to the agent (node 2,
        # two hops off) leaves at that crossing, where no window answers, so
        # its second hop is checked past the end
        def line(*args, horizon):
            model = scripted_model([[(0.0, 200.0 * k, 0.0)] for k in range(5)]
                                   + [[(0.0, 400.0, 200.0), (40.0, 400.0, 300.0)]])
            model.horizon = horizon
            return model

        monkeypatch.setattr(scenario, "RandomWaypointModel", line)
        monkeypatch.setattr(scenario, "_draw_arrivals", lambda seed, lam, end: [end])
        latest = reads_within_horizon(monkeypatch)
        result = run_scenario(short_cfg(protocol="centralized", n_nodes=6,
                                        duration=20.0, seed=2))
        assert result.protocol.agent.host == 2
        (record,) = result.records
        assert record.units == 2 and record.resolved_at is None
        assert latest[0] == pytest.approx(20.0 + PER_HOP_LATENCY)

    @pytest.mark.parametrize("overrides, parked", [
        *(pytest.param({"protocol": p}, False, id=p) for p in PROTOCOLS),
        pytest.param({"protocol": "forwarder_proactive", "node_mob": "high",
                      "code_band": "high", "lam": 4.0, "seed": 8,
                      "duration": 60.0}, True, id="parked-walks"),
        pytest.param({"range": 1.0, "partition_grace": 2.0, "duration": 10.0},
                     False, id="aborted"),
    ])
    def test_a_finished_run_is_freed_without_the_cyclic_collector(self, overrides,
                                                                   parked):
        # pending events hold closures over the protocol, which holds the
        # engine; a run left to the collector keeps its ledger alive
        gc.disable()
        try:
            result = run_scenario(short_cfg(**overrides))
            if parked:
                # the protocol holds its parked walks' timeout handles
                assert any(result.protocol._parked.values())
            protocol = weakref.ref(result.protocol)
            del result
            assert protocol() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("overrides", [
        *(pytest.param({"protocol": p, "n_zones": z, "lam": 4.0, "node_mob": "high",
                        "seed": seed}, id=f"{p}-{z}-seed{seed}")
          for p, z in (("forwarder_proactive", 2), ("forwarder_reactive", 2),
                       ("centralized", 2), ("zoned", 2), ("zoned", 4))
          for seed in (1, 4)),
        pytest.param({"protocol": "forwarder_proactive", "lam": 4.0, "node_mob": "low",
                      "seed": 4}, id="aborted"),
    ])
    def test_a_request_ends_at_most_once(self, monkeypatch, overrides):
        # the outcomes set a record's end without looking at it first, so a
        # second end would overwrite the first; at seed 4 the proactive
        # chain releases walks whose requests had already timed out
        ends = Counter()

        def counted(outcome):
            def wrapper(self, record, *args):
                ends[record.request_id] += 1
                return outcome(self, record, *args)
            return wrapper

        for name in ("_resolve", "_fail"):
            monkeypatch.setattr(LocalizationProtocol, name,
                                counted(getattr(LocalizationProtocol, name)))
        result = run_scenario(ScenarioConfig(duration=60.0, **overrides))
        assert result.aborted == (overrides["node_mob"] == "low")
        assert ends and set(ends.values()) == {1}
        assert sorted(ends) == [r.request_id for r in result.records if r.done]


class TestSweep:
    def test_grid_rows_come_per_seed_then_averaged(self):
        results = []
        cells = run_sweep(short_cfg(),
                          protocols=["forwarder_reactive", "centralized"],
                          lambdas=[0.5], node_mobs=["medium"],
                          code_bands=["medium"], seeds=[1, 2],
                          on_result=results.append)
        # one cell per protocol, its reports in seed order, each labelled by
        # the config that ran it
        labels = [[(r.cfg.protocol, r.cfg.seed) for r in cell] for cell in cells]
        assert labels == [[("forwarder_reactive", 1), ("forwarder_reactive", 2)],
                          [("centralized", 1), ("centralized", 2)]]
        # the hook sees each run's result, in the order the reports come back
        reports = [report for cell in cells for report in cell]
        assert len(results) == len(reports)
        assert all(result.report is report for result, report in zip(results, reports))
        rows = [row for cell in cells for row in cell_rows(cell)]
        assert len(rows) == 6 and write_csv(cells, io.StringIO()) == 6
        assert [(row["protocol"], row["seed"]) for row in rows
                if row["seed"] != AVERAGE_SEED] == labels[0] + labels[1]
        for base in (0, 3):
            seeds = [rows[base + k]["seed"] for k in range(3)]
            assert seeds == [1, 2, AVERAGE_SEED]
            expected = (rows[base]["nb_msg"] + rows[base + 1]["nb_msg"]) / 2
            assert rows[base + 2]["nb_msg"] == pytest.approx(expected)

    def test_single_seed_grids_skip_the_average_row(self):
        cells = run_sweep(short_cfg(), protocols=["forwarder_reactive"],
                          lambdas=[0.5], node_mobs=["medium"],
                          code_bands=["medium"], seeds=[3])
        assert len(cells) == 1 and len(cells[0]) == 1
        rows = cell_rows(cells[0])
        assert len(rows) == 1 and rows[0]["seed"] == 3
        assert write_csv(cells, io.StringIO()) == 1
        # without averaging, a cell of many seeds gives its per-seed rows only
        twice = [cells[0][0], cells[0][0]]
        assert [row["seed"] for row in cell_rows(twice, average=False)] == [3, 3]

    def test_a_bad_axis_value_stops_the_grid_before_any_cell_runs(self):
        ran = []
        with pytest.raises(ConfigError, match="bogus"):
            run_sweep(short_cfg(), protocols=["zoned", "bogus"], lambdas=[1.0],
                      node_mobs=["medium"], code_bands=["medium"],
                      seeds=[1, 2, 3], on_result=ran.append)
        assert len(ran) == 0

    @pytest.mark.parametrize("axis", ["protocols", "lambdas", "node_mobs",
                                      "code_bands", "seeds"])
    def test_an_empty_axis_stops_the_grid_before_any_cell_runs(self, axis):
        axes = dict(protocols=["zoned"], lambdas=[1.0], node_mobs=["medium"],
                    code_bands=["medium"], seeds=[1, 2])
        axes[axis] = []
        ran = []
        with pytest.raises(ConfigError, match=f"sweep axis {axis} names no value"):
            run_sweep(short_cfg(), **axes, on_result=ran.append)
        assert len(ran) == 0

    @pytest.mark.parametrize("protocols, overrides", [
        *(pytest.param([p], {}, id=p) for p in PROTOCOLS),
        pytest.param(["zoned"], {"n_zones": 4}, id="zoned-4"),
        pytest.param(list(PROTOCOLS), {"range": 1.0, "partition_grace": 2.0,
                                       "duration": 10.0}, id="aborted"),
    ])
    def test_a_shared_world_changes_no_value(self, protocols, overrides):
        results = []
        run_sweep(short_cfg(**overrides), protocols=protocols, lambdas=[0.5, 2.0],
                  node_mobs=["medium"], code_bands=["medium"], seeds=[1, 2],
                  on_result=results.append)
        # runs at one seed read one model: the second λ's seed-1 run reuses
        # the first one's
        assert results[0].model is results[2].model
        assert results[0].model is not results[1].model
        for shared in results:
            alone = run_scenario(shared.cfg)
            assert shared.records == alone.records
            assert list(shared.ledger.rows) == list(alone.ledger.rows)
            assert ((shared.mover.jumps_attempted, shared.mover.jumps_made)
                    == (alone.mover.jumps_attempted, alone.mover.jumps_made))
            assert shared.report.measured_mob == alone.report.measured_mob
            assert shared.abort_reason == alone.abort_reason
        assert all(r.aborted for r in results) == ("range" in overrides)

    def test_each_world_is_built_once_and_then_freed(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RandomWaypointModel, "__init__",
                            counted("model", RandomWaypointModel.__init__))
        monkeypatch.setattr(kernels, "range_crossings",
                            counted("span", kernels.range_crossings))
        monkeypatch.setattr(scenario, "network_mobility",
                            counted("mob", scenario.network_mobility))
        models = []
        gc.disable()
        try:
            cells = run_sweep(short_cfg(), protocols=list(PROTOCOLS), lambdas=[0.5, 2.0],
                              node_mobs=["medium"], code_bands=["medium"], seeds=[1, 2],
                              on_result=lambda result: models.append(weakref.ref(result.model)))
            assert [len(reports) for reports in cells] == [2] * (4 * 2)
            # one world per seed, and nothing holds it once the sweep is
            # done: not even the reports it returns
            assert calls == {"model": 2, "span": 2, "mob": 2}
            assert len(models) == 16 and all(ref() is None for ref in models)
        finally:
            gc.enable()

    @pytest.mark.parametrize("field, value", [("seed", 2), ("range", 200.0)])
    def test_a_world_of_another_key_is_refused(self, field, value):
        world = World(ScenarioConfig(**{field: value}))
        with pytest.raises(ValueError, match=rf"another {field} than"):
            run_scenario(ScenarioConfig(), world)

    def test_pairs_given_as_lists_key_a_world(self):
        # a sweep keeps its worlds in a dict, so the key must hash
        cfg = ScenarioConfig(area=[800.0, 400.0], node_mob="custom",
                             node_speed=[2.0, 4.0])
        assert (cfg.area, cfg.node_speed) == ((800.0, 400.0), (2.0, 4.0))
        hash(WorldKey.of(cfg))

    def test_average_row_means_numbers_and_ors_aborts(self):
        rows = [
            {"protocol": "zoned", "lambda": 0.25, "node_mob_target": 5.0,
             "measured_mob": 4.0, "code_band": "medium", "seed": 1,
             "n_requests": 10, "n_failed": 1, "total_messages": 100,
             "nb_msg": 10.0, "rtime_s": 0.5, "aborted": False},
            {"protocol": "zoned", "lambda": 0.25, "node_mob_target": 5.0,
             "measured_mob": 6.0, "code_band": "medium", "seed": 2,
             "n_requests": 20, "n_failed": 0, "total_messages": 200,
             "nb_msg": 10.0, "rtime_s": 0.7, "aborted": True},
        ]
        avg = average_row(rows)
        assert avg["seed"] == AVERAGE_SEED
        assert avg["measured_mob"] == 5.0 and avg["rtime_s"] == pytest.approx(0.6)
        assert avg["aborted"] is True
        with pytest.raises(ValueError):
            average_row([])

    def test_csv_formatting_is_fixed_width_ascii(self):
        # a custom node speed has no mobility target: its cell is blank
        cfg = ScenarioConfig(protocol="zoned", lam=0.25, node_mob="custom",
                             node_speed=(3.0, 6.0), code_band="medium")
        cell = [made_report(cfg.replace(seed=1), measured_mob=4.0, n_requests=3,
                            total_messages=37, rtime_s=0.0625),
                made_report(cfg.replace(seed=2), measured_mob=4.5, n_requests=3,
                            n_failed=1, total_messages=37, rtime_s=0.0625)]
        buf = io.StringIO()
        assert write_csv([cell], buf) == 3
        header, *lines, tail = buf.getvalue().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert lines == ["zoned,0.25,,4,medium,1,3,0,37,12.3333333,0.0625,0",
                         "zoned,0.25,,4.5,medium,2,3,1,37,12.3333333,0.0625,0",
                         "zoned,0.25,,4.25,medium,avg,3,0.5,37,12.3333333,0.0625,0"]
        assert tail == ""

    def test_comparison_table_ranks_cheapest_first(self):
        def cell(protocol, totals, rtime_s):
            cfg = ScenarioConfig(protocol=protocol, lam=0.25)
            return [made_report(cfg.replace(seed=seed), total_messages=total,
                                rtime_s=rtime_s)
                    for seed, total in enumerate(totals, start=1)]

        # each cell is ranked by its seed average: Nb_msg 90 against 20
        table = comparison_table([cell("centralized", (800, 1000), 0.9),
                                  cell("forwarder_reactive", (150, 250), 0.25)])
        lines = table.splitlines()
        assert lines[0] == "lambda = 0.25, node_mob = medium, code_band = medium"
        assert [line.split() for line in lines[1:]] == [
            ["protocol", "nb_msg", "rtime_s", "aborted"],
            ["forwarder_reactive", "20", "0.25", "0"],
            ["centralized", "90", "0.9", "0"]]
        # a single-seed cell is ranked by its one row
        single = comparison_table([cell("zoned", (70,), 0.5)])
        assert single.splitlines()[2].split() == ["zoned", "7", "0.5", "0"]


#: the dump files of the run whose messages dump is pinned, as `--csv`,
#: `--dump-trace` and `--dump-messages` name them
DUMPS = ("rows.csv", "trace.csv", "messages.csv")
#: the grid whose sweep and compare outputs are pinned
CLI_GRID = ["--set", "duration=12", "--set", "warmup=2",
            "--protocols", "forwarder_reactive,centralized",
            "--lambda", "0.5", "--seeds", "1,2"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_out(argv: list) -> str:
    """What the CLI prints for `argv`; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def cli_sha(argv: list) -> str:
    return sha256(cli_out(argv).encode())


def run_messages_sha(directory: Path) -> str:
    """sha256 of the messages dump of a 12 s run that writes every dump
    into `directory`."""
    rows, trace, messages = (directory / name for name in DUMPS)
    cli_out(["run", "--set", "duration=12", "--set", "warmup=2", "--csv", str(rows),
             "--dump-trace", str(trace), "--dump-messages", str(messages)])
    return sha256(messages.read_bytes())


def pinned_values() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        messages_sha = run_messages_sha(Path(directory))
    return {"harness.run_messages_sha": messages_sha,
            "harness.sweep_rows_sha": cli_sha(["sweep", *CLI_GRID]),
            "harness.compare_table_sha": cli_sha(["compare", *CLI_GRID])}


class TestCli:
    def test_run_prints_a_report_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = cli.main(["run", "--set", "duration=12", "--set", "lambda=0.5",
                         "--set", "warmup=2", "--csv", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "protocol:        forwarder_reactive" in stdout
        assert "Nb_msg:" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_run_prints_each_server_agent_s_jobs(self, capsys):
        for protocol in ("centralized", "zoned", "forwarder_reactive"):
            cfg = ScenarioConfig(protocol=protocol, duration=12.0, warmup=2.0)
            result = run_scenario(cfg)
            agents = getattr(result.protocol, "agents", None)
            if protocol == "centralized":
                agents = [result.protocol.agent]
            assert cli.main(["run", "--set", f"protocol={protocol}",
                             "--set", "duration=12", "--set", "warmup=2"]) == 0
            printed = [line.split()[2:] for line in capsys.readouterr().out.splitlines()
                       if line.startswith("agent jobs:")]
            assert printed == ([[str(agent.processed) for agent in agents]]
                               if agents else [])

    def test_run_prints_the_code_jumps_made_and_attempted(self, capsys):
        # at a 100 m range some jump instants find no neighbour, so the two
        # counts differ
        overrides = dict(duration=30, warmup=2, range=100, partition_grace=100,
                         code_band="high")
        result = run_scenario(ScenarioConfig(**overrides))
        made, attempted = result.mover.jumps_made, result.mover.jumps_attempted
        assert made == result.protocol.code.jumps and 0 < made < attempted
        argv = ["run"] + [arg for key, value in overrides.items()
                          for arg in ("--set", f"{key}={value}")]
        assert cli.main(argv) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("code jumps:")]
        assert printed == [f"code jumps:      {made} of {attempted} attempts"]

    def test_run_reads_a_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("protocol = zoned\nn_zones = 4\n"
                            "duration = 12\nwarmup = 2\nlambda = 0.5\n")
        code = cli.main(["run", str(cfg_file)])
        assert code == 0
        assert "protocol:        zoned" in capsys.readouterr().out

    def test_dump_files_carry_their_headers(self, tmp_path):
        # every ledger row of the run, as the CLI writes it
        assert run_messages_sha(tmp_path) == pin("harness.run_messages_sha")
        rows, trace, messages = (tmp_path / name for name in DUMPS)
        assert trace.read_text().splitlines()[0] == "node_id,t,x,y"
        assert (messages.read_text().splitlines()[0]
                == "request_id,kind,src,dst,units,t")
        # every CSV the CLI writes ends its lines with a bare LF
        assert not any(b"\r" in path.read_bytes() for path in (rows, trace, messages))

    def test_bad_overrides_exit_with_the_config_code(self, capsys):
        assert cli.main(["run", "--set", "latency=3"]) == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        # the error names the override as written, not a line of a text
        # the user never saw
        assert cli.main(["run", "--set", "duration=12",
                         "--set", "latency=3"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--set latency=3: unknown config key 'latency'" in err
        assert "line" not in err
        assert cli.main(["run", "--set", "duration"]) == cli.EXIT_CONFIG
        assert "--set duration: expected key = value" in capsys.readouterr().err
        assert cli.main(["run", "--set", "ack_timeout=0.05"]) == cli.EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err
        assert cli.main(["run", "--set", "duration=0"]) == cli.EXIT_CONFIG
        assert "duration" in capsys.readouterr().err
        # values no run can use are refused before any run starts
        for raw in ("lambda=nan", "report_period=nan", "duration=inf", "seed=-1"):
            assert cli.main(["run", "--set", "protocol=zoned",
                             "--set", raw]) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == "" and raw.split("=")[0] in captured.err

    def test_more_zones_than_nodes_exit_with_the_config_code(self, capsys):
        code = cli.main(["run", "--set", "protocol=zoned", "--set", "n_zones=9",
                         "--set", "n_nodes=5"])
        assert code == cli.EXIT_CONFIG
        assert "n_zones" in capsys.readouterr().err

    def test_bad_axis_values_exit_with_the_config_code(self, capsys):
        assert cli.main(["sweep", "--lambda", "abc"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lambda" in err
        assert cli.main(["compare", "--seeds", "1.5"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        # a flag that names no value is an error, not an empty grid
        for flag, raw in (("--seeds", ","), ("--lambda", " , "), ("--protocols", "")):
            assert cli.main(["sweep", flag, raw]) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and flag in captured.err

    def test_a_missing_config_file_exits_with_the_config_code(self, capsys):
        assert cli.main(["run", "/nonexistent/scenario.cfg"]) == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_an_aborted_scenario_exits_with_the_abort_code(self, capsys):
        code = cli.main(["run", "--set", "range=1.0",
                         "--set", "partition_grace=2", "--set", "duration=10",
                         "--set", "warmup=2"])
        assert code == cli.EXIT_ABORTED
        assert "aborted:         yes" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("fault", [
        RuntimeError("repair path endpoints do not match"),
        ValueError("ledger total 7 != raw-log recount 6"),
    ], ids=lambda fault: type(fault).__name__)
    def test_an_invariant_violation_exits_with_the_invariant_code(
            self, monkeypatch, capsys, command, fault):
        def explode(cfg, *args, **kwargs):
            raise fault
        monkeypatch.setattr(cli, "run_scenario", explode)
        monkeypatch.setattr(sweep, "run_scenario", explode)
        assert cli.main([command]) == cli.EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "Traceback" in err and str(fault) in err

    def test_sweep_writes_per_seed_and_average_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--set", "duration=12", "--set", "warmup=2",
                         "--protocols", "forwarder_reactive,centralized",
                         "--lambda", "0.5", "--seeds", "1,2",
                         "--csv", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 6
        assert lines[3].split(",")[5] == "avg"
        assert lines[6].split(",")[5] == "avg"
        # a run no longer than the warm-up measures no request, so its
        # seed average leaves the per-request cells blank
        code = cli.main(["sweep", "--set", "duration=5", "--seeds", "1,2",
                         "--csv", str(out)])
        assert code == 0
        capsys.readouterr()
        avg = dict(zip(CSV_COLUMNS, out.read_text().splitlines()[3].split(",")))
        assert avg["seed"] == "avg" and avg["n_requests"] == "0"
        assert avg["nb_msg"] == avg["rtime_s"] == ""

    def test_sweep_can_omit_average_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--set", "duration=12", "--set", "warmup=2",
                         "--seeds", "1,2", "--no-average", "--csv", str(out)])
        assert code == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 3

    def test_sweep_node_mob_labels_set_the_node_speed(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--set", "duration=60", "--seeds", "1",
                         "--node-mobs", "low,medium,high", "--csv", str(out)])
        assert code == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        column = CSV_COLUMNS.index("measured_mob")
        bands = [classify_mobility(float(row.split(",")[column])).value
                 for row in rows]
        assert bands == ["low", "medium", "high"]

    def test_compare_prints_the_ranking_table(self, capsys):
        code = cli.main(["compare", "--set", "duration=12", "--set", "warmup=2",
                         "--protocols", "forwarder_reactive,centralized",
                         "--seeds", "1,2"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("lambda = 0.25")
        assert "forwarder_reactive" in stdout and "centralized" in stdout

    def test_compare_keeps_cells_apart(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        code = cli.main(["compare", "--set", "duration=12", "--set", "warmup=2",
                         "--protocols", "forwarder_reactive,centralized",
                         "--lambda", "0.5,0.25", "--node-mobs", "low,high",
                         "--seeds", "1,2", "--csv", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # one labelled block per lambda and node mobility, in lambda order
        starts = [i for i, line in enumerate(lines) if line.startswith("lambda")]
        assert [lines[i] for i in starts] == [
            f"lambda = {lam}, node_mob = {mob}, code_band = medium"
            for lam in ("0.25", "0.5") for mob in ("low", "high")]
        # each protocol once per block, with its own cell's seed average
        averages = {}
        for line in out.read_text().splitlines()[1:]:
            row = dict(zip(CSV_COLUMNS, line.split(",")))
            if row["seed"] == AVERAGE_SEED:
                key = (row["protocol"], row["lambda"], float(row["node_mob_target"]))
                averages[key] = row["nb_msg"]
        header = re.compile(r"lambda = (\S+), node_mob = (\w+), code_band = medium")
        for start, end in zip(starts, starts[1:] + [len(lines)]):
            lam, mob = header.fullmatch(lines[start]).groups()
            target = ScenarioConfig(node_mob=mob).mob_target
            block = {line.split()[0]: line.split()[1] for line in lines[start + 2:end]}
            assert block == {protocol: averages[(protocol, lam, target)]
                             for protocol in ("forwarder_reactive", "centralized")}

    def test_sweep_and_compare_bytes_are_pinned(self, tmp_path):
        # sha256 of the outputs; a changed byte means a changed result
        rows_sha = pin("harness.sweep_rows_sha")
        table_sha = pin("harness.compare_table_sha")
        sweep_csv, compare_csv = tmp_path / "sweep.csv", tmp_path / "compare.csv"
        assert cli_out(["sweep", *CLI_GRID, "--csv", str(sweep_csv)]) == ""
        assert sha256(sweep_csv.read_bytes()) == rows_sha
        assert cli_sha(["sweep", *CLI_GRID]) == rows_sha
        assert cli_sha(["compare", *CLI_GRID, "--csv", str(compare_csv)]) == table_sha
        assert sha256(compare_csv.read_bytes()) == rows_sha


class TestPublicSurface:
    def test_names_and_benchmark_span_targets_resolve(self, monkeypatch):
        # the benchmark wraps these functions from outside; a target that no
        # longer exists would silently drop its per-layer metrics
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "perfbench"))
        spans = importlib.import_module("spans")
        tracer = spans.Tracer(full=True)
        tracer.install()
        try:
            assert tracer.missing == []
        finally:
            tracer.uninstall()
        # perfbench reads these from the package itself
        assert {"ScenarioConfig", "NODE_SPEED_PRESETS", "PROTOCOLS",
                "engine", "scenario", "sweep"} <= set(adhocloc.__all__)
        for name in adhocloc.__all__:
            assert getattr(adhocloc, name) is not None, name

    def test_the_aborting_same_bytes_set_is_pinned(self, monkeypatch):
        # every simulated value of ten runs that end in a partition abort,
        # against the pin the same-bytes tool checks
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "tools"))
        same_bytes = importlib.import_module("same_bytes")
        assert (same_bytes.kept_fields(same_bytes.run_set(same_bytes.RUN_SETS["aborting"]))
                == pin("same_bytes.aborting"))

    def test_golden_values_are_written_only_in_the_pin_file(self):
        # a run of 16 or more hex digits is a digest or a full-precision
        # float copied by hand; tests/pins.json is the one place for them
        root = Path(__file__).resolve().parent.parent
        paths = [*root.glob("tests/*.py"), *root.glob("tools/*.py"),
                 *root.glob(".github/workflows/*.yml"), root / "README.md"]
        copies = [f"{path.relative_to(root)}:{number}" for path in paths
                  for number, line in enumerate(path.read_text(encoding="utf-8")
                                                .splitlines(), 1)
                  if re.search("[0-9a-fA-F]{16,}", line)]
        assert copies == []

    def test_the_pin_file_is_written_as_its_writer_writes_it(self):
        # sorted keys and each float's repr: re-pinning an unchanged tree
        # leaves the file byte-identical
        assert pins.dumps(pins.load()) == pins.PATH.read_text(encoding="utf-8")

    def test_every_function_is_referenced_outside_its_own_body(self):
        # a name no other code in the package mentions is a function the
        # simulator never calls; a string equal to the name does not count
        src = Path(adhocloc.__file__).resolve().parent
        defined, used = {}, set()

        def visit(node, where, enclosing):
            name = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{where}:{node.lineno}")
                enclosing = enclosing | {node.name}
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None and name not in enclosing:
                used.add(name)
            for child in ast.iter_child_nodes(node):
                visit(child, where, enclosing)

        for path in sorted(src.rglob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")),
                  path.relative_to(src), frozenset())
        # the one test seam: tests build models around scripted trajectories
        allowed = {"from_trajectories"}
        unused = sorted(f"{where} {name}" for name, where in defined.items()
                        if name not in used | allowed
                        and not (name.startswith("__") and name.endswith("__")))
        assert unused == []

    def test_every_attribute_written_is_read(self):
        # an attribute the package stores but neither the package nor the
        # benchmark ever loads is state nothing reads; the benchmark reads
        # some counters through getattr, so a getattr/hasattr name is a load
        src = Path(adhocloc.__file__).resolve().parent
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        stored, loaded = {}, set()
        for path in sorted(src.rglob("*.py")) + sorted(bench.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    if not isinstance(node.ctx, ast.Store):
                        loaded.add(node.attr)
                    elif src in path.parents:
                        stored.setdefault(node.attr, path.relative_to(src))
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in ("getattr", "hasattr")
                      and isinstance(node.args[1], ast.Constant)):
                    loaded.add(node.args[1].value)
        unread = sorted(f"{where} {name}" for name, where in stored.items()
                        if name not in loaded)
        assert unread == []

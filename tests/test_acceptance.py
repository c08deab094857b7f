"""Acceptance gate: the comparative claims and the numeric oracles, A1 to A10.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts its stated tolerance. A1 to A5 share one grid of full-length runs
over the comparison setting: 25 nodes on 1000x500 m, 250 m range, medium node
and code mobility, lambda in {0.1, 0.25, 1}, seeds 1 to 5, 200 s horizon.
"""

import hashlib
import io
import math
import time

import numpy as np
import pytest

from adhocloc.config import NODE_SPEED_PRESETS, PROTOCOLS, ScenarioConfig
from adhocloc.engine import stream
from adhocloc.geometry import ZoneLayout, centroid, dist, elect_server
from adhocloc.mobility import RandomWaypointModel, Trajectory, network_mobility
from adhocloc.protocols import server
from adhocloc.protocols.base import CodeMigrationProcess
from adhocloc.radio import MessageKind
from adhocloc.scenario import run_scenario
from adhocloc.sweep import run_sweep, write_csv
from conftest import MobilityBand, classify_mobility
from pins import pin

GRID_LAMBDAS = (0.1, 0.25, 1.0)
SEEDS = (1, 2, 3, 4, 5)
RANKED = ("forwarder_reactive", "zoned", "centralized")


def verdict(label, ok, detail):
    print(f"{label} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def paper_grid():
    """Full-length runs for A1-A5: (protocol, lambda, seed) -> (result, wall,
    the instants of the run's migration attempts)."""
    base = ScenarioConfig()
    cells = [(protocol, lam) for protocol in RANKED for lam in GRID_LAMBDAS]
    cells.append(("forwarder_proactive", 0.25))
    attempts = {}
    jump = CodeMigrationProcess._jump

    def recording_jump(mover):
        attempts.setdefault(mover, []).append(mover.protocol.engine.now)
        jump(mover)

    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CodeMigrationProcess, "_jump", recording_jump)
        for protocol, lam in cells:
            for seed in SEEDS:
                cfg = base.replace(protocol=protocol, lam=lam, seed=seed)
                started = time.perf_counter()
                result = run_scenario(cfg)
                wall = time.perf_counter() - started
                runs[(protocol, lam, seed)] = (result, wall,
                                               attempts.pop(result.mover, []))
    return runs


def cell_mean(runs, protocol, lam, column):
    values = [getattr(runs[(protocol, lam, seed)][0].report, column)
              for seed in SEEDS]
    return sum(values) / len(values)


class TestComparativeClaims:
    def test_a1_distributed_chains_cost_least_servers_most(self, paper_grid):
        ok = True
        details = []
        for lam in GRID_LAMBDAS:
            re_, zo, ce = (cell_mean(paper_grid, p, lam, "nb_msg")
                           for p in RANKED)
            ok = ok and re_ < zo < ce and ce >= 5 * re_
            details.append(f"lam={lam:g} nb_msg re/zo/ce="
                           f"{re_:.1f}/{zo:.1f}/{ce:.1f} (x{ce / re_:.1f})")
        slowest = max(wall for _, wall, _ in paper_grid.values())
        ok = ok and slowest < 10.0
        details.append(f"slowest cell {slowest:.2f}s")
        verdict("A1", ok, "; ".join(details))

    def test_a2_two_zones_cut_the_central_bill_by_three(self, paper_grid):
        ok = True
        details = []
        for lam in GRID_LAMBDAS:
            zo = cell_mean(paper_grid, "zoned", lam, "nb_msg")
            ce = cell_mean(paper_grid, "centralized", lam, "nb_msg")
            ok = ok and zo <= ce / 3
            details.append(f"lam={lam:g} ce/zo={ce / zo:.1f}")
        verdict("A2", ok, "; ".join(details))

    def test_a3_zoned_response_times_sit_between_the_extremes(self, paper_grid):
        ok = True
        details = []
        for lam in GRID_LAMBDAS:
            re_ = cell_mean(paper_grid, "forwarder_reactive", lam, "rtime_s")
            zo = cell_mean(paper_grid, "zoned", lam, "rtime_s")
            ce = cell_mean(paper_grid, "centralized", lam, "rtime_s")
            ok = ok and zo <= 0.75 * ce and zo <= 2 * re_
            details.append(f"lam={lam:g} rtime re/zo/ce="
                           f"{re_:.3f}/{zo:.3f}/{ce:.3f}s")
        verdict("A3", ok, "; ".join(details))

    def test_a4_proactive_upkeep_at_least_doubles_the_traffic(self, paper_grid):
        pro = cell_mean(paper_grid, "forwarder_proactive", 0.25, "total_messages")
        re_ = cell_mean(paper_grid, "forwarder_reactive", 0.25, "total_messages")
        ratio = pro / re_
        verdict("A4", ratio >= 2.0,
                f"lam=0.25 total units proactive/reactive = {ratio:.2f}")

    def test_a5_resolved_requests_name_the_true_host(self, paper_grid):
        checked = matches = 0
        quiet_runs = quiet_clean = 0
        for result, _, jumps in paper_grid.values():
            report = result.report
            checked += report.truth_checked
            matches += report.truth_matches
            windows = [(r.issued_at, r.resolved_at) for r in result.records
                       if not r.warmup and r.status == "resolved"]
            overlap = any(lo <= t <= hi for t in jumps for lo, hi in windows)
            if not overlap:
                quiet_runs += 1
                quiet_clean += report.truth_matches == report.truth_checked
        rate = matches / checked
        ok = rate >= 0.99 and quiet_clean == quiet_runs
        verdict("A5", ok,
                f"{matches}/{checked} true hosts ({100 * rate:.2f}%), "
                f"{quiet_clean}/{quiet_runs} jump-free runs perfect")


#: the runs whose outputs are pinned, by pin name: overrides of a 60 s run
#: at lambda 1, seed 3
PROTOCOL_RUNS = {
    "centralized": {"protocol": "centralized"},
    "zoned": {"protocol": "zoned"},
    "forwarder_reactive-high": {"protocol": "forwarder_reactive", "node_mob": "high"},
    "forwarder_proactive-high": {"protocol": "forwarder_proactive", "node_mob": "high"},
    # four zones at high node speed: zone crossings move station entries
    "zoned4-high": {"protocol": "zoned", "n_zones": 4, "node_mob": "high"},
    # a fast code under heavy load: walks park and resume, and the replies
    # of three requests find no route, so they fail
    "forwarder_proactive-high-load-failing": {
        "protocol": "forwarder_proactive", "node_mob": "high", "code_band": "high",
        "lam": 4.0},
}


def protocol_outputs(overrides: dict) -> dict:
    """A run's total units, units by kind, resolved and failed counts and
    Rtime."""
    cfg = ScenarioConfig().replace(**{"lam": 1.0, "seed": 3, "duration": 60.0,
                                      **overrides})
    report = run_scenario(cfg).report
    return {"total": report.total_messages, "by_kind": report.by_kind,
            "resolved": report.n_resolved, "failed": report.n_failed,
            "rtime_s": report.rtime_s}


def records_and_rows_sha(protocol: str) -> str:
    """sha256 of the repr of every request record, then of every ledger row,
    of a 60 s run at high node speed, lambda 1, seed 3."""
    cfg = ScenarioConfig().replace(protocol=protocol, node_mob="high", lam=1.0,
                                   seed=3, duration=60.0)
    result = run_scenario(cfg)
    h = hashlib.sha256()
    for item in [*result.records, *result.ledger.rows]:
        h.update(repr(item).encode())
    return h.hexdigest()


def pinned_values() -> dict:
    return {**{f"acceptance.protocol_outputs.{name}": protocol_outputs(overrides)
               for name, overrides in PROTOCOL_RUNS.items()},
            **{f"acceptance.records_and_rows_sha.{protocol}": records_and_rows_sha(protocol)
               for protocol in PROTOCOLS}}


class TestDeterminism:
    def test_a6_identical_reruns_emit_byte_identical_rows(self):
        cfg = ScenarioConfig().replace(protocol="zoned", lam=0.25, seed=3,
                                       duration=60.0)
        rows = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv([[run_scenario(cfg).report]], buf)
            rows.append(buf.getvalue())
        verdict("A6", rows[0] == rows[1],
                f"rerun row identical ({len(rows[0])} bytes)")

    @pytest.mark.parametrize("name", PROTOCOL_RUNS)
    def test_protocol_outputs_are_pinned(self, name):
        # exact figures of a full run: a refactor of the protocols must
        # reproduce them, a behaviour change must re-pin them on purpose
        assert (protocol_outputs(PROTOCOL_RUNS[name])
                == pin(f"acceptance.protocol_outputs.{name}"))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_request_times_are_plain_floats(self, protocol):
        # a numpy scalar prints another repr than the float of equal value,
        # so a time that leaks one changes the bytes of whatever prints it
        cfg = ScenarioConfig().replace(protocol=protocol, node_mob="high", lam=1.0,
                                       seed=3, duration=60.0)
        result = run_scenario(cfg)
        times = [row.t for row in result.ledger.rows]
        for record in result.records:
            times += [record.issued_at, record.resolved_at, record.failed_at]
        assert {type(t) for t in times if t is not None} == {float}

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_ledger_rows_and_records_are_pinned(self, protocol):
        # a same-bytes refactor must reproduce each send and each request,
        # not only the totals per kind pinned above
        assert (records_and_rows_sha(protocol)
                == pin(f"acceptance.records_and_rows_sha.{protocol}"))


class TestNumericOracles:
    def test_a7_geometry_agrees_with_brute_force(self):
        rng = np.random.default_rng(77)
        bad = 0
        for _ in range(1000):
            n = int(rng.integers(3, 30))
            pts = rng.uniform(-1000.0, 1000.0, size=(n, 2))
            want = (sum(float(p[0]) for p in pts) / n,
                    sum(float(p[1]) for p in pts) / n)
            got = centroid(pts)
            bad += any(abs(g - w) > 1e-9 * max(1.0, abs(w))
                       for g, w in zip(got, want))
            p, q = pts[0], pts[1]
            want_d = math.hypot(p[0] - q[0], p[1] - q[1])
            bad += abs(dist(p, q) - want_d) > 1e-9 * max(1.0, want_d)
            k = int(rng.integers(2, n + 1))
            ids = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
            ref = tuple(rng.uniform(-1000.0, 1000.0, size=2))
            want_id = min(ids, key=lambda v: (math.hypot(pts[v][0] - ref[0],
                                                         pts[v][1] - ref[1]), v))
            bad += elect_server(ids, pts, ref) != want_id
        mismatches = 0
        for n_zones in (2, 3, 4, 8):
            center = tuple(rng.uniform(-100.0, 100.0, size=2))
            layout = ZoneLayout(n_zones, center)
            alpha = 2 * math.pi / n_zones
            points = rng.uniform(-1000.0, 1000.0, size=(10_000, 2))
            for x, y in points:
                theta = math.atan2(y - center[1], x - center[0]) % (2 * math.pi)
                want_zone = min(int(theta / alpha), n_zones - 1)
                mismatches += layout.zone_of((x, y)) != want_zone
        verdict("A7", bad == 0 and mismatches == 0,
                f"{bad} oracle misses in 1000 instances, "
                f"{mismatches} zone mismatches in 4x10000 points")

    def test_a8_mobility_metric_and_speed_calibration(self):
        still = [Trajectory([0.0], [float(50 * k)], [0.0]) for k in range(6)]
        static = RandomWaypointModel.from_trajectories(still)
        static_mob = network_mobility(static, 20.0, 1.0)

        speed, duration, dt = 3.0, 20.0, 1.0
        pair = RandomWaypointModel.from_trajectories([
            Trajectory([0.0, duration], [0.0, 0.0], [0.0, 0.0]),
            Trajectory([0.0, duration], [50.0, 50.0 + speed * duration],
                       [0.0, 0.0]),
        ])
        samples = len(np.arange(0.0, duration + dt / 2, dt))
        want = speed * dt * (samples - 1) / (duration - dt)
        got = network_mobility(pair, duration, dt)
        receding_ok = abs(got - want) <= 1e-6 * want

        bands_ok = (classify_mobility(1.5) is MobilityBand.LOW
                    and classify_mobility(5.0) is MobilityBand.MEDIUM
                    and classify_mobility(10.0) is MobilityBand.HIGH)

        hits = {}
        for band in ("low", "medium", "high"):
            smin, smax = NODE_SPEED_PRESETS[band]
            hits[band] = 0
            for seed in SEEDS:
                model = RandomWaypointModel(
                    25, 1000.0, 500.0, smin, smax,
                    lambda node: stream(seed, "mobility", node),
                    horizon=200.0)
                mob = network_mobility(model, 200.0, 1.0)
                hits[band] += classify_mobility(mob).value == band
        presets_ok = all(count >= 4 for count in hits.values())

        ok = static_mob == 0.0 and receding_ok and bands_ok and presets_ok
        verdict("A8", ok,
                f"static Mob={static_mob}, receding pair {got:.8f} vs "
                f"{want:.8f}, presets in band {hits}")

    def test_a9_interarrival_means_match_the_request_rates(self):
        ok = True
        details = []
        for lam in GRID_LAMBDAS:
            draws = stream(11, "workload").exponential(1.0 / lam, 100_000)
            err = abs(float(draws.mean()) - 1.0 / lam) * lam
            ok = ok and err <= 0.02
            details.append(f"lam={lam:g} rel err {100 * err:.2f}%")
        verdict("A9", ok, "; ".join(details))


class TestAccountingClosure:
    def test_a10_reported_totals_match_the_raw_message_log(self, paper_grid):
        drift = []
        for key, (result, _, _) in paper_grid.items():
            recount = sum(row.units for row in result.ledger.rows)
            if result.report.total_messages != recount:
                drift.append(key)
        verdict("A10", not drift,
                f"{len(paper_grid)} runs recounted exactly"
                + (f", drift in {drift}" if drift else ""))


class TestRelations:
    """Metamorphic relations: how whole-run outputs must change when the
    inputs change in a known way, which holds whatever the pins say (Chen et
    al., "Metamorphic testing: a review of challenges and opportunities",
    ACM Computing Surveys 51(1), 2018)."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_doubling_every_length_changes_nothing_but_mob(self, protocol, monkeypatch):
        # scaling by a power of two is exact in floating point, so every
        # time, unit and host must stay bitwise equal. HANDOFF_THRESHOLD is
        # the one length of the simulator that is not a config key (ROADMAP
        # item 12), so it is doubled here by hand; left alone, it breaks
        # every server run
        doubled = {}
        for node_mob in ("low", "medium", "high"):
            for seed in (1, 2):
                cfg = ScenarioConfig(protocol=protocol, node_mob=node_mob, lam=1.0,
                                     seed=seed, duration=60.0)
                smin, smax = cfg.node_speed
                doubled[cfg] = cfg.replace(area=(2 * cfg.area[0], 2 * cfg.area[1]),
                                           range=2 * cfg.range,
                                           node_speed=(2 * smin, 2 * smax))
        plain = {cfg: run_scenario(cfg) for cfg in doubled}
        monkeypatch.setattr(server, "HANDOFF_THRESHOLD", 2 * server.HANDOFF_THRESHOLD)
        for cfg, big in doubled.items():
            base, scaled = plain[cfg], run_scenario(big)
            assert scaled.records == base.records, cfg
            assert list(scaled.ledger.rows) == list(base.ledger.rows), cfg
            assert scaled.report.measured_mob == 2 * base.report.measured_mob, cfg

    @pytest.mark.parametrize("protocol, n_zones", [("centralized", 2), ("zoned", 2),
                                                   ("zoned", 4)])
    def test_server_background_traffic_does_not_depend_on_load(self, protocol, n_zones):
        # position reports, agent moves and updates billed to no request
        # come from the world and the code's jumps alone, so every lambda
        # must send the same ones
        background = {}

        def on_result(result):
            rows = [row for row in result.ledger.rows if row.request_id is None
                    and row.kind in (MessageKind.POSITION_REPORT,
                                     MessageKind.AGENT_MIGRATION,
                                     MessageKind.SERVER_UPDATE)]
            background.setdefault(result.cfg.node_mob, []).append(rows)

        run_sweep(ScenarioConfig(n_zones=n_zones, duration=60.0), [protocol],
                  (0.1, 1.0, 4.0), ("medium", "high"), ("medium",), (1,),
                  on_result=on_result)
        for node_mob, (low, *higher) in background.items():
            assert low and all(rows == low for rows in higher), node_mob

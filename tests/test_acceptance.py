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
from adhocloc.protocols.base import CodeMigrationProcess
from adhocloc.scenario import run_scenario
from adhocloc.sweep import write_csv
from conftest import MobilityBand, classify_mobility

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

    @pytest.mark.parametrize("overrides, expected", [
        pytest.param(
            {"protocol": "centralized"},
            (38078, {"AgentMigration": 15, "Data": 151, "PositionReport": 37477,
                     "ServerQuery": 117, "ServerReply": 117, "ServerUpdate": 201},
             59, 0, 0.21498165772159566),
            id="centralized"),
        pytest.param(
            {"protocol": "zoned"},
            (1619, {"AgentMigration": 18, "Data": 150, "PositionReport": 977,
                    "RingForward": 20, "ServerQuery": 113, "ServerReply": 117,
                    "ServerUpdate": 224},
             59, 0, 0.11601149666894803),
            id="zoned"),
        pytest.param(
            {"protocol": "forwarder_reactive", "node_mob": "high"},
            (565, {"ChainRepairFlood": 335, "ChainRepairReply": 47,
                   "LocateReply": 79, "LocateRequest": 104},
             59, 0, 0.033220338983048395),
            id="forwarder_reactive-high"),
        pytest.param(
            {"protocol": "forwarder_proactive", "node_mob": "high"},
            (1158, {"ChainCheck": 320, "ChainRepairFlood": 403,
                    "ChainRepairReply": 158, "LocateReply": 80,
                    "LocateRequest": 197},
             59, 0, 0.36800084603135874),
            id="forwarder_proactive-high"),
        pytest.param(
            # four zones at high node speed: zone crossings move station entries
            {"protocol": "zoned", "n_zones": 4, "node_mob": "high"},
            (1777, {"AgentMigration": 28, "Data": 82, "PositionReport": 1151,
                    "RingForward": 74, "ServerQuery": 97, "ServerReply": 99,
                    "ServerUpdate": 246},
             59, 0, 0.12680587269082147),
            id="zoned4-high"),
        pytest.param(
            # a fast code under heavy load: walks park and resume, and the
            # replies of three requests find no route, so they fail
            {"protocol": "forwarder_proactive", "node_mob": "high",
             "code_band": "high", "lam": 4.0},
            (2747, {"ChainCheck": 499, "ChainRepairFlood": 573,
                    "ChainRepairReply": 270, "LocateReply": 433,
                    "LocateRequest": 972},
             205, 3, 0.1260478000649053),
            id="forwarder_proactive-high-load-failing"),
    ])
    def test_protocol_outputs_are_pinned(self, overrides, expected):
        # exact figures of a full run: a refactor of the protocols must
        # reproduce them, a behaviour change must update them on purpose
        cfg = ScenarioConfig().replace(**{"lam": 1.0, "seed": 3, "duration": 60.0,
                                          **overrides})
        report = run_scenario(cfg).report
        got = (report.total_messages, report.by_kind, report.n_resolved,
               report.n_failed, report.rtime_s)
        assert got == expected

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

    @pytest.mark.parametrize("protocol, digest", [
        ("forwarder_proactive",
         "2a271cee8fe8dc9dde3c2e6083deba636dc72f3bb9f078d3c095703edff15f39"),
        ("forwarder_reactive",
         "5a299273d8bdba800b18df2d683a35b0cc3aa3b9b545a0469cacc147e77cd56b"),
        ("centralized",
         "3a7a7f6cacee6d304b300bbbf1c2dbda9f2afbec79e51e16821904a974684f53"),
        ("zoned",
         "62c9d7f0b10ba89b53f4d609c80edc50102f922e257d15fa8203f61edd0d0eac"),
    ])
    def test_ledger_rows_and_records_are_pinned(self, protocol, digest):
        # sha256 of the repr of every request record, then of every ledger
        # row: a same-bytes refactor must reproduce each send and each
        # request, not only the totals per kind pinned above
        cfg = ScenarioConfig().replace(protocol=protocol, node_mob="high", lam=1.0,
                                       seed=3, duration=60.0)
        result = run_scenario(cfg)
        h = hashlib.sha256()
        for item in [*result.records, *result.ledger.rows]:
            h.update(repr(item).encode())
        assert h.hexdigest() == digest


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

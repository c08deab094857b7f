"""Scenario assembly and execution.

Wires one configuration into a runnable simulation: waypoint mobility, the
radio substrate, one roaming code with its migration process, the chosen
localization protocol and a Poisson stream of localization requests from the
mother station. Requests issued before the warm-up cutoff run normally but
stay out of the metrics. A watchdog aborts the run when the network stays
partitioned longer than partition_grace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import ScenarioConfig
from .engine import Engine, RngStreams
from .metrics import MetricsReport, RequestRecord, build_report
from .mobility import RandomWaypointModel, network_mobility
from .protocols import (CodeMigrationProcess, LocalizationProtocol, MobileCode,
                        ScenarioContext, make_protocol)
from .radio import PER_HOP_LATENCY, MessageLedger, Radio


class ScenarioAborted(RuntimeError):
    """The network stayed partitioned past the configured grace period."""

    def __init__(self, at: float, since: float):
        super().__init__(f"network partitioned since t={since:.3f}, "
                         f"still split at t={at:.3f}")


@dataclass
class ScenarioResult:
    cfg: ScenarioConfig
    report: MetricsReport
    records: list[RequestRecord]
    ledger: MessageLedger
    engine: Engine
    model: RandomWaypointModel
    radio: Radio
    protocol: LocalizationProtocol
    mover: CodeMigrationProcess
    aborted: bool = False
    abort_reason: Optional[str] = None


class _PartitionWatchdog:
    def __init__(self, radio: Radio, engine: Engine, grace: float, duration: float):
        self.radio = radio
        self.engine = engine
        self.grace = grace
        self.duration = duration
        self.split_since: Optional[float] = None
        if duration >= 1.0:
            engine.schedule(1.0, self._check)

    def _check(self) -> None:
        t = self.engine.now
        if self.radio.connected(t):
            self.split_since = None
        elif self.split_since is None:
            self.split_since = t
        elif t - self.split_since >= self.grace:
            raise ScenarioAborted(t, self.split_since)
        nxt = t + 1.0
        if nxt <= self.duration:
            self.engine.schedule(nxt, self._check)


def _draw_arrivals(streams: RngStreams, lam: float, duration: float) -> list[float]:
    rng = streams.workload
    arrivals = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / lam))
        if t > duration:
            return arrivals
        arrivals.append(t)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    engine = Engine()
    streams = RngStreams(cfg.seed)
    smin, smax = cfg.node_speed
    # the latest read follows an event at `duration`: a forwarder repair
    # reply leaves up to n - 1 flood hops later and has its hops checked up
    # to n - 2 hops after that, so (2n - 3) hops past the end bound them all
    model = RandomWaypointModel(cfg.n_nodes, cfg.area[0], cfg.area[1],
                                smin, smax,
                                lambda node: streams.substream("mobility", node),
                                horizon=cfg.duration + 2 * cfg.n_nodes * PER_HOP_LATENCY)
    ledger = MessageLedger()
    radio = Radio(model, cfg.range, PER_HOP_LATENCY, ledger)
    code = MobileCode(mother=cfg.mother, host=cfg.mother)
    ctx = ScenarioContext(cfg, engine, streams, model, radio, ledger, code)

    records: list[RequestRecord] = []
    for i, at in enumerate(_draw_arrivals(streams, cfg.lam, cfg.duration)):
        record = RequestRecord(request_id=i, issued_at=at,
                               warmup=(at < cfg.warmup))
        records.append(record)
        engine.schedule(at, lambda r=record: protocol.locate(r))

    # built after the arrivals, which read `protocol` when they fire, so the
    # timers these constructors schedule keep their seqs
    protocol = make_protocol(cfg.protocol, ctx)
    mover = CodeMigrationProcess(ctx, protocol)
    _PartitionWatchdog(radio, engine, cfg.partition_grace, cfg.duration)
    # start-up above read the exact path; the event loop reads the span
    engine.schedule(0.0, radio.timeline.build)

    aborted = False
    abort_reason = None
    try:
        engine.run_until(cfg.duration)
    except ScenarioAborted as stop:
        aborted = True
        abort_reason = str(stop)
    finally:
        engine.discard_pending()

    for record in records:
        record.units = ledger.units_for_request(record.request_id)

    measured_mob = network_mobility(model, cfg.duration, cfg.metric_dt)
    report = build_report(cfg, measured_mob, records, ledger, aborted=aborted)
    return ScenarioResult(cfg, report, records, ledger, engine, model, radio,
                          protocol, mover, aborted, abort_reason)

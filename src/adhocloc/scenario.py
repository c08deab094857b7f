"""Scenario assembly and execution.

Wires one configuration into a runnable simulation: waypoint mobility, the
radio substrate, one roaming code with its migration process, the chosen
localization protocol and a Poisson stream of localization requests from the
mother station. Requests issued before the warm-up cutoff run normally but
stay out of the metrics. A watchdog aborts the run when the network stays
partitioned longer than partition_grace. What depends only on the seed and
the geometry (trajectories, link span, Mob) is the run's `World`, which
runs of one sweep share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, takewhile
from typing import NamedTuple, Optional

from .config import ScenarioConfig
from .engine import Engine, drawn_in_blocks, stream
from .metrics import MetricsReport, RequestRecord, build_report
from .mobility import RandomWaypointModel, network_mobility
from .protocols import (CodeMigrationProcess, LocalizationProtocol, MobileCode,
                        ScenarioContext, make_protocol)
from .radio import PER_HOP_LATENCY, LinkSpan, MessageLedger, Radio


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
    """A class: a self-rescheduling closure is a cycle, so its world would wait for the GC."""

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


def _draw_arrivals(seed: int, lam: float, duration: float) -> list[float]:
    rng = stream(seed, "workload")
    gaps = drawn_in_blocks(lambda k: rng.exponential(1.0 / lam, k))
    # each arrival is the one before plus a gap, summed one at a time
    return list(takewhile(lambda t: t <= duration, accumulate(gaps)))


class WorldKey(NamedTuple):
    """The config fields a world is drawn from."""
    seed: int
    n_nodes: int
    area: tuple[float, float]
    node_speed: tuple[float, float]
    range: float
    duration: float
    metric_dt: float

    @classmethod
    def of(cls, cfg: ScenarioConfig) -> "WorldKey":
        return cls._make(getattr(cfg, name) for name in cls._fields)


class World:
    """The part of a run that depends only on its seed and geometry: the node
    trajectories, their link span at the radio range and the measured Mob.

    Runs whose configs share a `WorldKey` can share one world, and their
    results do not change: each mobility stream depends only on the seed
    and the node, and a world holds nothing of a run. Each part is built
    where a run of its own would build it, by the first run that reads it:
    the model in its set-up, the span at its first event, Mob at its end.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.key = WorldKey.of(cfg)

    @cached_property
    def model(self) -> RandomWaypointModel:
        (width, height), (smin, smax) = self.key.area, self.key.node_speed
        # the latest read follows an event at `duration`: a forwarder repair
        # reply leaves up to n - 1 flood hops later and has its hops checked
        # up to n - 2 hops after that, so (2n - 3) hops past the end bound
        # them all
        n = self.key.n_nodes
        return RandomWaypointModel(n, width, height, smin, smax,
                                   lambda node: stream(self.key.seed, "mobility", node),
                                   horizon=self.key.duration + 2 * n * PER_HOP_LATENCY)

    @cached_property
    def span(self) -> LinkSpan:
        return LinkSpan(self.model, self.key.range)

    @cached_property
    def measured_mob(self) -> float:
        return network_mobility(self.model, self.key.duration, self.key.metric_dt)


def run_scenario(cfg: ScenarioConfig, world: Optional[World] = None) -> ScenarioResult:
    """Run one scenario in `world`, or in a world of its own when None. A
    world drawn for another key is refused with ValueError."""
    if world is None:
        world = World(cfg)
    differ = [name for name, mine, theirs
              in zip(WorldKey._fields, world.key, WorldKey.of(cfg)) if mine != theirs]
    if differ:
        raise ValueError(f"world drawn for another {', '.join(differ)} than the run's")
    engine = Engine()
    ledger = MessageLedger()
    radio = Radio(world.span, ledger)
    code = MobileCode(mother=cfg.mother, host=cfg.mother)
    ctx = ScenarioContext(cfg, engine, radio, code)

    records: list[RequestRecord] = []
    for i, at in enumerate(_draw_arrivals(cfg.seed, cfg.lam, cfg.duration)):
        record = RequestRecord(request_id=i, issued_at=at,
                               warmup=(at < cfg.warmup))
        records.append(record)
        engine.schedule(at, lambda r=record: protocol.locate(r))

    # built after the arrivals, which read `protocol` when they fire, so the
    # timers these constructors schedule keep their seqs
    protocol = make_protocol(cfg.protocol, ctx)
    mover = CodeMigrationProcess(protocol)
    _PartitionWatchdog(radio, engine, cfg.partition_grace, cfg.duration)
    # start-up above read the exact path; the event loop reads the span
    engine.schedule(0.0, radio.build)

    abort_reason = None
    try:
        engine.run_until(cfg.duration)
    except ScenarioAborted as stop:
        abort_reason = str(stop)
    finally:
        engine.discard_pending()
    aborted = abort_reason is not None

    for record in records:
        record.units = ledger.units_for_request(record.request_id)

    report = build_report(cfg, world.measured_mob, records, ledger, aborted=aborted)
    return ScenarioResult(cfg, report, records, ledger, engine, world.model, radio,
                          protocol, mover, aborted, abort_reason)

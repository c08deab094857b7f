"""Shared builders: scripted mobility models and hand-wired protocol contexts,
and the mobility bands the speed presets are calibrated against."""

from enum import Enum

from adhocloc.config import ScenarioConfig
from adhocloc.engine import Engine
from adhocloc.mobility import RandomWaypointModel, Trajectory
from adhocloc.protocols.base import MobileCode, ScenarioContext
from adhocloc.radio import LinkSpan, MessageLedger, Radio


def static_model(points):
    """A model whose nodes sit still at the given (x, y) points."""
    trajs = [Trajectory([0.0], [float(x)], [float(y)]) for x, y in points]
    return RandomWaypointModel.from_trajectories(trajs)


def scripted_model(knot_lists):
    """A model from explicit per-node knot lists of (t, x, y) tuples."""
    trajs = []
    for knots in knot_lists:
        times, xs, ys = ([float(v) for v in column] for column in zip(*knots))
        trajs.append(Trajectory(times, xs, ys))
    return RandomWaypointModel.from_trajectories(trajs)


def build_ctx(model, mother=0, host=None, **overrides):
    """Assemble a ScenarioContext around a prebuilt model.

    Config overrides are passed straight to ScenarioConfig; the context is
    ready for driving a protocol by hand through its engine, whose clock
    starts at 0 and moves only by `engine.run_until`.
    """
    cfg = ScenarioConfig(n_nodes=model.n_nodes, mother=mother, **overrides)
    engine = Engine()
    radio = Radio(LinkSpan(model, cfg.range), MessageLedger())
    code = MobileCode(mother=mother, host=mother if host is None else host)
    return ScenarioContext(cfg=cfg, engine=engine, radio=radio, code=code)


def jump_code(protocol, new_host):
    """Migrate the code by hand at the engine's instant: host switch first,
    protocol hook right after."""
    code = protocol.code
    old_host = code.host
    code.jumps += 1
    code.host = new_host
    protocol.on_code_jump(old_host)


class MobilityBand(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


#: band boundaries: Mob in (0, 3] is low, (3, 8] medium, above 8 high
BAND_LOW_MAX = 3.0
BAND_MEDIUM_MAX = 8.0


def classify_mobility(mob: float) -> MobilityBand:
    """The band a measured Mob falls in: the calibration oracle for the
    node-speed presets."""
    if mob <= 0:
        raise ValueError(f"mobility must be positive to classify, got {mob}")
    if mob <= BAND_LOW_MAX:
        return MobilityBand.LOW
    if mob <= BAND_MEDIUM_MAX:
        return MobilityBand.MEDIUM
    return MobilityBand.HIGH

"""Scenario configuration: defaults, validation and the flat key=value file format."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional

PROTOCOLS = ("forwarder_proactive", "forwarder_reactive", "centralized", "zoned")
CODE_BANDS = ("low", "medium", "high")
NODE_MOB_LABELS = ("low", "medium", "high", "custom")

#: node speed [min, max] m/s presets calibrated so the measured network
#: mobility lands in its band on the paper-scale area (see README, calibration)
NODE_SPEED_PRESETS = {
    "low": (2.0, 4.5),
    "medium": (8.0, 15.0),
    "high": (18.0, 30.0),
}

#: code jumps per second, per code band
JUMP_RATES = {"low": 0.1, "medium": 0.5, "high": 2.0}

#: nominal Mob target per band, echoed into result rows
MOB_TARGETS = {"low": 1.5, "medium": 5.0, "high": 10.0}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    area: tuple[float, float] = (1000.0, 500.0)
    n_nodes: int = 25
    range: float = 250.0
    protocol: str = "forwarder_reactive"
    n_zones: int = 2
    lam: float = 0.25                       # config key: lambda (requests/second)
    node_mob: str = "medium"                # low | medium | high | custom
    node_speed: Optional[tuple[float, float]] = None
    code_band: str = "medium"
    duration: float = 200.0
    seed: int = 1
    mother: int = 0
    metric_dt: float = 1.0
    report_period: float = 2.0              # station report cadence (zoned)
    central_report_period: float = 1.0      # diffusion report cadence (centralized)
    warmup: float = 10.0
    partition_grace: float = 30.0

    def __post_init__(self) -> None:
        for key, labels in (("protocol", PROTOCOLS), ("code_band", CODE_BANDS),
                            ("node_mob", NODE_MOB_LABELS)):
            if getattr(self, key) not in labels:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}, "
                                  f"expected one of {labels}")
        if self.node_speed is None:
            if self.node_mob == "custom":
                raise ConfigError("node_mob=custom requires an explicit node_speed")
            object.__setattr__(self, "node_speed", NODE_SPEED_PRESETS[self.node_mob])
        # pairs given as lists are kept as tuples, so a config and its world
        # key hash
        for name in ("area", "node_speed"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # no NaN or infinity in a float field or either member of a pair
        for field in fields(self):
            value = getattr(self, field.name)
            numbers = value if isinstance(value, tuple) else (value,)
            if "float" in field.type and not all(map(math.isfinite, numbers)):
                key = KEY_OF_FIELD.get(field.name, field.name)
                raise ConfigError(f"{key} must be finite, got {value}")
        for key in ("range", "lambda", "duration", "metric_dt", "report_period",
                    "central_report_period", "partition_grace"):
            if getattr(self, KEY_ALIASES.get(key, key)) <= 0:
                raise ConfigError(f"{key} must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        preset = NODE_SPEED_PRESETS.get(self.node_mob)
        if preset is not None and self.node_speed != preset:
            raise ConfigError(f"node_mob={self.node_mob} runs at {preset} m/s, got "
                              f"node_speed {self.node_speed}; use node_mob=custom")
        smin, smax = self.node_speed
        if not (0 < smin <= smax):
            raise ConfigError("node_speed must satisfy 0 < min <= max")
        w, h = self.area
        if w <= 0 or h <= 0:
            raise ConfigError("area dimensions must be positive")
        if self.n_nodes < 2:
            raise ConfigError("need at least two nodes")
        if not 0 <= self.mother < self.n_nodes:
            raise ConfigError("mother must name a node id")
        if self.n_zones < 1:
            raise ConfigError("n_zones must be >= 1")
        if self.protocol == "zoned" and self.n_zones > self.n_nodes:
            raise ConfigError(f"zoned protocol needs n_zones <= n_nodes, got "
                              f"n_zones={self.n_zones} for {self.n_nodes} nodes")
        if self.metric_dt >= self.duration:
            raise ConfigError("metric_dt must be smaller than duration")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")

    @property
    def jump_rate(self) -> float:
        return JUMP_RATES[self.code_band]

    @property
    def mob_target(self) -> Optional[float]:
        return MOB_TARGETS.get(self.node_mob)

    def replace(self, **updates) -> "ScenarioConfig":
        """A checked copy with `updates` applied. A preset node_mob label
        given without a node_speed brings its preset speed; a node_speed
        given without a label makes the band custom."""
        if "node_speed" not in updates and updates.get("node_mob") in NODE_SPEED_PRESETS:
            updates["node_speed"] = NODE_SPEED_PRESETS[updates["node_mob"]]
        elif "node_speed" in updates and "node_mob" not in updates:
            updates["node_mob"] = "custom"
        return dataclasses.replace(self, **updates)


#: file key -> dataclass field, where they differ, and back
KEY_ALIASES = {"lambda": "lam"}
KEY_OF_FIELD = {name: key for key, name in KEY_ALIASES.items()}

_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


def _parse_pair(key: str, raw: str) -> tuple[float, float]:
    parts = raw.lower().replace("x", " ").replace(",", " ").split()
    try:
        first, second = (float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"{key} expects two numbers like 1000x500 or 3,6, "
                          f"got {raw!r}") from None
    return (first, second)


def _parse_value(key: str, raw: str):
    """`raw` typed like the default of the field that file key `key` names."""
    default = _DEFAULTS[KEY_ALIASES.get(key, key)]
    if default is None or isinstance(default, tuple):  # node_speed, area
        return _parse_pair(key, raw)
    if isinstance(default, str):
        return raw.strip()
    kind, noun = (int, "an integer") if isinstance(default, int) else (float, "a number")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key} expects {noun}, got {raw!r}") from None


def parse_assignments(assignments: Iterable[tuple[str, str]],
                      base: Optional[ScenarioConfig] = None) -> ScenarioConfig:
    """Apply `key = value` assignments, given as (where, text) pairs; an
    error names the assignment by its `where`. Unknown keys are rejected."""
    cfg = base if base is not None else ScenarioConfig()
    updates = {}
    for where, text in assignments:
        try:
            if "=" not in text:
                raise ConfigError(f"expected key = value, got {text!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            attr = KEY_ALIASES.get(key, key)
            if attr not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            updates[attr] = _parse_value(key, raw)
        except ConfigError as err:
            raise ConfigError(f"{where}: {err}") from None
    return cfg.replace(**updates)


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse the flat `key = value` format, one assignment per line."""
    lines = ((f"line {n}", line.split("#", 1)[0].strip())
             for n, line in enumerate(text.splitlines(), start=1))
    return parse_assignments((where, line) for where, line in lines if line)


def load_config_file(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())

"""Discrete-event simulator for mobile-code localization in ad hoc networks.

Four protocols keep track of a roaming mobile code over an idealized radio
substrate: a proactive and a reactive forwarder chain, one centralized mobile
location server, and a zone-partitioned multi-server service. The harness
measures message cost per request (Nb_msg) and mean localization time (Rtime)
under configurable request load, node mobility and code mobility.
"""

from . import engine, scenario, sweep
from .config import (NODE_SPEED_PRESETS, PROTOCOLS, ConfigError, ScenarioConfig,
                     load_config_file)
from .scenario import run_scenario
from .sweep import comparison_table, run_sweep, write_csv

__version__ = "0.1.0"

__all__ = [
    "NODE_SPEED_PRESETS", "PROTOCOLS", "ConfigError", "ScenarioConfig",
    "comparison_table", "engine", "load_config_file", "run_scenario",
    "run_sweep", "scenario", "sweep", "write_csv",
]

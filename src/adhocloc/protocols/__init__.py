"""The four localization protocols and their shared scaffolding."""

from .base import CodeMigrationProcess, LocalizationProtocol, MobileCode, ScenarioContext
from .forwarder import ForwarderEntry, ForwarderProtocol
from .server import CentralizedProtocol, ServerAgent
from .zoned import ZonedProtocol

__all__ = [
    "CodeMigrationProcess", "LocalizationProtocol", "MobileCode",
    "ScenarioContext", "ForwarderEntry", "ForwarderProtocol",
    "CentralizedProtocol", "ServerAgent", "ZonedProtocol", "make_protocol",
]


def make_protocol(ctx: ScenarioContext) -> LocalizationProtocol:
    """The protocol `ctx.cfg.protocol` names; `ScenarioConfig` refuses any other."""
    name = ctx.cfg.protocol
    if name == "centralized":
        return CentralizedProtocol(ctx)
    if name == "zoned":
        return ZonedProtocol(ctx)
    return ForwarderProtocol(ctx, proactive=name == "forwarder_proactive")

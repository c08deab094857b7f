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


def make_protocol(name: str, ctx: ScenarioContext) -> LocalizationProtocol:
    if name == "forwarder_reactive":
        return ForwarderProtocol(ctx, proactive=False)
    if name == "forwarder_proactive":
        return ForwarderProtocol(ctx, proactive=True)
    if name == "centralized":
        return CentralizedProtocol(ctx)
    if name == "zoned":
        return ZonedProtocol(ctx)
    raise ValueError(f"unknown protocol {name!r}")

"""Shared protocol scaffolding: the roaming code, its migration process, and
the hooks every localization protocol implements."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..config import ScenarioConfig
from ..engine import Engine, RngStreams
from ..metrics import RequestRecord
from ..mobility import RandomWaypointModel
from ..radio import MessageKind, MessageLedger, Radio


class ProtocolError(RuntimeError):
    """A protocol reached a state its own invariants forbid."""


@dataclass
class MobileCode:
    """The one roaming code a run localizes: its mother station, its current
    host and the number of jumps it has made."""
    mother: int
    host: int
    jumps: int = 0


@dataclass
class ScenarioContext:
    cfg: ScenarioConfig
    engine: Engine
    streams: RngStreams
    model: RandomWaypointModel
    radio: Radio
    ledger: MessageLedger
    code: MobileCode


class LocalizationProtocol:
    """Interface the harness drives: bootstrap, migration side effects, locates."""

    def __init__(self, ctx: ScenarioContext):
        self.ctx = ctx
        self.cfg = ctx.cfg
        self.engine = ctx.engine
        self.radio = ctx.radio
        self.model = ctx.model
        self.code = ctx.code

    def start(self) -> None:
        raise NotImplementedError

    def on_code_jump(self, old_host: int, new_host: int, t: float) -> None:
        raise NotImplementedError

    def locate(self, record: RequestRecord) -> None:
        raise NotImplementedError

    def _send(self, src: int, dst: int, kind: MessageKind, t: float,
              then: Callable[[], None], request_id: Optional[int] = None) -> bool:
        """Unicast src -> dst at t and run `then` at the arrival; False when
        the message cannot be delivered."""
        arrival = self.radio.unicast(src, dst, kind, t, request_id=request_id)
        if arrival is None:
            return False
        self.engine.schedule(arrival, then)
        return True

    # -- request outcomes ----------------------------------------------------

    def _resolve(self, record: RequestRecord, t: float,
                 returned_host: int, truth_host: int) -> None:
        if record.done:
            return
        record.resolved_at = t
        record.returned_host = returned_host
        record.truth_host = truth_host

    def _fail(self, record: RequestRecord, t: float) -> None:
        if not record.done:
            record.failed_at = t

    def _local_hit(self, record: RequestRecord) -> bool:
        """Requests for a code sitting at its mother resolve on the spot."""
        if self.code.host == self.code.mother:
            self._resolve(record, self.engine.now, self.code.host, self.code.host)
            return True
        return False


class CodeMigrationProcess:
    """Drives the code across radio neighbours with exponential inter-jump delays.

    A jump instant with no neighbour in range is skipped (the code stays put).
    Migration is atomic within its event; the protocol hook runs right after
    the host switch so forwarders/updates see the new placement.
    """

    def __init__(self, ctx: ScenarioContext, protocol: LocalizationProtocol):
        self.ctx = ctx
        self.protocol = protocol
        self.rng = ctx.streams.code_migration
        self.jumps_attempted = 0
        self.jumps_made = 0

    def start(self) -> None:
        self._schedule_next(0.0)

    def _schedule_next(self, t: float) -> None:
        delay = float(self.rng.exponential(1.0 / self.ctx.cfg.jump_rate))
        self.ctx.engine.schedule(t + delay, self._jump)

    def _jump(self) -> None:
        t = self.ctx.engine.now
        code = self.ctx.code
        self.jumps_attempted += 1
        nbrs = self.ctx.radio.neighbors(code.host, t)
        if nbrs:
            new_host = nbrs[int(self.rng.integers(len(nbrs)))]
            old_host = code.host
            code.jumps += 1
            code.host = new_host
            self.jumps_made += 1
            self.protocol.on_code_jump(old_host, new_host, t)
        self._schedule_next(t)

"""Shared protocol scaffolding: the roaming code, its migration process, and
the hooks every localization protocol implements."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..config import ScenarioConfig
from ..engine import Engine, stream
from ..metrics import RequestRecord
from ..radio import MessageKind, Radio


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
    radio: Radio
    code: MobileCode


class LocalizationProtocol:
    """Interface the harness drives: migration side effects and locates.

    A subclass's constructor sets up its state and timers at t = 0. Every
    hook runs inside an event, at the engine's instant, and reads the clock
    (`engine.now`) and the code's placement (`code`) from the run itself. A
    subclass supplies `on_code_jump(old_host)`, run right after the code left
    `old_host` for `code.host`, and `_attempt(record)`, which starts the
    search for `record`; a request ends once, by `_resolve` or `_fail`.
    The constructor keeps the context's parts, not the context; a protocol
    that draws random numbers builds its own stream from `cfg.seed`.
    """

    def __init__(self, ctx: ScenarioContext):
        self.cfg = ctx.cfg
        self.engine = ctx.engine
        self.radio = ctx.radio
        self.model = ctx.radio.model
        self.code = ctx.code

    def locate(self, record: RequestRecord) -> None:
        """A request for a code sitting at its mother resolves on the spot;
        any other goes to `_attempt`."""
        if self.code.host == self.code.mother:
            self._resolve(record, self.code.host, self.code.host)
        else:
            self._attempt(record)

    def _send(self, src: int, dst: int, kind: MessageKind,
              then: Callable[[], None], request_id: Optional[int] = None) -> bool:
        """Unicast src -> dst now and run `then` at the arrival; False when
        the message cannot be delivered."""
        arrival = self.radio.unicast(src, dst, kind, self.engine.now,
                                     request_id=request_id)
        if arrival is None:
            return False
        self.engine.schedule(arrival, then)
        return True

    # -- request outcomes ----------------------------------------------------

    def _resolve(self, record: RequestRecord, returned_host: int,
                 truth_host: int) -> None:
        record.resolved_at = self.engine.now
        record.returned_host = returned_host
        record.truth_host = truth_host

    def _fail(self, record: RequestRecord) -> None:
        record.failed_at = self.engine.now


class CodeMigrationProcess:
    """Drives the code across radio neighbours with exponential inter-jump delays.

    A jump instant with no neighbour in range is skipped (the code stays put).
    Migration is atomic within its event, and `protocol`, its view of the run,
    hears of it right after the host switch, so it sees the new placement.
    Delays and neighbour picks come from the seed's `code-migration` stream;
    `jumps_made` is the code's own count, `protocol.code.jumps`.
    """

    def __init__(self, protocol: LocalizationProtocol):
        self.protocol = protocol
        self.rng = stream(protocol.cfg.seed, "code-migration")
        self.jumps_attempted = 0
        self._schedule_next()

    @property
    def jumps_made(self) -> int:
        return self.protocol.code.jumps

    def _schedule_next(self) -> None:
        delay = float(self.rng.exponential(1.0 / self.protocol.cfg.jump_rate))
        self.protocol.engine.schedule(self.protocol.engine.now + delay, self._jump)

    def _jump(self) -> None:
        code = self.protocol.code
        self.jumps_attempted += 1
        nbrs = self.protocol.radio.neighbors(code.host, self.protocol.engine.now)
        if nbrs:
            old_host = code.host
            code.jumps += 1
            code.host = nbrs[int(self.rng.integers(len(nbrs)))]
            self.protocol.on_code_jump(old_host)
        self._schedule_next()

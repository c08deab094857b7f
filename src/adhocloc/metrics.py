"""Request bookkeeping and the two headline metrics, Nb_msg and Rtime."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import ScenarioConfig
from .radio import MessageLedger


@dataclass(slots=True)
class RequestRecord:
    request_id: int
    issued_at: float
    warmup: bool
    resolved_at: Optional[float] = None
    failed_at: Optional[float] = None
    units: int = 0
    retries: int = 0
    returned_host: Optional[int] = None
    truth_host: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.resolved_at is not None or self.failed_at is not None

    @property
    def status(self) -> str:
        if self.resolved_at is not None:
            return "resolved"
        if self.failed_at is not None:
            return "failed"
        return "in_flight"

    @property
    def duration(self) -> Optional[float]:
        if self.resolved_at is not None:
            return self.resolved_at - self.issued_at
        if self.failed_at is not None:
            return self.failed_at - self.issued_at
        return None


@dataclass
class MetricsReport:
    """One run's results, labelled by `cfg`, the config that ran it."""
    cfg: ScenarioConfig
    measured_mob: float
    n_requests: int            # measured (non-warm-up) requests
    n_resolved: int
    n_failed: int
    n_in_flight: int
    n_warmup: int
    total_messages: int        # every unit charged over the whole run
    by_kind: dict
    rtime_s: Optional[float]
    aborted: bool = False
    truth_checked: int = 0
    truth_matches: int = 0

    @property
    def nb_msg(self) -> Optional[float]:
        """Every unit charged in the run (maintenance, announcements, updates
        and lookups alike) per measured request; None without any."""
        if self.n_requests == 0:
            return None
        return self.total_messages / self.n_requests


def compute_rtime(records: Sequence[RequestRecord]) -> Optional[float]:
    """Mean request duration in seconds over measured resolved + failed
    requests; None when no measured request completed.

    Failed requests contribute the time until their failure was declared;
    requests still in flight at the end of the run are excluded.
    """
    durations = [r.duration for r in records
                 if not r.warmup and r.duration is not None]
    if not durations:
        return None
    return sum(durations) / len(durations)


def build_report(cfg: ScenarioConfig, measured_mob: float,
                 records: Sequence[RequestRecord], ledger: MessageLedger,
                 aborted: bool = False) -> MetricsReport:
    """The run's report, labelled from the config that ran it."""
    measured = [r for r in records if not r.warmup]
    statuses = Counter(r.status for r in measured)
    total = ledger.total_units
    recount = ledger.recount()
    if recount != total:
        raise ValueError(f"ledger total {total} != raw-log recount {recount}")
    checked = [r for r in measured
               if r.status == "resolved" and r.returned_host is not None]
    return MetricsReport(
        cfg=cfg,
        measured_mob=measured_mob,
        n_requests=len(measured),
        n_resolved=statuses["resolved"],
        n_failed=statuses["failed"],
        n_in_flight=statuses["in_flight"],
        n_warmup=len(records) - len(measured),
        total_messages=total,
        by_kind=dict(sorted(ledger.by_kind.items())),
        rtime_s=compute_rtime(records),
        aborted=aborted,
        truth_checked=len(checked),
        truth_matches=sum(1 for r in checked if r.returned_host == r.truth_host),
    )

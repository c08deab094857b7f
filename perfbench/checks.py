"""Output checks and digests of finished scenario runs.

Every check recomputes a reported number from raw state (the ledger's rows
and the request records) instead of trusting the program's own totals, so a
faster ledger index or a changed report path cannot hide a wrong answer.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

#: tolerance for floats that are recomputed in the same order as the program
#: does today; a later change may sum in another order
REL_TOL = 1e-12


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def problems(result) -> list[str]:
    """Every way `result` disagrees with a recount from its raw state."""
    found = []
    units = Counter()
    for row in result.ledger.rows:
        units[row.request_id] += row.units
    for record in result.records:
        if units[record.request_id] != record.units:
            found.append(f"request {record.request_id}: record.units {record.units} "
                         f"!= ledger recount {units[record.request_id]}")
    report = result.report
    total = sum(units.values())
    if total != report.total_messages:
        found.append(f"total_messages {report.total_messages} != recount {total}")
    measured = [r for r in result.records if not r.warmup]
    nb_msg = total / len(measured) if measured else None
    if not _same(nb_msg, report.nb_msg):
        found.append(f"nb_msg {report.nb_msg!r} != recomputed {nb_msg!r}")
    durations = [r.duration for r in measured if r.duration is not None]
    rtime = sum(durations) / len(durations) if durations else None
    if not _same(rtime, report.rtime_s):
        found.append(f"rtime_s {report.rtime_s!r} != recomputed {rtime!r}")
    return found


def run_digest(result) -> str:
    """Hash of a run's simulated results: its labels, report and request records.

    Host-side counters (events, cache use) are left out, so a change that
    does less work for the same answers keeps the digest.
    """
    cfg, rep = result.cfg, result.report
    key = (
        cfg.protocol, cfg.lam, cfg.seed, cfg.code_band, tuple(cfg.node_speed),
        cfg.duration,
        rep.n_requests, rep.n_resolved, rep.n_failed, rep.n_in_flight,
        rep.n_warmup, rep.total_messages, sorted(rep.by_kind.items()),
        rep.rtime_s, rep.measured_mob, rep.aborted, rep.truth_checked,
        rep.truth_matches,
        [(r.request_id, r.issued_at, r.resolved_at, r.failed_at, r.units,
          r.retries, r.returned_host, r.truth_host) for r in result.records],
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


def instance_digest(run_digests: list[str], csv_bytes: bytes) -> str:
    h = hashlib.sha256()
    for d in run_digests:
        h.update(d.encode())
    h.update(csv_bytes)
    return h.hexdigest()


def counters(result) -> dict:
    """Counters the program keeps but does not report, read off one result."""
    protocol = result.protocol
    agents = list(getattr(protocol, "agents", None) or [])
    if getattr(protocol, "agent", None) is not None:
        agents.append(protocol.agent)
    measured = [r for r in result.records if not r.warmup]
    knots = sum(len(t.times) for t in result.model.trajectories)
    return {
        "protocol": result.cfg.protocol,
        "events": result.engine.executed,
        "skipped_cancelled": result.engine.skipped_cancelled,
        "n_requests": result.report.n_requests,
        "n_failed": result.report.n_failed,
        "zero_time_failures": sum(1 for r in measured
                                  if r.status == "failed" and r.duration == 0.0),
        "retries": sum(r.retries for r in result.records),
        "handoffs": getattr(protocol, "handoffs", 0),
        "agent_processed": sum(a.processed for a in agents),
        "jumps_attempted": result.mover.jumps_attempted,
        "jumps_made": result.mover.jumps_made,
        "nb_msg": result.report.nb_msg,
        "rtime_s": result.report.rtime_s,
        "aborted": bool(result.aborted),
        "ledger_rows": len(result.ledger.rows),
        "knots": knots,
    }

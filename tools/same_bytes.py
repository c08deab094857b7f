"""Same-bytes check: digests over every simulated value of two sets of runs.

A change that claims to move no simulated value must print the same lines
before and after it. Run it from the repository root against each tree:

    PYTHONPATH=src python tools/same_bytes.py
    PYTHONPATH=/path/to/other/checkout/src python tools/same_bytes.py

It prints one line per set of runs, `<runs> <sha256> events=<executed>
cancelled=<skipped> processed=<jobs> exact=<snapshots> worlds=<sha256
prefix> rows=<sha256 prefix>`. Each set runs both forwarders, centralized
and zoned with 2 and 4 zones, 200 s each. The first set covers lambda 0.25,
1 and 4, medium and high node speed, medium and high code band and seeds 1
and 2: 120 runs, none of which aborts. The second is the aborting set:
lambda 0.25, low node speed, medium code band and seeds 4 and 12, 10 runs
that each end in a partition abort, so a change to what an aborted run
reports shows in its line. The digest takes in every request record, every
ledger row (in order), the mover's jump counters, the measured Mob and the
abort reason: simulated values only. The engine's executed and
cancelled-skip event counts are host work, not results, so they are summed
over the runs and printed after the digest, outside it; a change that
removes events keeps the first two fields and shows its saving in the next
two. The fifth field sums the jobs every server agent took. No simulated
value reads that count, so the digest cannot see it, yet a worker that
takes some jobs without an event must keep it exact: both trees must print
the same total. The sixth counts the calls to `Radio.snapshot`, the exact
path of topology queries, wrapped from here so that any tree can be
measured; a change to the quiet windows that leaves their reach alone
prints the same count. The seventh hashes the knot arrays of every distinct
world, in run order, so a change to how the trajectories are drawn shows
directly, and not only through the Mob and the rows it moves. The eighth
hashes every run's CSV row, as a sweep CSV writes it without the
seed-averaged rows, in run order. Those are the report's counts and means,
which the digest does not take in, so a change inside `build_report` shows
there. The runs go through one `run_sweep` per protocol variant and set,
axes in the order listed and seeds innermost, so runs at one seed and node
speed share their world as in any sweep; any tree whose `run_sweep` takes
these axes and hands each result to `on_result` can be checked. `run_set`
runs one set and returns its line, so a test can check the aborting set.

It also compares each line's kept fields, all but the three counts of host
work (`events=`, `cancelled=`, `exact=`), with the set's pin in
`tests/pins.json`, and exits 1 if they differ. A change that moves a
simulated value on purpose runs `tools/repin.py`, which rewrites the pins.
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from adhocloc.config import ScenarioConfig
from adhocloc.radio import Radio
from adhocloc.scenario import WorldKey
from adhocloc.sweep import run_sweep, write_csv
from pins import pin

VARIANTS = (("forwarder_proactive", 2), ("forwarder_reactive", 2),
            ("centralized", 2), ("zoned", 2), ("zoned", 4))
#: each line's runs, by pin name, every variant over these axes: (lambdas,
#: node mobility labels, code bands, seeds)
RUN_SETS = {
    "main": ((0.25, 1.0, 4.0), ("medium", "high"), ("medium", "high"), (1, 2)),
    # low node speed: each of these runs ends in a partition abort
    "aborting": ((0.25,), ("low",), ("medium",), (4, 12)),
}
DURATION = 200.0


def run_key(result) -> tuple:
    """Every simulated value of one run, in a form whose repr is exact."""
    return (
        [(r.request_id, r.issued_at, r.warmup, r.resolved_at, r.failed_at,
          r.units, r.retries, r.returned_host, r.truth_host)
         for r in result.records],
        [(row.request_id, row.kind.name, row.src, row.dst, row.units, row.t)
         for row in result.ledger.rows],
        result.mover.jumps_attempted, result.mover.jumps_made,
        result.report.measured_mob, result.abort_reason,
    )


def csv_row(report) -> str:
    """One run's row as a sweep CSV writes it, without the header."""
    out = io.StringIO()
    write_csv([[report]], out, average=False)
    return out.getvalue().split("\n", 1)[1]


def agent_jobs(protocol) -> int:
    """Jobs taken by the run's server agents; 0 for the forwarders."""
    agents = list(getattr(protocol, "agents", []))
    if hasattr(protocol, "agent"):
        agents.append(protocol.agent)
    return sum(agent.processed for agent in agents)


def run_set(axes: tuple) -> str:
    """Run every variant over one set's axes; returns the set's line."""
    digest, worlds, rows = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    runs = executed = skipped = jobs = exact = 0
    seen: set = set()
    snapshot = Radio.snapshot

    def counted_snapshot(radio, t):
        nonlocal exact
        exact += 1
        return snapshot(radio, t)

    def on_result(result) -> None:
        nonlocal runs, executed, skipped, jobs
        digest.update(repr(run_key(result)).encode())
        rows.update(csv_row(result.report).encode())
        executed += result.engine.executed
        skipped += result.engine.skipped_cancelled
        jobs += agent_jobs(result.protocol)
        runs += 1
        key = WorldKey.of(result.cfg)
        if key not in seen:
            seen.add(key)
            for array in result.model.knot_arrays:
                worlds.update(array.tobytes())

    Radio.snapshot = counted_snapshot
    try:
        for protocol, n_zones in VARIANTS:
            seen.clear()        # each sweep draws its worlds anew
            run_sweep(ScenarioConfig(n_zones=n_zones, duration=DURATION), [protocol],
                      *axes, on_result=on_result)
    finally:
        Radio.snapshot = snapshot
    return (f"{runs} {digest.hexdigest()} events={executed} cancelled={skipped} "
            f"processed={jobs} exact={exact} worlds={worlds.hexdigest()[:16]} "
            f"rows={rows.hexdigest()[:16]}")


def kept_fields(line: str) -> str:
    """A line without its counts of host work: what the pin holds."""
    return " ".join(field for field in line.split()
                    if not field.startswith(("events=", "cancelled=", "exact=")))


def pinned_values() -> dict:
    return {f"same_bytes.{name}": kept_fields(run_set(axes))
            for name, axes in RUN_SETS.items()}


def main() -> int:
    status = 0
    for name, axes in RUN_SETS.items():
        line, pinned = run_set(axes), pin(f"same_bytes.{name}")
        print(line)
        if kept_fields(line) != pinned:
            print(f"MISMATCH: pinned {pinned}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

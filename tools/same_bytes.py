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
runs one set and returns its line, so a test can pin a set's digest.

It also compares each line with the one kept in `EXPECTED`, field by
field apart from the three counts of host work (`events=`, `cancelled=`,
`exact=`), and exits 1 if any kept field differs. A change that moves a
simulated value on purpose updates `EXPECTED`.
"""

from __future__ import annotations

import hashlib
import io
import sys

from adhocloc.config import ScenarioConfig
from adhocloc.radio import Radio
from adhocloc.scenario import WorldKey
from adhocloc.sweep import run_sweep, write_csv

VARIANTS = (("forwarder_proactive", 2), ("forwarder_reactive", 2),
            ("centralized", 2), ("zoned", 2), ("zoned", 4))
#: each line's runs, every variant over these axes: (lambdas, node mobility
#: labels, code bands, seeds)
RUN_SETS = (
    ((0.25, 1.0, 4.0), ("medium", "high"), ("medium", "high"), (1, 2)),
    # low node speed: each of these runs ends in a partition abort
    ((0.25,), ("low",), ("medium",), (4, 12)),
)
DURATION = 200.0
#: each set's line as this tree prints it; `main` compares against it
EXPECTED = (
    "120 86976f9b6ad03326f55134da4e8e7f6a1170e3784e3ee9eeff565bce123114c6 events=835732 "
    "cancelled=1837 processed=327719 exact=1039 worlds=ec73456c3b09a868 rows=8cd83e3c10c61c53",
    "10 58467c7bbd98ff7936ab9da5ac90e82ae610c369d10029ca9a85057eb3b4a2b6 events=6476 "
    "cancelled=0 processed=3107 exact=25 worlds=b1240492749cbd8e rows=2363f6c25163d895",
)
#: the fields that count host work, which `main` does not compare
HOST_WORK = ("events=", "cancelled=", "exact=")


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


def kept_fields(line: str) -> list[str]:
    """A line's fields without its counts of host work."""
    return [field for field in line.split() if not field.startswith(HOST_WORK)]


def main() -> int:
    status = 0
    for axes, expected in zip(RUN_SETS, EXPECTED):
        line = run_set(axes)
        print(line)
        if kept_fields(line) != kept_fields(expected):
            print(f"MISMATCH: expected {expected}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Sweeps over load, mobility, code band and protocol; CSV rows; comparisons.

Cells run sequentially in deterministic (axis, seed) order and every float is
serialized with one fixed format, so a sweep CSV is byte-stable: rerunning any
cell with the same config and seed reproduces its row exactly. Runs at one
seed and geometry share a `scenario.World`, so at each seed the trajectories
are drawn, their link span solved and Mob measured once for every protocol,
load and code band; each run still gets the values it would get alone.
"""

from __future__ import annotations

import csv
from collections import Counter
from typing import IO, Iterable, Optional, Sequence

from .config import ScenarioConfig
from .metrics import MetricsReport
from .scenario import World, WorldKey, run_scenario

#: seed column value for rows averaged across seeds
AVERAGE_SEED = "avg"


def _first(values: list):
    return values[0]


def _mean(values: list) -> Optional[float]:
    """Mean of the values present, summed in seed order; None without any."""
    present = [value for value in values if value is not None]
    if not present:
        return None
    return float(sum(present)) / len(present)


def _seed_marker(values: list) -> str:
    return AVERAGE_SEED


#: one result row: (CSV column, MetricsReport attribute, how a seed-averaged
#: row combines the cell's per-seed values, in seed order)
COLUMNS = (
    ("protocol", "protocol", _first),
    ("lambda", "lam", _first),
    ("node_mob_target", "node_mob_target", _first),
    ("measured_mob", "measured_mob", _mean),
    ("code_band", "code_band", _first),
    ("seed", "seed", _seed_marker),
    ("n_requests", "n_requests", _mean),
    ("n_failed", "n_failed", _mean),
    ("total_messages", "total_messages", _mean),
    ("nb_msg", "nb_msg", _mean),
    ("rtime_s", "rtime_s", _mean),
    ("aborted", "aborted", any),
)

CSV_COLUMNS = tuple(column for column, _, _ in COLUMNS)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def report_to_row(report: MetricsReport) -> dict:
    """One result row, keyed by CSV_COLUMNS, values still typed."""
    return {column: getattr(report, attr) for column, attr, _ in COLUMNS}


def average_row(rows: Sequence[dict]) -> dict:
    """Seed-averaged row over same-cell results; seed becomes "avg"."""
    if not rows:
        raise ValueError("cannot average zero rows")
    return {column: combine([row[column] for row in rows])
            for column, _, combine in COLUMNS}


def write_csv(rows: Iterable[dict], fh: IO[str]) -> int:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    count = 0
    for row in rows:
        writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])
        count += 1
    return count


def run_sweep(base: ScenarioConfig,
              protocols: Sequence[str],
              lambdas: Sequence[float],
              node_mobs: Sequence[str],
              code_bands: Sequence[str],
              seeds: Sequence[int],
              average: bool = True,
              on_result=None) -> list[dict]:
    """Run the full grid; per-seed rows first, then the cell's averaged row.
    Every cell's config is built, and so checked, before the first one runs.
    Runs that share a `WorldKey` (the seed and the geometry) share one
    `World`: the trajectories are drawn, their link span solved and Mob
    measured once, by the first of them, and the world is released after
    the last."""
    cells = [[base.replace(protocol=protocol, lam=lam, node_mob=node_mob,
                           code_band=code_band, seed=seed) for seed in seeds]
             for protocol in protocols for lam in lambdas
             for node_mob in node_mobs for code_band in code_bands]
    uses = Counter(WorldKey.of(cfg) for cfgs in cells for cfg in cfgs)
    worlds: dict[WorldKey, World] = {}
    rows: list[dict] = []
    for cfgs in cells:
        cell_rows = []
        for cfg in cfgs:
            key = WorldKey.of(cfg)
            if key not in worlds:
                worlds[key] = World(cfg)
            uses[key] -= 1
            # released with the last run that reads it
            world = worlds[key] if uses[key] else worlds.pop(key)
            result = run_scenario(cfg, world)
            row = report_to_row(result.report)
            cell_rows.append(row)
            rows.append(row)
            if on_result is not None:
                on_result(result)
        if average and len(seeds) > 1:
            rows.append(average_row(cell_rows))
    return rows


def comparison_table(rows: Sequence[dict]) -> str:
    """Protocol ordering per lambda from seed-averaged (or single-seed) rows.

    Lists Nb_msg and Rtime per protocol, cheapest first, one block per lambda.
    """
    averaged = [r for r in rows if r["seed"] == AVERAGE_SEED] or list(rows)
    lams = sorted({r["lambda"] for r in averaged})
    lines = []
    for lam in lams:
        block = sorted((r for r in averaged if r["lambda"] == lam),
                       key=lambda r: (r["nb_msg"] is None,
                                      r["nb_msg"] if r["nb_msg"] is not None else 0.0))
        lines.append(f"lambda = {_fmt(lam)}")
        lines.append(f"  {'protocol':<20} {'nb_msg':>12} {'rtime_s':>10} {'aborted':>8}")
        for row in block:
            lines.append(f"  {row['protocol']:<20} {_fmt(row['nb_msg']):>12} "
                         f"{_fmt(row['rtime_s']):>10} {_fmt(row['aborted']):>8}")
    return "\n".join(lines)

"""Sweeps over load, mobility, code band and protocol; CSV rows; comparisons.

A sweep returns each cell's `MetricsReport`s in seed order, each labelled by
the config that ran it; rows are views of them, built only where they are
written (`cell_rows`, so `write_csv` and `comparison_table`). Cells run
sequentially in deterministic (axis, seed) order and every float is
serialized with one fixed format, so a sweep CSV is byte-stable: rerunning any
cell with the same config and seed reproduces its row exactly. Runs at one
seed and geometry share a `scenario.World`, so at each seed the trajectories
are drawn, their link span solved and Mob measured once for every protocol,
load and code band; each run still gets the values it would get alone.
"""

from __future__ import annotations

import csv
from collections import Counter
from operator import attrgetter
from typing import IO, Iterable, Optional, Sequence

from .config import ConfigError, ScenarioConfig
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


#: one result row: (CSV column, what reads it off a MetricsReport, how a
#: seed-averaged row combines the cell's per-seed values, in seed order)
COLUMNS = tuple((column, attrgetter(attr), combine) for column, attr, combine in (
    ("protocol", "cfg.protocol", _first),
    ("lambda", "cfg.lam", _first),
    ("node_mob_target", "cfg.mob_target", _first),
    ("measured_mob", "measured_mob", _mean),
    ("code_band", "cfg.code_band", _first),
    ("seed", "cfg.seed", _seed_marker),
    ("n_requests", "n_requests", _mean),
    ("n_failed", "n_failed", _mean),
    ("total_messages", "total_messages", _mean),
    ("nb_msg", "nb_msg", _mean),
    ("rtime_s", "rtime_s", _mean),
    ("aborted", "aborted", any),
))

CSV_COLUMNS = tuple(column for column, _, _ in COLUMNS)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def average_row(rows: Sequence[dict]) -> dict:
    """Seed-averaged row over same-cell results; seed becomes "avg"."""
    if not rows:
        raise ValueError("cannot average zero rows")
    return {column: combine([row[column] for row in rows])
            for column, _, combine in COLUMNS}


def cell_rows(reports: Sequence[MetricsReport], average: bool = True) -> list[dict]:
    """A cell's rows, keyed by CSV_COLUMNS with values still typed: one per
    seed, then their average when `average` and there is more than one."""
    rows = [{column: read(report) for column, read, _ in COLUMNS} for report in reports]
    if average and len(rows) > 1:
        rows.append(average_row(rows))
    return rows


def write_csv(cells: Iterable[Sequence[MetricsReport]], fh: IO[str],
              average: bool = True) -> int:
    """Every cell's `cell_rows` under a header; returns the rows written."""
    rows = [row for reports in cells for row in cell_rows(reports, average)]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_fmt(row[col]) for col in CSV_COLUMNS] for row in rows)
    return len(rows)


def run_sweep(base: ScenarioConfig,
              protocols: Sequence[str],
              lambdas: Sequence[float],
              node_mobs: Sequence[str],
              code_bands: Sequence[str],
              seeds: Sequence[int],
              on_result=None) -> list[list[MetricsReport]]:
    """Run the full grid; returns each cell's reports in seed order, cells
    in axis order (protocol, then lambda, node mobility and code band).
    Every cell's config is built, and so checked, before the first one runs;
    an empty axis is refused with ConfigError. Runs that share a `WorldKey`
    (the seed and the geometry) share one `World`: the trajectories are
    drawn, their link span solved and Mob measured once, by the first of
    them, and the world is released after the last."""
    for name, values in dict(protocols=protocols, lambdas=lambdas, node_mobs=node_mobs,
                             code_bands=code_bands, seeds=seeds).items():
        if not values:
            raise ConfigError(f"sweep axis {name} names no value")
    cells = [[base.replace(protocol=protocol, lam=lam, node_mob=node_mob,
                           code_band=code_band, seed=seed) for seed in seeds]
             for protocol in protocols for lam in lambdas
             for node_mob in node_mobs for code_band in code_bands]
    uses = Counter(WorldKey.of(cfg) for cfgs in cells for cfg in cfgs)
    worlds: dict[WorldKey, World] = {}

    def run(cfg: ScenarioConfig) -> MetricsReport:
        key = WorldKey.of(cfg)
        if key not in worlds:
            worlds[key] = World(cfg)
        uses[key] -= 1
        # released with the last run that reads it
        world = worlds[key] if uses[key] else worlds.pop(key)
        result = run_scenario(cfg, world)
        if on_result is not None:
            on_result(result)
        return result.report

    return [[run(cfg) for cfg in cfgs] for cfgs in cells]


def comparison_table(cells: Sequence[Sequence[MetricsReport]]) -> str:
    """Nb_msg and Rtime per protocol, cheapest first: one block per lambda,
    node mobility and code band, in lambda order, ranking each cell by its
    last row (its seed average, or its one row with one seed)."""
    blocks: dict[tuple, list[dict]] = {}
    for reports in sorted(cells, key=lambda cell: cell[0].cfg.lam):
        cfg = reports[0].cfg
        key = (cfg.lam, cfg.node_mob, cfg.node_speed, cfg.code_band)
        blocks.setdefault(key, []).append(cell_rows(reports)[-1])
    lines = []
    for (lam, node_mob, _, code_band), rows in blocks.items():
        rows.sort(key=lambda r: (r["nb_msg"] is None, r["nb_msg"] or 0.0))
        lines.append(f"lambda = {_fmt(lam)}, node_mob = {node_mob}, code_band = {code_band}")
        lines.append(f"  {'protocol':<20} {'nb_msg':>12} {'rtime_s':>10} {'aborted':>8}")
        for row in rows:
            lines.append(f"  {row['protocol']:<20} {_fmt(row['nb_msg']):>12} "
                         f"{_fmt(row['rtime_s']):>10} {_fmt(row['aborted']):>8}")
    return "\n".join(lines)

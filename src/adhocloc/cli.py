"""Command-line interface: single runs, sweeps and protocol comparisons.

Exit codes: 0 success, 1 configuration problem, 2 scenario aborted
(network partition outlasted the grace period), 3 the simulator failed
(traceback on stderr, results discarded).
"""

from __future__ import annotations

import argparse
import csv
import sys
import traceback
from contextlib import nullcontext
from typing import Optional, Sequence

from .config import (ConfigError, ScenarioConfig, _parse_value, load_config_file,
                     parse_assignments)
from .mobility import write_trajectory_csv
from .scenario import ScenarioResult, run_scenario
from .sweep import comparison_table, run_sweep, write_csv, _fmt

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORTED = 2
EXIT_INVARIANT = 3


def _load_config(path: Optional[str], overrides: Sequence[str]) -> ScenarioConfig:
    cfg = load_config_file(path) if path else ScenarioConfig()
    return parse_assignments(((f"--set {item}", item) for item in overrides), cfg)


def _dump_messages(result: ScenarioResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["request_id", "kind", "src", "dst", "units", "t"])
        for row in result.ledger.rows:
            writer.writerow([
                "" if row.request_id is None else row.request_id,
                row.kind.value, row.src, row.dst, row.units, _fmt(row.t),
            ])


def _dump_trace(result: ScenarioResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        write_trajectory_csv(result.model, result.cfg.duration,
                             result.cfg.metric_dt, fh)


def _print_report(result: ScenarioResult, out) -> None:
    cfg, report = result.cfg, result.report
    print(f"protocol:        {cfg.protocol}", file=out)
    print(f"lambda:          {_fmt(cfg.lam)} req/s", file=out)
    print(f"node mobility:   target {_fmt(cfg.mob_target)}, "
          f"measured {_fmt(report.measured_mob)}", file=out)
    print(f"code band:       {cfg.code_band}", file=out)
    print(f"seed:            {cfg.seed}", file=out)
    print(f"requests:        {report.n_requests} measured "
          f"({report.n_resolved} resolved, {report.n_failed} failed, "
          f"{report.n_in_flight} in flight, {report.n_warmup} warm-up)", file=out)
    print(f"total messages:  {report.total_messages}", file=out)
    print(f"Nb_msg:          {_fmt(report.nb_msg)}", file=out)
    print(f"Rtime:           {_fmt(report.rtime_s)} s", file=out)
    print(f"code jumps:      {result.mover.jumps_made} of "
          f"{result.mover.jumps_attempted} attempts", file=out)
    protocol = result.protocol
    agents = getattr(protocol, "agents", [getattr(protocol, "agent", None)])
    if agents[0] is not None:
        jobs = " ".join(str(agent.processed) for agent in agents)
        print(f"agent jobs:      {jobs}", file=out)
    if report.aborted:
        print(f"aborted:         yes ({result.abort_reason})", file=out)


def _write_rows(cells: list, path: Optional[str], average: bool = True) -> None:
    """The cells' result rows as CSV to `path`, or to stdout without one."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        write_csv(cells, fh, average)


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    result = run_scenario(cfg)
    _print_report(result, sys.stdout)
    _write_rows([[result.report]], args.csv)
    if args.dump_trace:
        _dump_trace(result, args.dump_trace)
    if args.dump_messages:
        _dump_messages(result, args.dump_messages)
    return EXIT_ABORTED if result.aborted else EXIT_OK


def _axes_from_args(cfg: ScenarioConfig, args) -> dict:
    def axis(raw: Optional[str], flag: str, key: str, default) -> list:
        if raw is None:
            return [default]
        values = [_parse_value(key, part) for part in raw.split(",") if part.strip()]
        if not values:
            raise ConfigError(f"{flag} {raw!r} names no value")
        return values

    return {
        "protocols": axis(args.protocols, "--protocols", "protocol", cfg.protocol),
        "lambdas": axis(args.lambdas, "--lambda", "lambda", cfg.lam),
        "node_mobs": axis(args.node_mobs, "--node-mobs", "node_mob", cfg.node_mob),
        "code_bands": axis(args.code_bands, "--code-bands", "code_band", cfg.code_band),
        "seeds": axis(args.seeds, "--seeds", "seed", cfg.seed),
    }


def cmd_sweep(args) -> int:
    """`sweep` writes every row, seed averages unless --no-average;
    `compare` prints the ranking table and writes rows only with --csv."""
    cfg = _load_config(args.config, args.set or [])
    cells = run_sweep(cfg, **_axes_from_args(cfg, args))
    if args.command == "compare":
        print(comparison_table(cells))
    if args.csv or args.command == "sweep":
        _write_rows(cells, args.csv, average=not args.no_average)
    aborted = any(report.aborted for reports in cells for report in reports)
    return EXIT_ABORTED if aborted else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adhocloc",
        description="Deterministic simulator comparing mobile-code "
                    "localization protocols in an ad hoc network.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", nargs="?", default=None,
                       help="scenario config file (key = value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--csv", metavar="PATH", help="write result rows here")

    p_run = sub.add_parser("run", help="run one scenario")
    common(p_run)
    p_run.add_argument("--dump-trace", metavar="PATH",
                       help="write sampled node trajectories (node_id,t,x,y)")
    p_run.add_argument("--dump-messages", metavar="PATH",
                       help="write the raw message log "
                            "(request_id,kind,src,dst,units,t)")
    p_run.set_defaults(fn=cmd_run)

    def axes(p: argparse.ArgumentParser) -> None:
        p.add_argument("--protocols", help="comma list of protocols")
        p.add_argument("--lambda", dest="lambdas", help="comma list of request rates")
        p.add_argument("--node-mobs", help="comma list of node mobility labels")
        p.add_argument("--code-bands", help="comma list of code mobility bands")
        p.add_argument("--seeds", help="comma list of seeds")

    p_sweep = sub.add_parser("sweep", help="run a scenario grid")
    common(p_sweep)
    axes(p_sweep)
    p_sweep.add_argument("--no-average", action="store_true",
                         help="omit the seed-averaged rows")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="run protocols on the same seeds and rank them")
    common(p_cmp)
    axes(p_cmp)
    p_cmp.set_defaults(fn=cmd_sweep, no_average=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

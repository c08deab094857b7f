"""Benchmark of the adhocloc simulator: whole scenario sweeps, timed and checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

`--trace 0` runs one short warm-up sweep, then repeats instances of the
workload (see workloads.py), each with fresh scenario seeds, until about
`--seconds` have passed and at least three have run. It reports the medians
over instances of

  wall_s       host seconds of one instance, from building the config to the
               written CSV (the benchmark's own checks are not counted);
  setup_s      host seconds before the first event, summed over the
               instance's runs: from entering `run_scenario` to entering
               `Engine.run_until`, taken from 20 replays of the first
               instance's set-ups (`setup_replays`);

both scaled to the reference host speed (hostspeed.py), and `peak_rss_mb`,
the peak resident memory of the process. Then it runs the first cell of the
first instance again and checks that it reproduces.

`--trace 1` runs the first instance twice: once untraced, once with a span
around every public function of the engine, mobility, kernels, radio,
scenario, metrics and sweep modules (spans.py). It reports per-layer counts
and self times, the counters the program keeps but does not print, and the
tracing overhead, and checks that tracing changed no simulated result.

Every scenario run is one operation. It fails if it raises, if a request's
units differ from a recount of the ledger rows, or if Nb_msg or Rtime differ
from a recomputation from the records. `sim_digest` hashes the first
instance's per-run results and CSV bytes, so two versions of the program
that simulate the same thing print the same digest.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The full result, with the environment
block, goes to the line before it and to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import hostspeed
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_INSTANCES = 3
#: set-ups of the first instance's cells timed on their own, for `setup_s`
SETUP_REPLAYS = 20


def load_program():
    src = ROOT / "src"
    if not (src / "adhocloc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source under {src}")
    sys.path.insert(0, str(src))
    import adhocloc
    return adhocloc


def environment(adhocloc) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_active": bool(getattr(adhocloc, "NUMBA_ACTIVE", False)),
        "git_sha": sha,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def base_config(adhocloc, workload):
    return adhocloc.ScenarioConfig(
        node_mob=workload.speed,
        node_speed=adhocloc.NODE_SPEED_PRESETS[workload.speed],
        code_band=workload.code_band,
        duration=workload.duration,
    )


def cell_configs(adhocloc, workload, seeds: list[int]) -> list:
    """The config of every run of an instance, in the order `run_sweep` runs them."""
    base = base_config(adhocloc, workload)
    return [base.replace(protocol=p, lam=lam, node_mob=workload.speed,
                         code_band=workload.code_band, seed=seed)
            for p in workload.protocols for lam in workload.lambdas for seed in seeds]


class Instance:
    """One sweep of a workload at one set of seeds, with what it produced.

    With `sample_host` the host's speed is sampled while the sweep runs
    (hostspeed.Sampler): the samples' own time is left out of every time
    measured, and `scale` turns the instance's seconds into seconds at the
    reference speed. Otherwise `scale` is 1.
    """

    def __init__(self, adhocloc, workload, seeds: list[int], full_trace: bool = False,
                 sample_host: bool = False):
        self.seeds = seeds
        self.runs: list[dict] = []
        self.run_digests: list[str] = []
        self.failures: list[str] = []
        self.tracer = Tracer(full=full_trace)
        sampler = hostspeed.Sampler() if sample_host else None
        sweep = adhocloc.sweep
        check_s = 0.0

        def on_result(result):
            nonlocal check_s
            with sampler.paused() if sampler else contextlib.nullcontext():
                t0 = perf_counter()
                found = checks.problems(result)
                if found:
                    self.failures.append(f"run {len(self.runs)}: " + "; ".join(found[:5]))
                self.runs.append(checks.counters(result))
                self.run_digests.append(checks.run_digest(result))
                check_s += perf_counter() - t0

        csv = io.StringIO()
        gc.collect()
        with self.tracer, sampler or contextlib.nullcontext():
            t0 = perf_counter()
            try:
                base = base_config(adhocloc, workload)
                rows = sweep.run_sweep(base, workload.protocols, workload.lambdas,
                                       [workload.speed], [workload.code_band], seeds,
                                       on_result=on_result)
                sweep.write_csv(rows, csv)
                raised = False
            except Exception:
                raised = True
                self.failures.append(f"run {len(self.runs)} raised:\n{traceback.format_exc()}")
            t1 = perf_counter()

        def span(a, b):
            return b - a - (sampler.excluded(a, b) if sampler else 0.0)

        self.wall_s = span(t0, t1) - check_s
        self.scale = sampler.scale() if sampler else 1.0
        self.excluded = sampler.intervals if sampler else []
        for run, (start, loop_start, loop_end, end) in zip(self.runs, self.tracer.run_phases()):
            run.update(wall_s=span(start, end), setup_s=span(start, loop_start),
                       loop_s=span(loop_start, loop_end), finalize_s=span(loop_end, end))
        self.setup_s = sum(run.get("setup_s", 0.0) for run in self.runs)
        self.attempted = len(self.runs) + raised
        self.failed = len(self.failures)
        self.digest = checks.instance_digest(self.run_digests, csv.getvalue().encode())

    def per_protocol(self) -> dict:
        """Scaled wall seconds and events per second of each protocol's runs."""
        out = {}
        for run in self.runs:
            p = out.setdefault(run["protocol"], {"wall_s": 0.0, "events": 0})
            p["wall_s"] += run.get("wall_s", 0.0) * self.scale
            p["events"] += run["events"]
        for p in out.values():
            p["events_per_s"] = _ratio(p["events"], p["wall_s"])
        return out


def warm_up(adhocloc, workload, seed: int) -> Instance:
    """A short sweep of every protocol of the workload, run before any clock
    that is reported starts, so that first-call costs land outside it."""
    short = dataclasses.replace(workload, lambdas=workload.lambdas[:1], duration=20.0,
                                seeds_per_instance=1)
    return Instance(adhocloc, short, [seed * 1000])


class _SetupDone(BaseException):
    """Raised where the event loop would start, to end a set-up replay."""


def setup_replays(adhocloc, workload, seeds: list[int]) -> tuple[list[float], list[str]]:
    """Scaled seconds of the set-up of every cell at `seeds`, summed, once per
    replay; and the failures met on the way.

    A replay calls `run_scenario` with `Engine.run_until` replaced by a stop,
    so it times from entering `run_scenario` to entering the event loop, as
    the instances do, but many times over: one set-up lasts milliseconds.
    The host's speed flips within milliseconds too, too fast for
    `hostspeed.Sampler`: each cell's set-up is bracketed by two short
    reference passes and scaled by their mean against the mean of all short
    passes, then by full passes to the reference speed.
    """
    cfgs = cell_configs(adhocloc, workload, seeds)
    engine_cls = adhocloc.engine.Engine
    run_until = engine_cls.__dict__["run_until"]
    loop_entered: list[float] = []

    def stop(engine, t_end):
        loop_entered.append(perf_counter())
        raise _SetupDone

    def short_pass():
        return hostspeed.reference_pass(iterations=50, scans=0)

    replays, failures = [], []
    engine_cls.run_until = stop
    try:
        full = [hostspeed.reference_pass() for _ in range(3)]
        for _ in range(SETUP_REPLAYS):
            gc.collect()
            cells, before = [], short_pass()
            for cfg in cfgs:
                t0 = perf_counter()
                try:
                    adhocloc.scenario.run_scenario(cfg)
                    failures.append(f"set-up replay of {cfg.protocol} ran no event loop")
                except _SetupDone:
                    after = short_pass()
                    cells.append((loop_entered[-1] - t0, (before + after) / 2))
                    before = after
                except Exception:
                    failures.append(f"set-up replay raised:\n{traceback.format_exc()}")
                if failures:
                    return [], failures
            replays.append(cells)
        full += [hostspeed.reference_pass() for _ in range(3)]
    finally:
        engine_cls.run_until = run_until
    mean_short = statistics.fmean(s for cells in replays for _, s in cells)
    scale = hostspeed.REFERENCE_S / statistics.fmean(full)
    return [sum(t * mean_short / s for t, s in cells) * scale for cells in replays], failures


def rerun_first_cell(adhocloc, workload, first: Instance) -> bool:
    """Run the first cell of the first instance again; True if it reproduces."""
    cfg = cell_configs(adhocloc, workload, first.seeds)[0]
    try:
        result = adhocloc.scenario.run_scenario(cfg)
    except Exception:
        traceback.print_exc()
        return False
    return bool(first.run_digests) and checks.run_digest(result) == first.run_digests[0]


def timed_run(adhocloc, workload, seed: int, seconds: float):
    warm = warm_up(adhocloc, workload, seed)
    instances: list[Instance] = []
    start = perf_counter()
    while True:
        inst = Instance(adhocloc, workload, workload.seeds(seed, len(instances)),
                        sample_host=True)
        instances.append(inst)
        if inst.failed:
            break
        typical = statistics.median(i.wall_s for i in instances)
        if len(instances) >= MIN_INSTANCES and perf_counter() - start + typical > seconds:
            break
    setups, setup_failures = setup_replays(adhocloc, workload, instances[0].seeds)
    attempted = warm.attempted + sum(i.attempted for i in instances) + 1
    failed = warm.failed + sum(i.failed for i in instances)
    failures = warm.failures + [f for i in instances for f in i.failures] + setup_failures
    if not rerun_first_cell(adhocloc, workload, instances[0]):
        failed += 1
        failures.append("first cell did not reproduce on a re-run")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": {"value": statistics.median(i.wall_s * i.scale for i in instances),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(setups) if setups else 0.0,
                    "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    per_protocol = {}
    for inst in instances:
        for name, p in inst.per_protocol().items():
            acc = per_protocol.setdefault(name, {"wall_s": [], "events": 0, "seconds": 0.0})
            acc["wall_s"].append(p["wall_s"])
            acc["events"] += p["events"]
            acc["seconds"] += p["wall_s"]
    detail = {
        "sim_digest": instances[0].digest,
        "instances": len(instances),
        "wall_s_samples": [i.wall_s * i.scale for i in instances],
        "setup_s_samples": setups,
        "instance_setup_s_samples": [i.setup_s * i.scale for i in instances],
        "host_scale_samples": [i.scale for i in instances],
        "raw_wall_s": statistics.median(i.wall_s for i in instances),
        "raw_wall_s_samples": [i.wall_s for i in instances],
        "per_protocol": {name: {"wall_s": statistics.median(acc["wall_s"]),
                                "events_per_s": _ratio(acc["events"], acc["seconds"])}
                         for name, acc in per_protocol.items()},
    }
    return attempted, failed, failures, metrics, detail


def layer_metrics(plain: Instance, traced: Instance, protocols) -> tuple[dict, dict]:
    """Per-layer numbers: spans of the traced instance, times of the plain one."""
    summary = traced.tracer.summary(traced.excluded)
    per_name = summary["per_name"]

    def calls(name):
        return per_name[name]["calls"]

    def incl(name):
        return per_name[name]["incl_s"]

    def own(name):
        return per_name[name]["self_s"]

    def layer_self(*prefixes):
        return sum(v["run_self_s"] for k, v in per_name.items()
                   if k.split(".", 1)[0] in prefixes)

    runs = traced.runs
    total = {key: sum(r[key] for r in runs) for key in
             ("events", "skipped_cancelled", "ledger_rows", "knots")}
    loop_s = sum(r.get("loop_s", 0.0) for r in plain.runs)
    finalize_s = sum(r.get("finalize_s", 0.0) for r in plain.runs)
    m = {
        "engine.events": (total["events"], "count"),
        "engine.events_per_s": (_ratio(total["events"], loop_s), "1/s"),
        "engine.schedule_calls": (calls("engine.schedule"), "count"),
        "engine.skipped_cancelled": (total["skipped_cancelled"], "count"),
        "engine.run_until_self_s": (own("engine.run_until"), "s"),
        "engine.self_s": (layer_self("engine"), "s"),
        "mobility.positions_calls": (calls("mobility.positions"), "count"),
        "mobility.positions_self_s": (own("mobility.positions"), "s"),
        "mobility.positions_block_s": (incl("mobility.positions_block"), "s"),
        "mobility.network_mobility_s": (incl("mobility.network_mobility"), "s"),
        "mobility.model_init_s": (incl("mobility.model_init"), "s"),
        "mobility.knots": (total["knots"], "count"),
        "mobility.self_s": (layer_self("mobility"), "s"),
        "kernels.positions_at_s": (incl("kernels.positions_at"), "s"),
        "kernels.adjacency_calls": (calls("kernels.adjacency"), "count"),
        "kernels.adjacency_s": (incl("kernels.adjacency"), "s"),
        "kernels.bfs_tree_calls": (calls("kernels.bfs_tree"), "count"),
        "kernels.bfs_tree_s": (incl("kernels.bfs_tree"), "s"),
        "kernels.separation_series_s": (incl("kernels.separation_series"), "s"),
        "kernels.self_s": (layer_self("kernels"), "s"),
        "radio.snapshot_calls": (calls("radio.snapshot"), "count"),
        "radio.snapshot_hit_ratio": (1.0 - _ratio(calls("kernels.adjacency"),
                                                  calls("radio.snapshot")), "ratio"),
        "radio.edge_probe_calls": (calls("mobility.positions") - calls("kernels.adjacency"),
                                   "count"),
        "radio.unicast_calls": (calls("radio.unicast"), "count"),
        "radio.unicast_self_s": (own("radio.unicast"), "s"),
        "radio.unicast_delivered_ratio": (_ratio(traced.tracer.unicast_delivered,
                                                 calls("radio.unicast")), "ratio"),
        "radio.flood_calls": (calls("radio.flood"), "count"),
        "radio.flood_self_s": (own("radio.flood"), "s"),
        "radio.direct_calls": (calls("radio.direct"), "count"),
        "radio.connected_s": (incl("radio.connected"), "s"),
        "radio.diameter_s": (incl("radio.diameter"), "s"),
        "radio.self_s": (layer_self("radio"), "s"),
        "radio.ledger_rows": (total["ledger_rows"], "count"),
        "radio.ledger_charge_s": (incl("ledger.charge"), "s"),
        "radio.ledger_units_for_request_s": (incl("ledger.units_for_request"), "s"),
        "radio.ledger_self_s": (layer_self("ledger"), "s"),
        "scenario.loop_s": (loop_s, "s"),
        "scenario.finalize_s": (finalize_s, "s"),
        "scenario.aborted_runs": (sum(r["aborted"] for r in runs), "count"),
        "scenario.self_s": (layer_self("scenario"), "s"),
        "metrics.build_report_s": (incl("metrics.build_report"), "s"),
        "metrics.self_s": (layer_self("metrics"), "s"),
        "sweep.csv_write_s": (incl("sweep.write_csv"), "s"),
        "trace.spans": (summary["spans"], "count"),
        "trace.scenario_wall_s": (summary["scenario_wall_s"], "s"),
        "trace.untraced_wall_s": (plain.wall_s * plain.scale, "s"),
        "trace.overhead_s": (traced.wall_s * traced.scale - plain.wall_s * plain.scale, "s"),
    }
    plain_by_protocol = plain.per_protocol()
    for p in protocols:
        mine = [r for r in runs if r["protocol"] == p]

        def total(key):
            return sum(r[key] for r in mine)

        timing = plain_by_protocol.get(p, {"wall_s": 0.0, "events_per_s": 0.0})
        nb = [r["nb_msg"] for r in mine if r["nb_msg"] is not None]
        rt = [r["rtime_s"] for r in mine if r["rtime_s"] is not None]
        m.update({
            f"protocols.{p}.wall_s": (timing["wall_s"], "s"),
            f"protocols.{p}.events_per_s": (timing["events_per_s"], "1/s"),
            f"protocols.{p}.nb_msg": (statistics.fmean(nb) if nb else 0.0, "units/request"),
            f"protocols.{p}.rtime_s": (statistics.fmean(rt) if rt else 0.0, "s"),
            f"protocols.{p}.failed_share": (_ratio(total("n_failed"), total("n_requests")),
                                            "ratio"),
            f"protocols.{p}.zero_time_failures": (total("zero_time_failures"), "count"),
            f"protocols.{p}.retries": (total("retries"), "count"),
            f"protocols.{p}.handoffs": (total("handoffs"), "count"),
            f"protocols.{p}.agent_processed": (total("agent_processed"), "count"),
            f"protocols.{p}.jumps_made_ratio": (_ratio(total("jumps_made"),
                                                       total("jumps_attempted")), "ratio"),
        })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}, summary


def traced_run(adhocloc, workload, seed: int):
    warm = warm_up(adhocloc, workload, seed)
    seeds = workload.seeds(seed, 0)
    plain = Instance(adhocloc, workload, seeds, sample_host=True)
    traced = Instance(adhocloc, workload, seeds, full_trace=True, sample_host=True)
    attempted = warm.attempted + plain.attempted + traced.attempted
    failed = warm.failed + plain.failed + traced.failed
    failures = warm.failures + plain.failures + traced.failures
    for i, (a, b) in enumerate(zip(plain.run_digests, traced.run_digests)):
        if a != b:
            failed += 1
            failures.append(f"run {i} differs when traced")
    if plain.digest != traced.digest and plain.run_digests == traced.run_digests:
        failed += 1
        failures.append("sweep CSV differs when traced")
    metrics, summary = layer_metrics(plain, traced, adhocloc.PROTOCOLS)
    gap = summary["scenario_wall_s"] - summary["in_run_self_s"]
    if abs(gap) > 1e-6 * max(1.0, summary["scenario_wall_s"]):
        failures.append(f"layer self times miss the traced scenario wall time by {gap:.3g} s")
    OUT.mkdir(exist_ok=True)
    traced.tracer.save(OUT / f"{workload.name}.spans.npz")
    detail = {
        "sim_digest": plain.digest,
        "traced_sim_digest": traced.digest,
        "missing_targets": traced.tracer.missing,
        "spans_file": str((OUT / f"{workload.name}.spans.npz").relative_to(ROOT)),
        "per_name": summary["per_name"],
    }
    return attempted, failed, failures, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    adhocloc = load_program()
    import adhocloc.scenario  # noqa: F401  (modules the benchmark patches)
    import adhocloc.sweep  # noqa: F401
    workload = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, failures, metrics, detail = traced_run(adhocloc, workload, args.seed)
    else:
        attempted, failed, failures, metrics, detail = timed_run(adhocloc, workload, args.seed,
                                                                 args.seconds)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "why": workload.why, "env": environment(adhocloc), **detail,
              "failures": failures}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps({**detail, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    print(f"{workload.name} seed={args.seed} sim_digest={detail['sim_digest']}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

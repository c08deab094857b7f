"""The benchmark's workloads: which scenarios each one runs, and why.

Every workload is a sweep of whole scenarios through the public API
(`run_sweep`, then `write_csv`), one process, one cell after another. Node
speed is set from `NODE_SPEED_PRESETS` explicitly and not left to the
`node_mob` label, so a fix to how the label maps to a speed cannot silently
change what a workload simulates.

One *instance* of a workload is the whole sweep at one set of scenario seeds.
A benchmark run repeats instances with fresh seeds, all derived from the
run's `--seed`, and reports medians over them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocols: tuple[str, ...]
    lambdas: tuple[float, ...]
    speed: str                  # NODE_SPEED_PRESETS key, also the rows' node_mob label
    code_band: str
    duration: float
    seeds_per_instance: int

    def seeds(self, run_seed: int, instance: int) -> list[int]:
        """Scenario seeds of one instance; runs with distinct seeds share none."""
        first = run_seed * 1000 + instance * self.seeds_per_instance + 1
        return list(range(first, first + self.seeds_per_instance))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper_grid",
        why=("The table the paper reports: all four protocols at three loads. "
             "Most of its time is in the server protocols' snapshot misses, "
             "diffusion floods and event dispatch; ledger reads are light."),
        protocols=("forwarder_proactive", "forwarder_reactive", "centralized", "zoned"),
        lambdas=(0.1, 0.25, 1.0),
        speed="medium",
        code_band="medium",
        duration=200.0,
        seeds_per_instance=1,
    ),
    Workload(
        name="chain_stress",
        why=("A long, heavily loaded reactive chain: ledger reads that grow as "
             "requests x rows, single-link position probes, and the largest "
             "ledger and knot arrays; no server agents or periodic floods."),
        protocols=("forwarder_reactive",),
        lambdas=(4.0,),
        speed="high",
        code_band="medium",
        duration=1000.0,
        seeds_per_instance=1,
    ),
    Workload(
        name="chain_maintenance",
        why=("A proactive chain under a fast-jumping code and few requests: "
             "per-second chain-check probes that mostly hit the snapshot "
             "cache, and repair floods; the cache-hit side of paper_grid."),
        protocols=("forwarder_proactive",),
        lambdas=(0.25,),
        speed="high",
        code_band="high",
        duration=200.0,
        seeds_per_instance=5,
    ),
)}

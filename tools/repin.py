"""Re-pin: recompute every golden value in tests/pins.json and rewrite it.

Run it from the repository root; it takes no arguments:

    PYTHONPATH=src python tools/repin.py

Each value is computed by the one function its test, or the same-bytes
tool, calls: every module listed in `main` has a `pinned_values()` that
calls them. The seed-7 perfbench digests (the first eight hex digits of
`sim_digest=`) come from running `perfbench/run.py --workload W --seed 7
--seconds 1 --trace 0` as it stands. The file is rewritten with sorted keys
and a trailing newline, so a tree that moves no value leaves it
byte-identical; CI runs this and then `git diff --exit-code
tests/pins.json`. It prints a `name | old | new` table of the values that
moved, one row per number or string, ready to paste into CHANGES.md.
Running it costs the two same-bytes sets, three one-second perfbench runs
and the pinned tests' own runs.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

import pins  # noqa: E402


def perfbench_digest(workload: str) -> str:
    """The first eight hex digits of a workload's seed-7 `sim_digest`."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return out.split(" sim_digest=", 1)[1][:8]


def leaves(value, name: str = "") -> dict:
    """Each number or string in `value`, by its dotted name."""
    if not isinstance(value, dict):
        return {name: value}
    return {leaf: v for key, item in value.items()
            for leaf, v in leaves(item, f"{name}.{key}" if name else key).items()}


def main() -> int:
    import same_bytes
    import test_acceptance
    import test_forwarder
    import test_harness
    import test_server

    values = {f"perfbench.{workload}": perfbench_digest(workload)
              for workload in ("paper_grid", "chain_stress", "chain_maintenance")}
    for module in (same_bytes, test_acceptance, test_forwarder, test_harness, test_server):
        values.update(module.pinned_values())
    old, new = leaves(pins.load()), leaves(values)
    pins.PATH.write_text(pins.dumps(values), encoding="utf-8")
    moved = sorted(name for name in old.keys() | new.keys()
                   if old.get(name, "—") != new.get(name, "—"))
    if not moved:
        print("no pinned value moved")
        return 0
    print("| name | old | new |\n|---|---|---|")
    for name in moved:
        print(f"| {name} | {old.get(name, '—')} | {new.get(name, '—')} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

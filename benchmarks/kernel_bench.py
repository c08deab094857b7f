"""Time the hot kernels: numba-jitted loops against the pure-numpy reference.

Runs every kernel on the same synthetic inputs in both flavours and prints a
per-call comparison. JIT compilation happens before any clock starts, so the
table shows steady-state cost only. With ADHOCLOC_NO_NUMBA=1 (or numba
missing) only the numpy reference is timed.

Usage:
    python3 benchmarks/kernel_bench.py [--nodes N] [--knots K]
                                       [--samples S] [--repeats R]
"""

import argparse
import time

import numpy as np

from adhocloc import kernels


def build_inputs(n_nodes, n_knots, n_samples, rng):
    """Synthetic waypoint data shaped like a real scenario, but bigger."""
    knot_t = np.empty(n_nodes * n_knots)
    knot_x = np.empty(n_nodes * n_knots)
    knot_y = np.empty(n_nodes * n_knots)
    offsets = np.arange(0, (n_nodes + 1) * n_knots, n_knots, dtype=np.int64)
    for i in range(n_nodes):
        s, e = offsets[i], offsets[i + 1]
        knot_t[s:e] = np.sort(rng.uniform(0.0, 200.0, n_knots))
        knot_x[s:e] = rng.uniform(0.0, 1000.0, n_knots)
        knot_y[s:e] = rng.uniform(0.0, 500.0, n_knots)
    times = np.linspace(0.0, 200.0, n_samples)
    pos = np.column_stack([rng.uniform(0.0, 1000.0, n_nodes),
                           rng.uniform(0.0, 500.0, n_nodes)])
    adj = kernels.adjacency_numpy(pos, 250.0)
    block = rng.uniform(0.0, 1000.0, (n_samples, n_nodes, 2))
    return {
        "positions_at": (knot_t, knot_x, knot_y, offsets, 100.0),
        "positions_block": (knot_t, knot_x, knot_y, offsets, times),
        "adjacency": (pos, 250.0),
        "bfs_tree": (adj, 0),
        "separation_series": (block,),
    }


def best_of(func, args, repeats):
    """Fastest wall time over `repeats` calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--knots", type=int, default=200)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(1)
    inputs = build_inputs(args.nodes, args.knots, args.samples, rng)

    jitted = kernels.JIT_VARIANTS
    if jitted is not None:
        kernels.warm_up()
        for name, func in jitted.items():
            func(*inputs[name])      # compile for the benchmark dtypes too

    print(f"nodes={args.nodes} knots={args.knots} samples={args.samples} "
          f"repeats={args.repeats} (best-of)")
    if jitted is None:
        print(f"numba disabled ({kernels.ENV_FLAG} set or import failed); "
              f"timing the numpy reference only")
        print(f"{'kernel':<20} {'numpy ms':>10}")
        for name, func in kernels.NUMPY_VARIANTS.items():
            print(f"{name:<20} {1e3 * best_of(func, inputs[name], args.repeats):>10.3f}")
        return

    print(f"{'kernel':<20} {'numpy ms':>10} {'numba ms':>10} {'speedup':>8}")
    for name, ref in kernels.NUMPY_VARIANTS.items():
        t_np = best_of(ref, inputs[name], args.repeats)
        t_jit = best_of(jitted[name], inputs[name], args.repeats)
        print(f"{name:<20} {1e3 * t_np:>10.3f} {1e3 * t_jit:>10.3f} "
              f"{t_np / t_jit:>7.1f}x")


if __name__ == "__main__":
    main()

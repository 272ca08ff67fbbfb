"""color() at scale — Theorem 1.2 on unions of 8 random forests.

Times ``repro.color`` on ``union_of_random_forests(n, arboricity=8,
seed=8)`` at n = 1k, 10k and 40k on the numpy kernel backend.  Every run is
its own subprocess, so the peak RSS it reports (``ru_maxrss``: the graph
build plus the job) belongs to that run alone.

``--baseline SRC`` also measures the ``src/`` of another checkout (the
parent commit), alternating the two trees per size and repeat, and stores
both sides with their ratios.  Each run records seconds, peak RSS, rounds
and colors; the snapshot adds the CPU count, kernel backend, Python and
numpy versions (see ``_bench_results.py``)::

    python benchmarks/bench_color_scale.py --baseline ../parent/src

``--smoke`` runs n = 1k only, once, without writing a snapshot.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from _bench_results import write_snapshot

SIZES = (1_000, 10_000, 40_000)
ARBORICITY = 8
SEED = 8
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _child(num_vertices: int) -> dict:
    """One measured run in this process (the ``--child`` mode)."""
    import resource
    import time

    import numpy

    from repro import kernels
    from repro.core.coloring import color
    from repro.graph.generators import union_of_random_forests

    kernels.set_backend(kernels.NUMPY)
    graph = union_of_random_forests(num_vertices, arboricity=ARBORICITY, seed=SEED)
    start = time.perf_counter()
    run = color(graph, seed=0)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds": run.rounds,
        "colors": run.num_colors,
        "backend": kernels.active_backend(),
        "numpy": numpy.__version__,
    }


def measure(src: str, num_vertices: int) -> dict:
    """Run one size against the ``src`` tree in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", str(num_vertices)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="a second src/ tree, measured alternately")
    parser.add_argument("--repeats", type=int, default=1, help="runs per size and tree")
    parser.add_argument("--smoke", action="store_true", help="n = 1k once, no snapshot")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(_child(args.child)))
        return 0

    sizes = SIZES[:1] if args.smoke else SIZES
    trees = {"change": SRC}
    if args.baseline:
        trees = {"baseline": args.baseline, **trees}
    results: dict[str, float | str] = {}
    versions: dict[str, str] = {}
    print(f"color() on unions of {ARBORICITY} forests (seed {SEED}), one process per run")
    for n in sizes:
        runs: dict[str, list[dict]] = {side: [] for side in trees}
        for _ in range(args.repeats):
            for side, src in trees.items():
                runs[side].append(measure(src, n))
        for side, side_runs in runs.items():
            seconds = statistics.median(run["seconds"] for run in side_runs)
            peak = max(run["peak_rss_mb"] for run in side_runs)
            first = side_runs[0]
            versions.update(backend=first["backend"], numpy=first["numpy"])
            results.update(
                {
                    f"n{n}:{side}:seconds": seconds,
                    f"n{n}:{side}:peak_rss_mb": peak,
                    f"n{n}:{side}:rounds": first["rounds"],
                    f"n{n}:{side}:colors": first["colors"],
                }
            )
            print(
                f"  n={n:>6} {side:<8} {seconds:8.3f} s  {peak:8.1f} MB  "
                f"rounds {first['rounds']}  colors {first['colors']}"
            )
        if args.baseline:
            speedup = results[f"n{n}:baseline:seconds"] / results[f"n{n}:change:seconds"]
            results[f"n{n}:speedup"] = speedup
            print(f"  n={n:>6} speedup  {speedup:8.2f}x")
    if args.smoke:
        return 0
    meta = {
        "sizes": list(sizes),
        "arboricity": ARBORICITY,
        "seed": SEED,
        "repeats": args.repeats,
        "kernel_backend": versions.get("backend"),
        "numpy": versions.get("numpy"),
    }
    path = write_snapshot("color_scale", results, meta=meta)
    print(f"  snapshot: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Engine-backed Theorem 1.2 — parallel Lemma 2.2 vertex-partition coloring.

The coloring twin of ``bench_engine_parallel.py``: with 4 process workers,
large-λ ``color()`` on a 100k-vertex
workload must be **≥ 4× faster** end-to-end than the serial path, with
results (per-vertex colors, palette, rounds) byte-identical to
``workers=1``.  Each run writes one timestamped
``BENCH_e2_parallel_coloring_*.json`` snapshot (see ``_bench_results.py``).

Workload: a union of 10 random spanning forests on 100k vertices (m ≈ 1M,
λ ≤ 10) pushed through the Lemma 2.2 branch with an explicit ``k = 160`` —
``⌈k / log2 n⌉ = 10`` parts.  Vertex partitioning drops cross-part edges, so
the per-part work (layering + directed exponentiation + list coloring) is
what dominates; the explicit ``k`` pins the part count so the serial and
parallel runs color the exact same partition.

Run directly (``python benchmarks/bench_e2_parallel_coloring.py``) for a
table, or through pytest (``pytest benchmarks/bench_e2_parallel_coloring.py``).
The speedup assertion needs real cores and is skipped on hosts with fewer
than 4 CPUs (the identity assertions always run).  ``--smoke`` runs the
identity checks only, on a tiny instance — the CI benchmark-smoke job's mode.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from unittest import mock

import pytest

from _bench_results import write_snapshot
from repro.core.coloring import color
from repro.engine import pool as engine_pool
from repro.graph.generators import union_of_random_forests

NUM_VERTICES = 100_000
ARBORICITY = 10
EXPLICIT_K = 160  # forces ⌈k / log2 n⌉ = 10 Lemma 2.2 parts at this scale
WORKERS = 4
COLOR_SPEEDUP_TARGET = 4.0

SMOKE_NUM_VERTICES = 2_000
SMOKE_ARBORICITY = 4
SMOKE_K = 64


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _color_once(graph, k, workers):
    # A zero threshold sends every multi-worker run to process workers,
    # smoke instances included.
    with mock.patch.object(engine_pool, "SERIAL_WORK_THRESHOLD", 0):
        start = time.perf_counter()
        run = color(graph, k=k, seed=7, force_vertex_partitioning=True, workers=workers)
        return time.perf_counter() - start, run


def run_coloring_benchmark(
    num_vertices: int = NUM_VERTICES,
    arboricity: int = ARBORICITY,
    k: int = EXPLICIT_K,
) -> dict[str, float]:
    graph = union_of_random_forests(num_vertices, arboricity=arboricity, seed=42)
    serial_s, serial_run = _color_once(graph, k, 1)
    parallel_s, parallel_run = _color_once(graph, k, WORKERS)
    identical = (
        serial_run.coloring.as_dict() == parallel_run.coloring.as_dict()
        and serial_run.rounds == parallel_run.rounds
        and serial_run.palette_size == parallel_run.palette_size
        and serial_run.part_rounds == parallel_run.part_rounds
    )
    return {
        "num_parts": float(serial_run.num_parts),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "rounds": float(serial_run.rounds),
        "sequential_part_rounds": float(sum(serial_run.part_rounds)),
        "colors": float(serial_run.num_colors),
        "proper": 1.0 if serial_run.coloring.is_proper() else 0.0,
        "identical": 1.0 if identical else 0.0,
    }


def _meta(smoke: bool = False) -> dict:
    return {
        "num_vertices": SMOKE_NUM_VERTICES if smoke else NUM_VERTICES,
        "arboricity": SMOKE_ARBORICITY if smoke else ARBORICITY,
        "k": SMOKE_K if smoke else EXPLICIT_K,
        "workers": WORKERS,
        "smoke": smoke,
    }


def test_parallel_coloring_identical_and_faster():
    results = run_coloring_benchmark()
    write_snapshot("e2_parallel_coloring", results, meta=_meta())
    assert results["identical"] == 1.0, results
    assert results["proper"] == 1.0, results
    # The engine fold, not the old sequential loop: reported rounds stay
    # strictly below the sum of the per-part sub-ledger rounds.
    assert results["rounds"] < results["sequential_part_rounds"], results
    if _available_cpus() < WORKERS:
        pytest.skip(
            f"host has {_available_cpus()} CPUs; the {COLOR_SPEEDUP_TARGET}x "
            f"bar needs {WORKERS} real cores (identity already verified)"
        )
    assert results["speedup"] >= COLOR_SPEEDUP_TARGET, (
        f"parallel large-λ color only {results['speedup']:.2f}x faster than "
        f"serial (target {COLOR_SPEEDUP_TARGET}x): {results}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instance, identity checks only (CI smoke mode)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        results = run_coloring_benchmark(SMOKE_NUM_VERTICES, SMOKE_ARBORICITY, SMOKE_K)
    else:
        results = run_coloring_benchmark()
    print(
        f"engine parallel coloring: n={SMOKE_NUM_VERTICES if args.smoke else NUM_VERTICES}, "
        f"k={SMOKE_K if args.smoke else EXPLICIT_K}, workers={WORKERS}, "
        f"cpus={_available_cpus()}{' [smoke]' if args.smoke else ''}"
    )
    width = max(len(key) for key in results)
    for key, value in results.items():
        print(f"  {key:<{width}}  {value:,.4f}")
    path = write_snapshot("e2_parallel_coloring", results, meta=_meta(args.smoke))
    print(f"  snapshot: {path}")
    ok = results["identical"] == 1.0 and results["proper"] == 1.0
    if args.smoke:
        print(f"  identity: {'PASS' if ok else 'FAIL'}")
    else:
        verdict = "PASS" if results["speedup"] >= COLOR_SPEEDUP_TARGET else "FAIL"
        if _available_cpus() < WORKERS:
            verdict += f" n/a ({_available_cpus()} CPUs < {WORKERS})"
        print(f"  speedup target: {COLOR_SPEEDUP_TARGET}x -> {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Engine — parallel Lemma 2.1 orientation on the worker pool.

The worker pool's acceptance bar: with 4 process workers, large-λ
``orient()`` on a 100k-vertex dense workload must be **≥ 4× faster** than
the serial path end-to-end, with engine results (orientation heads, rounds)
byte-identical to ``workers=1``.

Workload: a union of 12 random spanning forests on 100k vertices
(m ≈ 1.2M, λ ≤ 12) pushed through the Lemma 2.1 branch with an explicit
``k = 256`` — ``⌈k / log2 n⌉ = 16`` parts, four even waves for 4 workers.
The explicit ``k`` pins the part count, so the serial/parallel comparison
runs the exact same partition.

Run directly (``python benchmarks/bench_engine_parallel.py``) for a table,
or through pytest (``pytest benchmarks/bench_engine_parallel.py``).  Either
way each run writes one timestamped ``BENCH_engine_parallel_*.json``
snapshot (see ``_bench_results.py``).  The speedup assertion needs real
cores and is skipped on hosts with fewer than 4 CPUs (the identity
assertion always runs).  ``--smoke`` runs the identity checks
only, on tiny instances — the CI benchmark-smoke job's mode.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from unittest import mock

import pytest

from _bench_results import write_snapshot
from repro.core.orientation import orient
from repro.engine import pool as engine_pool
from repro.graph.generators import union_of_random_forests

NUM_VERTICES = 100_000
ARBORICITY = 12
EXPLICIT_K = 256  # forces ⌈k / log2 n⌉ = 16 Lemma 2.1 parts at this scale
WORKERS = 4
ORIENT_SPEEDUP_TARGET = 4.0


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


SMOKE_NUM_VERTICES = 2_000
SMOKE_K = 64


def _make_graph(num_vertices=NUM_VERTICES):
    return union_of_random_forests(num_vertices, arboricity=ARBORICITY, seed=42)


def _orient_once(graph, k, workers):
    # A zero threshold sends every multi-worker run to process workers,
    # smoke instances included.
    with mock.patch.object(engine_pool, "SERIAL_WORK_THRESHOLD", 0):
        start = time.perf_counter()
        run = orient(graph, k=k, seed=7, force_edge_partitioning=True, workers=workers)
        return time.perf_counter() - start, run


def run_orientation_benchmark(
    num_vertices: int = NUM_VERTICES, k: int = EXPLICIT_K
) -> dict[str, float]:
    graph = _make_graph(num_vertices)
    serial_s, serial_run = _orient_once(graph, k, 1)
    parallel_s, parallel_run = _orient_once(graph, k, WORKERS)
    identical = (
        serial_run.orientation.direction == parallel_run.orientation.direction
        and serial_run.rounds == parallel_run.rounds
        and serial_run.max_outdegree == parallel_run.max_outdegree
    )
    return {
        "num_parts": float(serial_run.num_parts),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "rounds": float(serial_run.rounds),
        "max_outdegree": float(serial_run.max_outdegree),
        "identical": 1.0 if identical else 0.0,
    }


def test_parallel_orientation_identical_and_faster():
    results = run_orientation_benchmark()
    write_snapshot("engine_parallel_orient", results, meta=_meta())
    assert results["identical"] == 1.0, results
    if _available_cpus() < WORKERS:
        pytest.skip(
            f"host has {_available_cpus()} CPUs; the {ORIENT_SPEEDUP_TARGET}x "
            f"bar needs {WORKERS} real cores (identity already verified)"
        )
    assert results["speedup"] >= ORIENT_SPEEDUP_TARGET, (
        f"parallel large-λ orient only {results['speedup']:.2f}x faster than "
        f"serial (target {ORIENT_SPEEDUP_TARGET}x): {results}"
    )


def _meta(smoke: bool = False) -> dict:
    return {
        "num_vertices": SMOKE_NUM_VERTICES if smoke else NUM_VERTICES,
        "arboricity": ARBORICITY,
        "k": SMOKE_K if smoke else EXPLICIT_K,
        "workers": WORKERS,
        "smoke": smoke,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instances, identity checks only (CI smoke mode)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        n, k = SMOKE_NUM_VERTICES, SMOKE_K
    else:
        n, k = NUM_VERTICES, EXPLICIT_K
    print(
        f"engine parallel: n={n}, m≈{n * ARBORICITY}, k={k}, "
        f"workers={WORKERS}, cpus={_available_cpus()}"
        f"{' [smoke]' if args.smoke else ''}"
    )
    title = "large-λ orientation (process workers)"
    rows = run_orientation_benchmark(n, k)
    print(f"\n{title}")
    width = max(len(key) for key in rows)
    for key, value in rows.items():
        print(f"  {key:<{width}}  {value:,.4f}")
    snapshot = {f"large-λ_orientation:{key}": value for key, value in rows.items()}
    ok = rows["identical"] == 1.0
    if args.smoke:
        print(f"  identity: {'PASS' if ok else 'FAIL'}")
    else:
        verdict = "PASS" if rows["speedup"] >= ORIENT_SPEEDUP_TARGET else "FAIL"
        if _available_cpus() < WORKERS:
            verdict += f" n/a ({_available_cpus()} CPUs < {WORKERS})"
        print(f"  speedup target: {ORIENT_SPEEDUP_TARGET}x -> {verdict}")
    path = write_snapshot("engine_parallel", snapshot, meta=_meta(args.smoke))
    print(f"  snapshot: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Engine — resident-pool Lemma 2.1 orientation and fan-out amortization.

The worker pool's acceptance bars: with 4 process workers, large-λ
``orient()`` on a 100k-vertex dense workload must be **≥ 4× faster** than
the serial path end-to-end, with engine results (orientation heads, rounds)
byte-identical to ``workers=1``; and the repeated-superstep microbench must
show the resident shared-memory shards amortise the per-call fan-out cost
**≥ 10×** against the old re-pickle-every-call path (measured as bytes
shipped per superstep — deterministic, so it holds on any host; the
wall-clock ratio is reported alongside).

Workload: a union of 12 random spanning forests on 100k vertices
(m ≈ 1.2M, λ ≤ 12) pushed through the Lemma 2.1 branch with an explicit
``k = 256`` — ``⌈k / log2 n⌉ = 16`` parts, four even waves for 4 workers.
The explicit ``k`` pins the part count, so the serial/parallel comparison
runs the exact same partition.

Run directly (``python benchmarks/bench_engine_parallel.py``) for a table,
or through pytest (``pytest benchmarks/bench_engine_parallel.py``).  Either
way each run writes one timestamped ``BENCH_engine_parallel_*.json``
snapshot (see ``_bench_results.py``).  The speedup assertion needs real
cores and is skipped on hosts with fewer than 4 CPUs (the identity and
amortisation assertions always run).  ``--smoke`` runs the identity checks
only, on tiny instances — the CI benchmark-smoke job's mode.
"""

from __future__ import annotations

import argparse
import os
import pickle
import random
import sys
import time

import pytest

from _bench_results import write_snapshot
from repro.core.orientation import orient
from repro.core.partitioning import random_edge_partition
from repro.engine import PROCESS, ParallelExecutor, WorkerPool
from repro.engine import shm
from repro.graph.generators import union_of_random_forests

NUM_VERTICES = 100_000
ARBORICITY = 12
EXPLICIT_K = 256  # forces ⌈k / log2 n⌉ = 16 Lemma 2.1 parts at this scale
WORKERS = 4
ORIENT_SPEEDUP_TARGET = 4.0
AMORTIZATION_TARGET = 10.0
AMORTIZATION_SUPERSTEPS = 8


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


SMOKE_NUM_VERTICES = 2_000
SMOKE_K = 64


def _make_graph(num_vertices=NUM_VERTICES):
    return union_of_random_forests(num_vertices, arboricity=ARBORICITY, seed=42)


def _orient_once(graph, k, executor):
    start = time.perf_counter()
    run = orient(
        graph,
        k=k,
        seed=7,
        force_edge_partitioning=True,
        executor=executor,
    )
    return time.perf_counter() - start, run


def run_orientation_benchmark(
    num_vertices: int = NUM_VERTICES, k: int = EXPLICIT_K
) -> dict[str, float]:
    graph = _make_graph(num_vertices)
    serial_s, serial_run = _orient_once(graph, k, ParallelExecutor(workers=1))
    parallel_s, parallel_run = _orient_once(
        graph, k, ParallelExecutor(workers=WORKERS, backend=PROCESS)
    )
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


def _touch_shard_task(handle, index):
    """Resident-path superstep task: read the part from shared memory."""
    return shm.shard_graph(handle, index).num_edges


def _touch_part_task(part):
    """Re-pickle-path superstep task: the part itself travelled in the task."""
    return part.num_edges


def run_amortization_microbench(
    num_vertices: int = NUM_VERTICES,
    k: int = EXPLICIT_K,
    supersteps: int = AMORTIZATION_SUPERSTEPS,
) -> dict[str, float]:
    """Repeated supersteps over one resident part set vs. re-pickling per call.

    The quantity under test is the per-superstep fan-out cost.  The resident
    path publishes the Lemma 2.1 parts once and ships ``(handle, index)``
    descriptors every superstep; the re-pickle path (what the executor did
    before the pool existed) ships every part in every task tuple.  Bytes
    shipped per superstep is measured exactly (``pickle.dumps`` of the task
    tuples — what ``ProcessPoolExecutor`` serialises); wall-clock for the
    repeated supersteps is reported alongside, after one warm-up superstep
    per path so pool startup is off the clock.
    """
    graph = _make_graph(num_vertices)
    parts = [
        part
        for part in random_edge_partition(
            graph, arboricity_bound=k, rng=random.Random(7)
        ).parts
        if part.num_edges
    ]
    expected = [part.num_edges for part in parts]
    proto = pickle.HIGHEST_PROTOCOL
    repickle_bytes = sum(len(pickle.dumps((part,), protocol=proto)) for part in parts)

    with WorkerPool(workers=WORKERS, backend=PROCESS) as pool:
        handle = pool.publish_edge_parts("amortize-parts", graph.num_vertices, parts)
        tasks = [(handle, index) for index in range(len(parts))]
        resident_bytes = sum(len(pickle.dumps(task, protocol=proto)) for task in tasks)
        assert pool.map(_touch_shard_task, tasks, handles=(handle,)) == expected
        start = time.perf_counter()
        for _ in range(supersteps):
            assert pool.map(_touch_shard_task, tasks, handles=(handle,)) == expected
        resident_s = time.perf_counter() - start

    with ParallelExecutor(workers=WORKERS, backend=PROCESS) as executor:
        pickle_tasks = [(part,) for part in parts]
        assert executor.map(_touch_part_task, pickle_tasks) == expected
        start = time.perf_counter()
        for _ in range(supersteps):
            assert executor.map(_touch_part_task, pickle_tasks) == expected
        repickle_s = time.perf_counter() - start

    return {
        "num_parts": float(len(parts)),
        "supersteps": float(supersteps),
        "repickle_bytes_per_superstep": float(repickle_bytes),
        "resident_bytes_per_superstep": float(resident_bytes),
        "shipping_amortization": repickle_bytes / resident_bytes,
        "repickle_s": repickle_s,
        "resident_s": resident_s,
        "wall_clock_ratio": repickle_s / max(resident_s, 1e-9),
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


def test_resident_pool_amortizes_fanout_shipping():
    """Ship-once beats ship-every-superstep ≥ 10× on bytes per call."""
    results = run_amortization_microbench()
    write_snapshot("engine_parallel_amortization", results, meta=_meta())
    assert results["shipping_amortization"] >= AMORTIZATION_TARGET, results


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
    ok = True
    snapshot: dict[str, float] = {}
    amortization = run_amortization_microbench(n, k)
    for title, rows, target in (
        (
            "large-λ orientation (resident pool, process backend)",
            run_orientation_benchmark(n, k),
            ORIENT_SPEEDUP_TARGET,
        ),
        (
            "repeated-superstep fan-out amortization",
            amortization,
            None,
        ),
    ):
        print(f"\n{title}")
        width = max(len(key) for key in rows)
        for key, value in rows.items():
            print(f"  {key:<{width}}  {value:,.4f}")
        for key, value in rows.items():
            snapshot[f"{title.split(' (')[0].replace(' ', '_')}:{key}"] = value
        if "identical" in rows:
            ok = ok and rows["identical"] == 1.0
            if args.smoke:
                print(f"  identity: {'PASS' if rows['identical'] == 1.0 else 'FAIL'}")
        if not args.smoke and target is not None:
            verdict = "PASS" if rows["speedup"] >= target else "FAIL"
            if _available_cpus() < WORKERS:
                verdict += f" n/a ({_available_cpus()} CPUs < {WORKERS})"
            print(f"  speedup target: {target}x -> {verdict}")
    amortized = amortization["shipping_amortization"] >= AMORTIZATION_TARGET
    ok = ok and amortized
    print(
        f"\n  shipping amortization target: {AMORTIZATION_TARGET}x -> "
        f"{'PASS' if amortized else 'FAIL'} "
        f"({amortization['shipping_amortization']:.1f}x)"
    )
    path = write_snapshot("engine_parallel", snapshot, meta=_meta(args.smoke))
    print(f"  snapshot: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

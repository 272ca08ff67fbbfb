"""Streaming data plane — columnar tick hot paths, numpy vs. pure.

Two acceptance bars for the columnar streaming rework (see ROADMAP):

* **Tick-throughput composite ≥ 3×.**  A 100k-vertex churn trace (10 ticks
  × 500 mixed updates against a ~300k-edge base) is streamed through a full
  :class:`~repro.stream.service.StreamingService` — kernel-validated
  batches, columnar absorb, batch recolor scan, per-tick palette/outdegree
  stats, and real mid-batch compactions (the compaction threshold is
  tightened so every tick compacts, exercising the ``compact_journal``
  overlay merge at full base size).  The numpy backend must finish the identical trace ≥ 3×
  faster than ``pure``, with byte-identical outputs (reports, colors,
  outdegree column, snapshot edge columns).
* **Snapshot-cache microbench ≥ 5×.**  Between compactions, repeated
  snapshot consumers (quality checks, properness scans, exports) must not
  each rebuild the snapshot: with the generation-tagged cache on, a tick
  that reads the snapshot 6 times builds it once, so the cache must cut
  journal-replay ops per tick (``DynamicGraph.journal_replay_ops``, the
  running op-journal length summed over builds) by ≥ 5× versus
  ``snapshot_caching=False``.

Methodology matches ``bench_kernels.py``: both backends run the *same*
pre-generated batch sequence from identically constructed services, trials
interleaved (pure, numpy, pure, ...) so thermal ramp-up cannot flatter
either side, best-of-N reported, GC on.  Services are *constructed* outside
the timed region (static pipeline cost, already benchmarked elsewhere) on
whatever backend is active — construction is byte-identical by the kernel
contract, so both sides start from the same state.

Run directly (``python benchmarks/bench_stream_hotpaths.py``) for the
full-scale run, or through pytest.  Each run writes one timestamped
``BENCH_stream_hotpaths_*.json`` snapshot.  ``--smoke`` runs a tiny trace
and checks identity + the replay ratio only — the CI benchmark-smoke mode,
also what a numpy-less host degrades to (the speedup bar is then skipped).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import pytest

from _bench_results import write_snapshot
from repro import kernels
from repro.graph.generators import union_of_random_forests
from repro.stream.dynamic_graph import DynamicGraph
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch

NUM_VERTICES = 100_000
ARBORICITY = 3  # base m ≈ 300k edges
TICKS = 10
BATCH_SIZE = 500
COMPACT_JOURNAL = 400  # overlay entries per forced mid-tick compaction
SPEEDUP_TARGET = 3.0
REPLAY_TARGET = 5.0
REPEATS = 3
SNAPSHOT_READS = 6  # snapshot consumers per microbench tick

SMOKE_VERTICES = 2_000
SMOKE_TICKS = 3
SMOKE_BATCH = 100
SMOKE_REPEATS = 1


def make_trace(graph, ticks: int, batch_size: int, seed: int = 97) -> list[UpdateBatch]:
    """A deterministic churn trace: per batch ~half inserts of fresh edges,
    ~half deletes of currently live ones (base edges included), never
    illegal.  Batches are frozen value objects, safely shared by every
    service that replays the trace."""
    rng = random.Random(seed)
    n = graph.num_vertices
    # The live edge set as a parallel list + index map, so deletions sample
    # in O(1) (swap-remove) with fully deterministic order — no set
    # iteration, no per-op sort.
    live_list = list(zip(*graph.edge_endpoints))
    live_index = {edge: i for i, edge in enumerate(live_list)}
    batches = []
    for _ in range(ticks):
        ops = []
        for _ in range(batch_size):
            if live_list and rng.random() < 0.5:
                i = rng.randrange(len(live_list))
                edge = live_list[i]
                last = live_list.pop()
                if last is not edge:
                    live_list[i] = last
                    live_index[last] = i
                del live_index[edge]
                ops.append(("-", edge[0], edge[1]))
            else:
                while True:
                    u, v = rng.randrange(n), rng.randrange(n)
                    if u == v:
                        continue
                    edge = (u, v) if u < v else (v, u)
                    if edge not in live_index:
                        break
                live_index[edge] = len(live_list)
                live_list.append(edge)
                ops.append(("+", edge[0], edge[1]))
        batches.append(UpdateBatch.from_ops(ops))
    return batches


def _build_service(graph) -> StreamingService:
    # Construction (static orient + degeneracy coloring) is not the unit
    # under test and is byte-identical across backends by the kernel
    # contract, so it always runs on the fastest backend available.
    with kernels.use_backend(kernels.NUMPY):
        service = StreamingService(graph)
    # Tighten the compaction threshold so the trace exercises the
    # compact_journal overlay merge at full base size every tick (the default
    # fraction would never trip at this journal/edge ratio).  Both backends
    # get the same threshold, so compaction timing is identical.
    service.dynamic.min_compaction_journal = COMPACT_JOURNAL
    service.dynamic.compaction_fraction = 1e-9
    return service


def _fingerprint(service: StreamingService) -> tuple:
    snapshot = service.dynamic.snapshot()
    edge_u, edge_v = snapshot.edge_endpoints
    return (
        [report.as_dict() for report in service.summary.reports],
        service.coloring._colors.tobytes(),
        service.orientation._outdeg.tobytes(),
        edge_u.tobytes(),
        edge_v.tobytes(),
    )


def _timed_trace(graph, batches, backend: str) -> tuple[float, tuple]:
    service = _build_service(graph)
    with kernels.use_backend(backend):
        start = time.perf_counter()
        for batch in batches:
            service.apply(batch)
        elapsed = time.perf_counter() - start
    return elapsed, _fingerprint(service)


def snapshot_cache_microbench(
    graph, batches, reads_per_tick: int = SNAPSHOT_READS
) -> dict[str, float]:
    """Journal-replay ops per tick, cached vs. replay-always snapshots."""
    replay_ops = {}
    for caching in (True, False):
        dynamic = DynamicGraph(
            graph, min_compaction_journal=2**60, snapshot_caching=caching
        )
        for batch in batches:
            dynamic.apply_ops(*batch.columns())
            for _ in range(reads_per_tick):
                dynamic.snapshot()
        replay_ops[caching] = dynamic.journal_replay_ops
    return {
        "replay_ops_cached": float(replay_ops[True]),
        "replay_ops_uncached": float(replay_ops[False]),
        "replay_ratio": replay_ops[False] / max(replay_ops[True], 1),
    }


def run_stream_benchmark(
    num_vertices: int = NUM_VERTICES,
    ticks: int = TICKS,
    batch_size: int = BATCH_SIZE,
    repeats: int = REPEATS,
) -> dict[str, float]:
    graph = union_of_random_forests(num_vertices, arboricity=ARBORICITY, seed=23)
    batches = make_trace(graph, ticks, batch_size)

    with kernels.use_backend(kernels.NUMPY) as resolved:
        numpy_ran = resolved == kernels.NUMPY

    best = {kernels.PURE: float("inf"), kernels.NUMPY: float("inf")}
    prints = {}
    for _ in range(repeats):
        for backend in (kernels.PURE, kernels.NUMPY):
            elapsed, fingerprint = _timed_trace(graph, batches, backend)
            best[backend] = min(best[backend], elapsed)
            previous = prints.setdefault(backend, fingerprint)
            assert previous == fingerprint, f"{backend}: run-to-run divergence"
    assert prints[kernels.PURE] == prints[kernels.NUMPY], (
        "streaming outputs diverged between kernel backends"
    )

    updates = ticks * batch_size
    results = {
        "numpy_available": 1.0 if numpy_ran else 0.0,
        "trace_pure_s": best[kernels.PURE],
        "trace_numpy_s": best[kernels.NUMPY],
        "throughput_pure_ups": updates / max(best[kernels.PURE], 1e-9),
        "throughput_numpy_ups": updates / max(best[kernels.NUMPY], 1e-9),
        "composite_speedup": best[kernels.PURE] / max(best[kernels.NUMPY], 1e-9),
    }
    results.update(snapshot_cache_microbench(graph, batches))
    return results


def _meta(smoke: bool = False) -> dict:
    return {
        "num_vertices": SMOKE_VERTICES if smoke else NUM_VERTICES,
        "arboricity": ARBORICITY,
        "ticks": SMOKE_TICKS if smoke else TICKS,
        "batch_size": SMOKE_BATCH if smoke else BATCH_SIZE,
        "compact_journal": COMPACT_JOURNAL,
        "snapshot_reads": SNAPSHOT_READS,
        "repeats": SMOKE_REPEATS if smoke else REPEATS,
        "kernel_backends": list(kernels.available_backends()),
        "smoke": smoke,
    }


def _print_table(results: dict[str, float], num_vertices: int) -> None:
    print(
        f"\nstreaming hot paths @ n={num_vertices}, base m≈{num_vertices * ARBORICITY} "
        f"(union-of-forests λ≤{ARBORICITY})"
    )
    print(
        f"  trace      pure {results['trace_pure_s']:8.3f}s   "
        f"numpy {results['trace_numpy_s']:8.3f}s   "
        f"{results['composite_speedup']:6.1f}x"
    )
    print(
        f"  throughput pure {results['throughput_pure_ups']:8.0f} upd/s   "
        f"numpy {results['throughput_numpy_ups']:8.0f} upd/s"
    )
    print(
        f"  snapshot cache: {results['replay_ops_cached']:.0f} replay ops cached vs "
        f"{results['replay_ops_uncached']:.0f} uncached "
        f"({results['replay_ratio']:.1f}x, target ≥ {REPLAY_TARGET}x)"
    )
    print(f"  composite speedup target: ≥ {SPEEDUP_TARGET}x")


def test_stream_hotpaths_speedup():
    """Full-scale bars: ≥3× tick composite, ≥5× fewer journal replays."""
    results = run_stream_benchmark()
    write_snapshot("stream_hotpaths", results, meta=_meta())
    _print_table(results, NUM_VERTICES)
    assert results["replay_ratio"] >= REPLAY_TARGET, (
        f"snapshot cache saved only {results['replay_ratio']:.2f}x journal "
        f"replays, below the {REPLAY_TARGET}x bar: {results}"
    )
    if not results["numpy_available"]:
        pytest.skip("numpy not importable; identity trivially holds on pure alone")
    assert results["composite_speedup"] >= SPEEDUP_TARGET, (
        f"composite speedup {results['composite_speedup']:.2f}x below the "
        f"{SPEEDUP_TARGET}x bar: {results}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny trace, identity + replay-ratio checks only (CI smoke mode)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        n, ticks, batch, repeats = SMOKE_VERTICES, SMOKE_TICKS, SMOKE_BATCH, SMOKE_REPEATS
    else:
        n, ticks, batch, repeats = NUM_VERTICES, TICKS, BATCH_SIZE, REPEATS
    results = run_stream_benchmark(n, ticks, batch, repeats)
    _print_table(results, n)
    path = write_snapshot("stream_hotpaths", results, meta=_meta(args.smoke))
    print(f"  snapshot: {path}")
    ok = results["replay_ratio"] >= REPLAY_TARGET
    print(f"  replay-ratio target: {REPLAY_TARGET}x -> {'PASS' if ok else 'FAIL'}")
    if args.smoke or not results["numpy_available"]:
        print("  identity: PASS (speedup bar skipped: smoke mode or numpy unavailable)")
        return 0 if ok else 1
    fast = results["composite_speedup"] >= SPEEDUP_TARGET
    print(f"  speedup target: {SPEEDUP_TARGET}x -> {'PASS' if fast else 'FAIL'}")
    return 0 if (ok and fast) else 1


if __name__ == "__main__":
    sys.exit(main())

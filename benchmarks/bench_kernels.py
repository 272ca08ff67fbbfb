"""Kernel layer — vectorized numpy backends vs. the pure-python reference.

The acceptance bar for the kernel layer (see ROADMAP): on a 1M-vertex /
~10M-edge workload, the **peel + orient composite** must run **≥ 3× faster**
on the numpy backend than on ``pure``, with byte-identical outputs (same
``array('l')`` layers column, same round count, same heads column).  The
other kernel families (outdegree tally, orientation merge, palette
assembly) are timed and identity-checked alongside but carry no bar of
their own — they share the composite's data plane and their wins ride
along.

Both backends run the *same dispatcher calls* on the *same inputs*, trials
interleaved (pure, numpy, pure, numpy, ...) so thermal ramp-up and cache
warming cannot flatter either side; best-of-N is reported.  GC stays on —
allocation pressure is a real cost of the python loops being displaced.

Run directly (``python benchmarks/bench_kernels.py``) for the full-scale
table, or through pytest (``pytest benchmarks/bench_kernels.py``).  Either
way each run writes one timestamped ``BENCH_kernels_*.json`` snapshot (see
``_bench_results.py``) recording which backend actually ran.  ``--smoke``
runs tiny instances and checks identity only — the CI benchmark-smoke
job's mode, also what a numpy-less host degrades to (both "backends" then
resolve to ``pure`` and the ratio is meaningless, so the bar is skipped).
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from _bench_results import write_snapshot
from repro import kernels
from repro.graph.generators import union_of_random_forests

NUM_VERTICES = 1_000_000
ARBORICITY = 10  # m ≈ 10M edges (ten spanning forests)
PEEL_THRESHOLD = 2 * ARBORICITY  # clears the graph: degeneracy ≤ λ ≤ 10
SPEEDUP_TARGET = 3.0
REPEATS = 3

SMOKE_VERTICES = 20_000
SMOKE_REPEATS = 2


def _timed_pair(pure_fn, numpy_fn, repeats: int = REPEATS):
    """Best-of-``repeats`` for both backends, trials interleaved."""
    best_pure = best_numpy = float("inf")
    pure_result = numpy_result = None
    for _ in range(repeats):
        start = time.perf_counter()
        pure_result = pure_fn()
        best_pure = min(best_pure, time.perf_counter() - start)
        start = time.perf_counter()
        numpy_result = numpy_fn()
        best_numpy = min(best_numpy, time.perf_counter() - start)
    return best_pure, pure_result, best_numpy, numpy_result


def run_kernel_benchmark(
    num_vertices: int = NUM_VERTICES, repeats: int = REPEATS
) -> dict[str, float]:
    graph = union_of_random_forests(num_vertices, arboricity=ARBORICITY, seed=11)
    n = graph.num_vertices
    # Materialise every input column outside the timed region — the kernels
    # are the unit under test, not the CSR build.
    indptr, indices = graph.csr_indptr, graph.csr_indices
    edge_u, edge_v = graph.edge_endpoints
    rank = list(range(n))

    with kernels.use_backend(kernels.NUMPY) as resolved:
        numpy_ran = resolved == kernels.NUMPY

    results: dict[str, float] = {"numpy_available": 1.0 if numpy_ran else 0.0}

    def timed(name, fn):
        pure_s, pure_out, numpy_s, numpy_out = _timed_pair(
            lambda: fn(kernels.PURE), lambda: fn(kernels.NUMPY), repeats
        )
        assert pure_out == numpy_out, f"{name}: backends diverged"
        results[f"{name}_pure_s"] = pure_s
        results[f"{name}_numpy_s"] = numpy_s
        results[f"{name}_speedup"] = pure_s / max(numpy_s, 1e-9)
        return pure_out

    layers, _rounds = timed(
        "peel",
        lambda backend: kernels.peel_layers(
            n, indptr, indices, PEEL_THRESHOLD, backend=backend
        ),
    )
    assert all(layers), "peel threshold must clear the whole graph"

    heads = timed(
        "orient",
        lambda backend: kernels.orient_by_rank(edge_u, edge_v, rank, backend=backend),
    )

    timed(
        "tally",
        lambda backend: kernels.tally_outdegrees(
            n, edge_u, edge_v, heads, backend=backend
        ),
    )

    # Merge inputs: split the canonical columns into even/odd edge halves —
    # disjoint, sorted, and interleaved (the shape Lemma 2.1 produces).
    a_u, a_v, a_h = edge_u[0::2], edge_v[0::2], heads[0::2]
    b_u, b_v, b_h = edge_u[1::2], edge_v[1::2], heads[1::2]
    timed(
        "merge",
        lambda backend: kernels.merge_oriented_columns(
            n, a_u, a_v, a_h, b_u, b_v, b_h, backend=backend
        ),
    )

    results["composite_pure_s"] = results["peel_pure_s"] + results["orient_pure_s"]
    results["composite_numpy_s"] = results["peel_numpy_s"] + results["orient_numpy_s"]
    results["composite_speedup"] = results["composite_pure_s"] / max(
        results["composite_numpy_s"], 1e-9
    )
    return results


def _meta(smoke: bool = False) -> dict:
    return {
        "num_vertices": SMOKE_VERTICES if smoke else NUM_VERTICES,
        "arboricity": ARBORICITY,
        "peel_threshold": PEEL_THRESHOLD,
        "repeats": SMOKE_REPEATS if smoke else REPEATS,
        "kernel_backends": list(kernels.available_backends()),
        "smoke": smoke,
    }


def _print_table(results: dict[str, float], num_vertices: int) -> None:
    print(
        f"\nkernel backends @ n={num_vertices}, m≈{num_vertices * ARBORICITY} "
        f"(union-of-forests λ≤{ARBORICITY})"
    )
    for name in ("peel", "orient", "tally", "merge", "composite"):
        pure_s = results[f"{name}_pure_s"]
        numpy_s = results[f"{name}_numpy_s"]
        print(
            f"  {name:<10} pure {pure_s:8.3f}s   numpy {numpy_s:8.3f}s   "
            f"{results[f'{name}_speedup']:6.1f}x"
        )
    print(
        f"  composite (peel+orient) speedup: {results['composite_speedup']:.1f}x "
        f"(target ≥ {SPEEDUP_TARGET}x)"
    )


def test_kernel_composite_speedup():
    """Full-scale bar: numpy ≥ 3× on peel+orient, outputs byte-identical."""
    results = run_kernel_benchmark()
    write_snapshot("kernels", results, meta=_meta())
    _print_table(results, NUM_VERTICES)
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
        help="tiny instances, identity checks only (CI smoke mode)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        n, repeats = SMOKE_VERTICES, SMOKE_REPEATS
    else:
        n, repeats = NUM_VERTICES, REPEATS
    results = run_kernel_benchmark(n, repeats)
    _print_table(results, n)
    path = write_snapshot("kernels", results, meta=_meta(args.smoke))
    print(f"  snapshot: {path}")
    if args.smoke or not results["numpy_available"]:
        print("  identity: PASS (bar skipped: smoke mode or numpy unavailable)")
        return 0
    ok = results["composite_speedup"] >= SPEEDUP_TARGET
    print(f"  speedup target: {SPEEDUP_TARGET}x -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end: public-API results are byte-identical across kernel backends.

The per-kernel equivalence suite pins each dispatcher in isolation; these
tests pin the composition — a whole Theorem 1.1 orientation run, a whole
Theorem 1.2 coloring run (both branches), a full streaming trace — computed
once per backend and compared as complete result fingerprints.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.core.coloring import color
from repro.core.orientation import orient
from repro.graph.generators import (
    planted_dense_subgraph,
    union_of_random_forests,
)
from repro.stream.service import StreamingService
from repro.stream.workloads import uniform_churn_trace

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not importable"
)


def _per_backend(fn):
    results = {}
    for backend in kernels.BACKENDS:
        with kernels.use_backend(backend) as resolved:
            assert resolved == backend  # numpy leg is skipped, not degraded
            results[backend] = fn()
    return results


@needs_numpy
class TestEndToEnd:
    def test_peel_layers_identical(self):
        graph = planted_dense_subgraph(
            150,
            community_size=50,
            community_probability=0.6,
            background_probability=0.04,
            seed=3,
        )
        results = _per_backend(lambda: graph.peel_layers(6))
        assert results[kernels.PURE] == results[kernels.NUMPY]

    def test_orientation_run_identical(self):
        graph = union_of_random_forests(400, arboricity=4, seed=21)
        results = _per_backend(
            lambda: orient(graph, seed=5)
        )
        pure, vec = results[kernels.PURE], results[kernels.NUMPY]
        assert pure.orientation.direction == vec.orientation.direction
        assert pure.rounds == vec.rounds
        assert pure.max_outdegree == vec.max_outdegree

    @pytest.mark.parametrize("force_vertex_partitioning", [False, True])
    def test_coloring_run_identical(self, force_vertex_partitioning):
        graph = union_of_random_forests(300, arboricity=3, seed=8)
        results = _per_backend(
            lambda: color(
                graph,
                seed=5,
                force_vertex_partitioning=force_vertex_partitioning,
            )
        )
        pure, vec = results[kernels.PURE], results[kernels.NUMPY]
        assert pure.coloring.as_dict() == vec.coloring.as_dict()
        assert pure.palette_size == vec.palette_size
        assert pure.num_colors == vec.num_colors
        assert pure.rounds == vec.rounds

    def test_streamed_trace_identical(self):
        trace = uniform_churn_trace(
            120, arboricity=3, num_batches=4, batch_size=80, seed=13
        )

        def run():
            service = StreamingService(trace.initial, seed=0)
            service.apply_all(trace.batches)
            service.verify()
            return (
                tuple(tuple(sorted(out)) for out in service.orientation._out),
                tuple(service.coloring._colors),
                service.cluster.stats.num_rounds,
                [report.as_dict() for report in service.summary.reports],
            )

        results = _per_backend(run)
        assert results[kernels.PURE] == results[kernels.NUMPY]

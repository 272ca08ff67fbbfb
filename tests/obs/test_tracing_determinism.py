"""Tracing must not perturb byte-identical determinism.

The matrix the tentpole pins: with the same seed, ``orient``, ``color``, and
a quota-breaching engine run all produce identical results — heads, colors,
round counts, quarantine decisions — with tracing on or off.  ``orient`` and
``color`` are checked at worker counts 1 / 2 / 4 with the process path
forced for every multi-worker cell; the engine, which runs in-process, on either
kernel backend under every scheduling policy.  The tracer only ever *reads* the ledger, so a single golden
fingerprint per scenario must match every cell of the matrix.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.core.coloring import color
from repro.core.orientation import orient
from repro.engine import derive_seed
from repro.errors import QuotaExceededError
from repro.graph.generators import union_of_random_forests
from repro.obs import Tracer
from repro.stream.engine import StreamEngine
from repro.stream.scheduler import POLICIES
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch
from repro.stream.workloads import multi_tenant_traces

# (path, workers): one worker always runs serially; the ``force_process``
# fixture sends the multi-worker cells of the 1/2/4 sweep to process workers.
MATRIX = [
    ("serial", 1),
    ("process", 2),
    ("process", 4),
]
TRACING = [False, True]


def _matrix_id(cell):
    path, workers = cell
    return f"{path}-w{workers}"


def _kernel_graph():
    return union_of_random_forests(160, arboricity=4, seed=21)


def _orient_fingerprint(workers, tracer):
    run = orient(
        _kernel_graph(),
        seed=21,
        workers=workers,
        force_edge_partitioning=True,
        tracer=tracer,
    )
    return (
        tuple(run.orientation._heads),
        run.max_outdegree,
        run.rounds,
        run.num_parts,
    )


def _color_fingerprint(workers, tracer):
    run = color(
        _kernel_graph(),
        seed=21,
        workers=workers,
        force_vertex_partitioning=True,
        tracer=tracer,
    )
    return (
        tuple(sorted(run.coloring._color_of.items())),
        run.num_colors,
        run.rounds,
    )


def _hog_quota_and_inserts(initial, seed):
    """A quota tight enough to breach on a burst of fresh inserts."""
    probe = StreamingService(initial, seed=seed)
    quota = (
        max(
            probe.cluster.stats.peak_global_memory_words,
            probe.cluster.global_memory_in_use(),
        )
        + 4
    )
    inserts = []
    for u in range(initial.num_vertices):
        for v in range(u + 1, initial.num_vertices):
            if not initial.has_edge(u, v):
                inserts.append(("+", u, v))
                if len(inserts) == 10:
                    return quota, inserts
    return quota, inserts


def _engine_fingerprint(tracer, policy):
    """A quota-breach engine run: sibling results + quarantine + tick rounds."""
    traces = multi_tenant_traces(
        num_tenants=2, num_vertices=48, num_batches=2, batch_size=16, seed=13
    )
    hog_initial = traces[1].initial
    quota, inserts = _hog_quota_and_inserts(hog_initial, derive_seed(13, 1))
    breached = False
    with StreamEngine(seed=13, tracer=tracer, planner=policy) as engine:
        engine.add_tenant(traces[0].name, traces[0].initial)
        engine.add_tenant("hog", hog_initial, memory_quota=quota)
        engine.submit_all(traces[0].name, traces[0].batches)
        engine.submit("hog", UpdateBatch.from_ops(inserts))
        try:
            engine.run_until_drained(max_ticks=50)
        except QuotaExceededError:
            breached = True
            engine.run_until_drained(max_ticks=50)
        engine.verify()
        sibling = engine.tenant_service(traces[0].name)
        return (
            breached,
            tuple(sorted(engine.quarantined())),
            tuple(tick.rounds for tick in engine.ticks),
            tuple(tuple(sorted(out)) for out in sibling.orientation._out),
            tuple(sibling.coloring._colors),
            tuple(
                tuple(sorted(report.as_dict().items()))
                for report in sibling.summary.reports
            ),
        )


class TestKernelMatrix:
    @pytest.mark.parametrize("traced", TRACING, ids=["untraced", "traced"])
    @pytest.mark.parametrize("cell", MATRIX, ids=_matrix_id)
    def test_orient_is_identical_across_the_matrix(
        self, cell, traced, kernel_backend, force_process
    ):
        # ``kernel_backend`` adds the pure/numpy dimension: the golden
        # fingerprint is recomputed under the same kernels, and the pinned
        # bytes must not depend on them.
        _path, workers = cell
        golden = _orient_fingerprint(1, None)
        tracer = Tracer() if traced else None
        assert _orient_fingerprint(workers, tracer) == golden

    @pytest.mark.parametrize("traced", TRACING, ids=["untraced", "traced"])
    @pytest.mark.parametrize("cell", MATRIX, ids=_matrix_id)
    def test_color_is_identical_across_the_matrix(
        self, cell, traced, kernel_backend, force_process
    ):
        _path, workers = cell
        golden = _color_fingerprint(1, None)
        tracer = Tracer() if traced else None
        assert _color_fingerprint(workers, tracer) == golden


class TestEngineQuotaMatrix:
    @pytest.mark.parametrize("traced", TRACING, ids=["untraced", "traced"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_quota_breach_run_is_identical_with_tracing_on_or_off(
        self, policy, traced, kernel_backend
    ):
        with kernels.use_backend(kernels.PURE):
            golden = _engine_fingerprint(None, policy)
        assert golden[0] is True  # the quota actually breached
        assert golden[1] == ("hog",)
        tracer = Tracer() if traced else None
        assert _engine_fingerprint(tracer, policy) == golden

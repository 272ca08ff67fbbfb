"""Parallel Lemma 2.2 coloring: round accounting and worker-count determinism.

Regression (ISSUE 4 tentpole): before the engine-backed refactor, ``color()``
walked the Lemma 2.2 vertex-partition parts in a sequential loop that charged
each part's layering and list-coloring rounds cumulatively —
``ColoringRun.rounds`` grew linearly with the part count, overstating round
complexity relative to the MPC model (which colors the parts simultaneously),
exactly the defect PR 3 fixed for the Lemma 2.1 orientation branch.  With
the sub-ledger fold, rounds are max-over-parts plus the constant
partition/offset overhead.
"""

from __future__ import annotations

import pytest

from repro.analysis.validators import validate_round_complexity
from repro.core.coloring import color
from repro.errors import ParameterError
from repro.graph.generators import planted_dense_subgraph, union_of_random_forests


def dense_graph():
    return planted_dense_subgraph(
        200, community_size=70, community_probability=0.7,
        background_probability=0.02, seed=17,
    )


class TestPartitionedRoundAccounting:
    def test_rounds_stay_below_the_sequential_sum(self):
        """Max-over-parts merge: the parallel charge must be strictly below
        what the old per-part cumulative loop would have recorded."""
        run = color(dense_graph(), seed=0)
        assert run.used_vertex_partitioning
        assert run.num_parts > 1
        assert len(run.part_rounds) > 1
        assert run.rounds < sum(run.part_rounds)

    def test_doubling_parts_leaves_rounds_within_theorem_bound(self):
        """Doubling k (and hence the part count) must not scale rounds
        linearly: both runs stay within the Theorem 1.2 envelope and the
        doubled run stays strictly below its own sequential sum."""
        graph = union_of_random_forests(512, arboricity=4, seed=3)
        base = color(graph, k=64, seed=1, force_vertex_partitioning=True)
        doubled = color(graph, k=128, seed=1, force_vertex_partitioning=True)
        assert doubled.num_parts >= 2 * base.num_parts - 1

        for run in (base, doubled):
            check = validate_round_complexity(run.rounds, graph.num_vertices)
            assert check.passed, (run.rounds, check.allowed)

        assert doubled.rounds < sum(doubled.part_rounds)
        # The whole point: rounds must not double when the parts do.  The
        # coloring fold has no merge tree — only the constant
        # partition/offset overhead — so the doubled run may not exceed the
        # base by more than the longest part's round difference.
        assert doubled.rounds <= base.rounds + 2

    def test_partition_and_offset_rounds_are_labelled(self):
        run = color(dense_graph(), seed=0)
        labels = run.cluster.stats.rounds_by_label
        assert labels["vertex-partition"] == 1
        assert labels["palette-offsets"] == 1

    def test_memory_peaks_fold_as_sums_into_the_parent(self):
        run = color(dense_graph(), seed=0)
        assert run.cluster.stats.peak_machine_memory_words > 0
        assert run.cluster.stats.peak_global_memory_words > 0

    def test_hpartitions_cover_every_part(self):
        """The fold rebuilds one HPartition per non-empty part from the
        shipped layer columns; together they cover the vertex set."""
        graph = dense_graph()
        run = color(graph, seed=0)
        covered = set()
        for hpartition in run.hpartitions:
            for local_vertex in hpartition.graph.vertices:
                covered.add(hpartition.graph.to_parent(local_vertex))
        assert covered == set(graph.vertices)


class TestWorkerDeterminism:
    def test_forced_process_path_matches_serial_colors_exactly(self, fanout):
        graph = dense_graph()
        reference = color(graph, seed=5)
        run = color(graph, seed=5, workers=2)
        assert run.coloring.as_dict() == reference.coloring.as_dict()
        assert run.rounds == reference.rounds
        assert run.palette_size == reference.palette_size
        assert run.part_rounds == reference.part_rounds

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_are_byte_identical(self, workers):
        graph = dense_graph()
        reference = color(graph, seed=9)
        run = color(graph, seed=9, workers=workers)
        assert run.coloring.as_dict() == reference.coloring.as_dict()
        assert run.rounds == reference.rounds
        assert run.local_subroutine_rounds == reference.local_subroutine_rounds
        run.coloring.validate_proper()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matrix_of_workers_and_fanout_paths_is_byte_identical(
        self, workers, fanout, kernel_backend
    ):
        """The full workers × {auto, forced-process} matrix — including
        workers=4 with every part pickled into a process worker — matches
        the serial reference exactly.  The ``kernel_backend`` fixture adds
        the kernel dimension: every cell re-runs per kernel backend with
        unchanged pinned results."""
        graph = dense_graph()
        reference = color(graph, seed=9)
        run = color(graph, seed=9, workers=workers)
        assert run.coloring.as_dict() == reference.coloring.as_dict()
        assert run.rounds == reference.rounds
        assert run.palette_size == reference.palette_size
        assert run.part_rounds == reference.part_rounds

    def test_small_lambda_branch_ignores_workers(self):
        """The single-part branch never fans out; workers must not change it."""
        graph = union_of_random_forests(128, arboricity=2, seed=4)
        reference = color(graph, seed=2)
        run = color(graph, seed=2, workers=4)
        assert not run.used_vertex_partitioning
        assert run.coloring.as_dict() == reference.coloring.as_dict()
        assert run.rounds == reference.rounds


class TestWorkersValidation:
    @pytest.mark.parametrize("workers", [0, -5])
    def test_nonpositive_workers_rejected_on_the_small_lambda_branch(self, workers):
        """Regression: only the pool-building large-λ branch used to check
        ``workers``; a small-λ graph accepted ``workers=-5`` silently."""
        graph = union_of_random_forests(128, arboricity=2, seed=4)
        assert not color(graph, seed=2).used_vertex_partitioning
        with pytest.raises(ParameterError, match="workers"):
            color(graph, seed=2, workers=workers)

"""Parallel large-λ branch: round accounting and worker-count determinism.

Regression (ISSUE 3 satellite): before the superstep engine, ``orient()``
walked the Lemma 2.1 parts in a sequential loop that charged each part's
layering rounds cumulatively — ``OrientationRun.rounds`` grew linearly with
the part count, overstating round complexity relative to the MPC model
(which orients the parts simultaneously).  With the sub-ledger fold, rounds
are max-over-parts plus the ``⌈log2 L⌉`` merge-tree rounds.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.validators import validate_round_complexity
from repro.core.orientation import orient
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
        run = orient(dense_graph(), seed=0)
        assert run.used_edge_partitioning
        assert run.num_parts > 1
        sequential_sum = sum(part.rounds_charged for part in run.partition_runs)
        # Even including the guess/partition/merge-tree overhead, the total
        # stays strictly below the bare sum of the per-part layering rounds
        # that the old sequential loop charged.
        assert run.rounds < sequential_sum

    def test_doubling_parts_leaves_rounds_within_theorem_bound(self):
        """Doubling k (and hence the part count) must not scale rounds
        linearly: both runs stay within the Theorem 1.1 envelope and the
        doubled run stays strictly below its own sequential sum."""
        graph = union_of_random_forests(512, arboricity=4, seed=3)
        base = orient(graph, k=64, seed=1, force_edge_partitioning=True)
        doubled = orient(graph, k=128, seed=1, force_edge_partitioning=True)
        assert doubled.num_parts >= 2 * base.num_parts - 1

        for run in (base, doubled):
            check = validate_round_complexity(run.rounds, graph.num_vertices)
            assert check.passed, (run.rounds, check.allowed)

        doubled_sequential = sum(p.rounds_charged for p in doubled.partition_runs)
        assert doubled.rounds < doubled_sequential
        # The whole point: rounds must not double when the parts do.
        assert doubled.rounds <= base.rounds + math.ceil(
            math.log2(max(doubled.num_parts, 2))
        )

    def test_merge_tree_rounds_are_labelled(self):
        run = orient(dense_graph(), seed=0)
        labels = run.cluster.stats.rounds_by_label
        # The merge tree spans the *non-empty* parts (one partition run per
        # non-empty part); empty parts are skipped before the fan-out.
        nonempty = len(run.partition_runs)
        assert nonempty > 1
        assert labels["merge-orientations"] == math.ceil(math.log2(nonempty))
        assert labels["edge-partition"] == 1

    def test_memory_peaks_fold_as_sums_into_the_parent(self):
        run = orient(dense_graph(), seed=0)
        assert run.cluster.stats.peak_machine_memory_words > 0
        assert run.cluster.stats.peak_global_memory_words > 0


class TestWorkerDeterminism:
    def test_forced_process_path_matches_serial_heads_exactly(self, fanout):
        graph = dense_graph()
        reference = orient(graph, seed=5)
        run = orient(graph, seed=5, workers=2)
        assert run.orientation.direction == reference.orientation.direction
        assert run.rounds == reference.rounds
        assert run.max_outdegree == reference.max_outdegree

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_are_byte_identical(self, workers):
        graph = dense_graph()
        reference = orient(graph, seed=9)
        run = orient(graph, seed=9, workers=workers)
        assert bytes(run.orientation._heads) == bytes(reference.orientation._heads)
        assert run.orientation.graph == reference.orientation.graph
        assert run.rounds == reference.rounds

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matrix_of_workers_and_fanout_paths_is_byte_identical(
        self, workers, fanout, kernel_backend
    ):
        """The full workers × {auto, forced-process} matrix — including
        workers=4 with every part pickled into a process worker — matches
        the serial reference exactly.  The ``kernel_backend`` fixture re-runs
        every cell per kernel backend: the reference is computed under the
        same kernels, and the pinned bytes must not depend on them."""
        graph = dense_graph()
        reference = orient(graph, seed=9)
        run = orient(graph, seed=9, workers=workers)
        assert bytes(run.orientation._heads) == bytes(reference.orientation._heads)
        assert run.rounds == reference.rounds
        assert run.max_outdegree == reference.max_outdegree


class TestWorkersValidation:
    @pytest.mark.parametrize("workers", [0, -5])
    def test_nonpositive_workers_rejected_on_the_small_lambda_branch(self, workers):
        """Regression: only the pool-building large-λ branch used to check
        ``workers``; a small-λ graph accepted ``workers=0`` silently."""
        graph = union_of_random_forests(128, arboricity=2, seed=4)
        assert not orient(graph, seed=2).used_edge_partitioning
        with pytest.raises(ParameterError, match="workers"):
            orient(graph, seed=2, workers=workers)

    def test_nonpositive_workers_rejected_on_the_empty_graph(self):
        from repro.graph.graph import Graph

        with pytest.raises(ParameterError, match="workers"):
            orient(Graph(0, []), workers=0)

"""Tests for the Theorem 1.1 orientation pipeline."""

from __future__ import annotations

import pytest

from repro.analysis.validators import (
    validate_orientation_quality,
    validate_round_complexity,
)
from repro.core.orientation import orient, orientation_outdegree_bound
from repro.core.partitioning import EdgePartition
from repro.errors import GraphError, ParameterError
from repro.graph import generators
from repro.graph.arboricity import arboricity_bounds
from repro.graph.graph import Graph
from repro.graph.orientation import Orientation
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig


class TestBasicCorrectness:
    def test_empty_graph(self):
        run = orient(Graph(0))
        assert run.max_outdegree == 0
        assert run.rounds == 0

    def test_covers_every_edge(self, union_forest_graph):
        run = orient(union_forest_graph, seed=0)
        assert set(run.orientation.direction.keys()) == set(union_forest_graph.edges)

    def test_rejects_bad_k(self, union_forest_graph):
        with pytest.raises(ParameterError):
            orient(union_forest_graph, k=0)

    def test_rejects_bool_k(self, union_forest_graph):
        with pytest.raises(ParameterError, match="k must be an integer, not a bool"):
            orient(union_forest_graph, k=True)

    def test_rejects_bool_workers(self, union_forest_graph):
        with pytest.raises(ParameterError, match="workers must be an integer, not a bool"):
            orient(union_forest_graph, workers=True)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_delta(self, union_forest_graph, delta):
        with pytest.raises(ParameterError, match="delta must be a positive finite number"):
            orient(union_forest_graph, delta=delta)

    def test_deterministic_given_seed(self, union_forest_graph):
        a = orient(union_forest_graph, seed=5)
        b = orient(union_forest_graph, seed=5)
        assert a.orientation.direction == b.orientation.direction


class TestTheorem11Quality:
    def test_forest_outdegree(self, small_forest):
        run = orient(small_forest, seed=0)
        bounds = arboricity_bounds(small_forest)
        report = validate_orientation_quality(
            run.orientation, bounds.upper, small_forest.num_vertices
        )
        assert report.passed

    def test_union_forest_outdegree(self, union_forest_graph):
        run = orient(union_forest_graph, seed=0)
        assert run.max_outdegree <= orientation_outdegree_bound(4, union_forest_graph.num_vertices)

    def test_star_outdegree_is_one(self, small_star):
        run = orient(small_star, seed=0)
        assert run.max_outdegree <= 2
        # The Δ-oblivious guarantee: the hub's degree is irrelevant.
        assert small_star.max_degree() == small_star.num_vertices - 1

    def test_power_law_beats_max_degree(self, power_law_graph):
        run = orient(power_law_graph, seed=0)
        assert run.max_outdegree < power_law_graph.max_degree() / 4
        bounds = arboricity_bounds(power_law_graph, exact_density=False)
        report = validate_orientation_quality(
            run.orientation, bounds.upper, power_law_graph.num_vertices
        )
        assert report.passed

    def test_outdegree_ratio_reported(self, union_forest_graph):
        run = orient(union_forest_graph, seed=0)
        assert run.outdegree_to_arboricity_ratio() == pytest.approx(
            run.max_outdegree / run.arboricity_proxy
        )


class TestRoundsAndBranches:
    def test_round_complexity_poly_loglog(self, union_forest_graph):
        run = orient(union_forest_graph, seed=0)
        report = validate_round_complexity(run.rounds, union_forest_graph.num_vertices)
        assert report.passed

    def test_small_lambda_uses_direct_branch(self, small_forest):
        run = orient(small_forest, seed=0)
        assert not run.used_edge_partitioning
        assert run.num_parts == 1
        assert run.hpartition is not None

    def test_large_lambda_uses_edge_partitioning(self, dense_community_graph):
        run = orient(dense_community_graph, seed=0)
        assert run.used_edge_partitioning
        assert run.num_parts > 1
        # The merged orientation still covers all edges and respects the bound.
        assert set(run.orientation.direction.keys()) == set(dense_community_graph.edges)
        bounds = arboricity_bounds(dense_community_graph, exact_density=False)
        report = validate_orientation_quality(
            run.orientation, bounds.upper, dense_community_graph.num_vertices, constant=12.0
        )
        assert report.passed

    def test_force_edge_partitioning_override(self, union_forest_graph):
        run = orient(union_forest_graph, seed=0, force_edge_partitioning=True)
        assert run.used_edge_partitioning
        assert set(run.orientation.direction.keys()) == set(union_forest_graph.edges)

    def test_external_cluster_accumulates_rounds(self, union_forest_graph):
        cluster = MPCCluster(MPCConfig.for_graph(union_forest_graph))
        run = orient(union_forest_graph, seed=0, cluster=cluster)
        assert run.rounds == cluster.stats.num_rounds
        assert run.cluster is cluster

    def test_orientation_from_layering_is_acyclic(self, union_forest_graph):
        run = orient(union_forest_graph, seed=0)
        assert run.orientation.is_acyclic()


class TestMergedCoverageInvariant:
    """Regression tests for the merged-orientation fallback in ``orient``.

    The seed code tried to "repair" a merge that missed edges by re-wrapping
    the incomplete direction map in ``Orientation(graph, ...)``, which can
    only raise ``InvalidOrientationError`` — a confusing crash instead of a
    diagnosis.  The replacement checks the Lemma 2.1 invariant (every input
    edge lands in exactly one oriented part) and fails with a clear error.
    """

    def test_zero_edge_parts_are_skipped_and_coverage_holds(self):
        # Path on 4 vertices has 3 edges; forcing the partition branch with a
        # large explicit k yields ceil(k / log2 n) = 4 parts, so at least one
        # part must be empty and the zero-edge-part path is exercised.
        graph = generators.path(4)
        run = orient(graph, k=8, seed=1, force_edge_partitioning=True)
        assert run.num_parts > graph.num_edges  # pigeonhole: some part is empty
        assert set(run.orientation.direction.keys()) == set(graph.edges)

    def test_missing_edges_raise_clear_invariant_error(self, monkeypatch):
        """If the edge partition drops an edge, orient must report the broken
        Lemma 2.1 invariant (on the seed this surfaced as an
        InvalidOrientationError from the repair attempt instead)."""
        import repro.core.orientation as orientation_module

        graph = generators.path(4)

        def lossy_partition(g, arboricity_bound, rng=None, seed=None, num_parts=None):
            return EdgePartition(parts=[Graph(g.num_vertices, g.edges[:-1])])

        monkeypatch.setattr(orientation_module, "random_edge_partition", lossy_partition)
        with pytest.raises(GraphError, match="does not cover"):
            orient(graph, k=8, seed=1, force_edge_partitioning=True)

    def test_overlapping_parts_raise_clear_invariant_error(self, monkeypatch):
        """An edge in two parts breaks the Lemma 2.1 invariant just like a
        missing one, and the single merge names it."""
        import repro.core.orientation as orientation_module

        graph = generators.path(4)

        def overlapping_partition(g, arboricity_bound, rng=None, seed=None, num_parts=None):
            return EdgePartition(
                parts=[Graph(g.num_vertices, g.edges), Graph(g.num_vertices, g.edges[:1])]
            )

        monkeypatch.setattr(orientation_module, "random_edge_partition", overlapping_partition)
        with pytest.raises(
            GraphError, match="does not cover .* 0 are in no part and 1 are in more than one part"
        ):
            orient(graph, k=8, seed=1, force_edge_partitioning=True)

    def test_all_parts_empty_with_nonempty_graph_raises(self):
        from repro.core.orientation import _check_merged_covers

        graph = generators.path(3)
        with pytest.raises(GraphError, match="no oriented parts"):
            _check_merged_covers(graph, None)

    def test_empty_graph_yields_empty_orientation(self):
        from repro.core.orientation import _check_merged_covers

        graph = Graph(3)
        merged = _check_merged_covers(graph, None)
        assert isinstance(merged, Orientation)
        assert merged.max_outdegree() == 0

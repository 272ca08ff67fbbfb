"""Tests for the Theorem 1.2 coloring pipeline."""

from __future__ import annotations

import pytest

from repro.analysis.validators import validate_coloring_quality, validate_round_complexity
from repro.core.coloring import color, coloring_palette_bound
from repro.errors import ParameterError
from repro.graph import generators
from repro.graph.arboricity import arboricity_bounds
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig


class TestBasicCorrectness:
    def test_empty_graph(self):
        run = color(Graph(0))
        assert run.num_colors == 0

    def test_single_vertex(self):
        run = color(Graph(1))
        assert run.coloring.is_proper()
        assert run.num_colors == 1

    def test_rejects_bad_palette_slack(self, small_forest):
        with pytest.raises(ParameterError):
            color(small_forest, palette_slack=1)

    def test_rejects_bool_k(self, small_forest):
        with pytest.raises(ParameterError, match="k must be an integer, not a bool"):
            color(small_forest, k=True)

    def test_rejects_bool_workers(self, small_forest):
        with pytest.raises(ParameterError, match="workers must be an integer, not a bool"):
            color(small_forest, workers=True)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_delta(self, small_forest, delta):
        with pytest.raises(ParameterError, match="delta must be a positive finite number"):
            color(small_forest, delta=delta)

    def test_always_proper(self, union_forest_graph):
        run = color(union_forest_graph, seed=0)
        run.coloring.validate_proper()

    def test_deterministic_given_seed(self, union_forest_graph):
        a = color(union_forest_graph, seed=3)
        b = color(union_forest_graph, seed=3)
        assert a.coloring.as_dict() == b.coloring.as_dict()


class TestTheorem12Quality:
    def test_forest_few_colors(self, small_forest):
        run = color(small_forest, seed=0)
        run.coloring.validate_proper()
        assert run.num_colors <= coloring_palette_bound(1, small_forest.num_vertices)

    def test_star_uses_constant_colors(self, small_star):
        run = color(small_star, seed=0)
        run.coloring.validate_proper()
        # Δ = n-1 but λ = 1: the palette must not scale with the hub degree.
        assert run.num_colors <= 6

    def test_union_forest_palette(self, union_forest_graph):
        run = color(union_forest_graph, seed=0)
        bounds = arboricity_bounds(union_forest_graph, exact_density=False)
        report = validate_coloring_quality(
            run.coloring, bounds.upper, union_forest_graph.num_vertices
        )
        assert report.passed

    def test_power_law_beats_delta_plus_one(self, power_law_graph):
        run = color(power_law_graph, seed=0)
        run.coloring.validate_proper()
        assert run.num_colors < power_law_graph.max_degree() / 2

    def test_colors_within_palette(self, union_forest_graph):
        run = color(union_forest_graph, seed=0)
        assert run.coloring.max_color() < run.palette_size
        assert run.num_colors <= run.palette_size


class TestBranchesAndRounds:
    def test_round_complexity(self, union_forest_graph):
        run = color(union_forest_graph, seed=0)
        report = validate_round_complexity(run.rounds, union_forest_graph.num_vertices)
        assert report.passed

    def test_small_lambda_avoids_vertex_partitioning(self, small_forest):
        run = color(small_forest, seed=0)
        assert not run.used_vertex_partitioning
        assert run.num_parts == 1
        assert len(run.hpartitions) == 1

    def test_large_lambda_uses_vertex_partitioning(self, dense_community_graph):
        run = color(dense_community_graph, seed=0)
        assert run.used_vertex_partitioning
        assert run.num_parts > 1
        run.coloring.validate_proper()

    def test_parts_use_disjoint_palettes(self, dense_community_graph):
        run = color(dense_community_graph, seed=1, force_vertex_partitioning=True)
        run.coloring.validate_proper()
        # With disjoint per-part palettes the total palette is the sum of the
        # parts' palettes; the distinct colors used can never exceed it.
        assert run.num_colors <= run.palette_size

    def test_external_cluster_accumulates_rounds(self, union_forest_graph):
        cluster = MPCCluster(MPCConfig.for_graph(union_forest_graph))
        run = color(union_forest_graph, seed=0, cluster=cluster)
        assert run.rounds == cluster.stats.num_rounds

    def test_local_subroutine_rounds_recorded(self, union_forest_graph):
        run = color(union_forest_graph, seed=0)
        assert run.local_subroutine_rounds >= 1

    def test_colors_to_arboricity_ratio(self, union_forest_graph):
        run = color(union_forest_graph, seed=0)
        assert run.colors_to_arboricity_ratio() == pytest.approx(
            run.num_colors / run.arboricity_proxy
        )

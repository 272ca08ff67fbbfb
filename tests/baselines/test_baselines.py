"""Tests for the prior-work baselines."""

from __future__ import annotations

import pytest

from repro.baselines.be_mpc import barenboim_elkin_in_mpc
from repro.baselines.forest import forest_orient_and_color
from repro.baselines.glm19 import glm19_orientation, phase_length_for
from repro.baselines.greedy import degeneracy_order_coloring, greedy_delta_coloring
from repro.errors import ParameterError
from repro.graph import generators
from repro.graph.arboricity import degeneracy


class TestBarenboimElkinInMPC:
    def test_outdegree_bound(self, union_forest_graph):
        result = barenboim_elkin_in_mpc(union_forest_graph, arboricity=3)
        assert result.max_outdegree <= result.threshold
        assert result.rounds >= 1

    def test_rejects_negative_arboricity(self, small_forest):
        with pytest.raises(ParameterError):
            barenboim_elkin_in_mpc(small_forest, arboricity=-1)

    def test_rounds_track_peeling_depth(self):
        shallow = generators.complete_ary_tree(4, 256)
        deep = generators.complete_ary_tree(4, 16384)
        assert (
            barenboim_elkin_in_mpc(deep, arboricity=1).rounds
            > barenboim_elkin_in_mpc(shallow, arboricity=1).rounds
        )

    def test_partition_covers_all_vertices(self, union_forest_graph):
        result = barenboim_elkin_in_mpc(union_forest_graph, arboricity=3)
        assert len(result.partition.layer_of) == union_forest_graph.num_vertices


class TestGLM19:
    def test_phase_length_grows_slowly(self):
        assert phase_length_for(2**16) == 4
        assert phase_length_for(2**25) == 5

    def test_output_matches_peeling_quality(self, union_forest_graph):
        result = glm19_orientation(union_forest_graph, arboricity=3)
        assert result.max_outdegree <= 8  # threshold (2.5 * 3) rounded up
        assert result.phases >= 1
        assert result.local_rounds_simulated >= result.phases

    def test_rounds_grow_slower_than_local_simulation(self):
        graph = generators.complete_ary_tree(4, 16384)
        glm = glm19_orientation(graph, arboricity=1)
        local = barenboim_elkin_in_mpc(graph, arboricity=1)
        # GLM19 simulates the same number of LOCAL iterations but packs each
        # phase of √log n of them into O(log log n) MPC rounds.
        assert glm.local_rounds_simulated >= local.rounds - 1
        assert glm.phases <= local.rounds

    def test_rejects_negative_arboricity(self, small_forest):
        with pytest.raises(ParameterError):
            glm19_orientation(small_forest, arboricity=-1)


class TestGreedyBaselines:
    def test_delta_coloring_proper(self, power_law_graph):
        coloring = greedy_delta_coloring(power_law_graph)
        assert coloring.is_proper()
        assert coloring.num_colors() <= power_law_graph.max_degree() + 1

    def test_degeneracy_coloring_proper_and_small(self, power_law_graph):
        coloring = degeneracy_order_coloring(power_law_graph)
        assert coloring.is_proper()
        assert coloring.num_colors() <= degeneracy(power_law_graph) + 1

    def test_degeneracy_coloring_beats_delta_on_stars(self, small_star):
        assert degeneracy_order_coloring(small_star).num_colors() == 2
        assert greedy_delta_coloring(small_star).num_colors() == 2


class TestForestBaseline:
    def test_rejects_non_forest(self, triangle):
        with pytest.raises(ParameterError):
            forest_orient_and_color(triangle)

    def test_forest_guarantees(self, small_forest):
        result = forest_orient_and_color(small_forest)
        assert result.max_outdegree <= 2
        assert result.num_colors <= 3
        assert result.coloring.is_proper()
        assert result.rounds >= 1

    def test_deep_tree_rounds_stay_small(self):
        graph = generators.complete_ary_tree(4, 16384)
        result = forest_orient_and_color(graph)
        local = barenboim_elkin_in_mpc(graph, arboricity=1)
        assert result.max_outdegree <= 2
        assert result.rounds <= local.rounds + 4

    def test_path_coloring(self):
        graph = generators.path(100)
        result = forest_orient_and_color(graph)
        assert result.num_colors <= 3
        assert result.coloring.is_proper()

"""Tests for the Barenboim–Elkin LOCAL peeling baseline."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.graph import generators
from repro.local.peeling import (
    barenboim_elkin_peeling,
    peeling_layers_reference,
    peeling_threshold,
)


class TestThreshold:
    def test_formula(self):
        assert peeling_threshold(1, 0.5) == 3
        assert peeling_threshold(4, 0.5) == 10
        assert peeling_threshold(0, 0.5) == 3  # clamped to λ=1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            peeling_threshold(-1)
        with pytest.raises(ParameterError):
            peeling_threshold(2, 0.0)


class TestPeeling:
    def test_forest_outdegree_bound(self, small_forest):
        result = barenboim_elkin_peeling(small_forest, arboricity=1)
        assert result.orientation.max_outdegree() <= result.threshold
        assert result.partition.max_out_degree() <= result.threshold

    def test_union_forest_outdegree_bound(self, union_forest_graph):
        result = barenboim_elkin_peeling(union_forest_graph, arboricity=3)
        assert result.orientation.max_outdegree() <= result.threshold == 8

    def test_matches_reference_layers(self, union_forest_graph):
        result = barenboim_elkin_peeling(union_forest_graph, arboricity=3)
        reference = peeling_layers_reference(union_forest_graph, result.threshold)
        assert result.partition.layer_of == reference.layer_of

    def test_deep_tree_takes_one_round_per_level(self):
        graph = generators.complete_ary_tree(4, 4**4 + 4**3 + 4**2 + 4 + 1)
        result = barenboim_elkin_peeling(graph, arboricity=1)
        # Peeling removes exactly one level per round: height + 1 levels.
        assert result.rounds >= 4

    def test_rounds_grow_with_depth(self):
        shallow = generators.complete_ary_tree(4, 256)
        deep = generators.complete_ary_tree(4, 16384)
        rounds_shallow = barenboim_elkin_peeling(shallow, arboricity=1).rounds
        rounds_deep = barenboim_elkin_peeling(deep, arboricity=1).rounds
        assert rounds_deep > rounds_shallow

    def test_survivors_dumped_when_threshold_too_small(self):
        clique = generators.complete_graph(8)
        result = barenboim_elkin_peeling(clique, arboricity=1, max_rounds=3)
        # Threshold 3 cannot peel K8; everyone still receives a layer.
        assert len(result.partition.layer_of) == clique.num_vertices
        assert result.partition.num_layers >= 2

    def test_empty_graph(self):
        empty = generators.path(0)
        result = barenboim_elkin_peeling(empty, arboricity=1)
        assert result.rounds == 0

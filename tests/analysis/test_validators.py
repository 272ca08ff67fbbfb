"""Tests for the claim validators."""

from __future__ import annotations

import math

import pytest

from repro.analysis.validators import (
    ValidationError,
    check_all,
    validate_coloring_quality,
    validate_global_memory,
    validate_hpartition_out_degree,
    validate_layer_decay,
    validate_local_memory,
    validate_orientation_quality,
    validate_partial_assignment,
    validate_round_complexity,
    validate_tree_budget,
    validate_tree_mappings,
)
from repro.core.layering import UNASSIGNED, PartialLayerAssignment
from repro.core.parameters import Parameters
from repro.core.tree_view import TreeView
from repro.errors import ParameterError
from repro.graph import generators
from repro.graph.coloring import Coloring
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation
from repro.mpc.metrics import RoundStats


class TestQualityValidators:
    def test_orientation_quality_pass_and_fail(self, small_star):
        good = Orientation.from_vertex_order(small_star, [2] + [1] * 8)
        assert validate_orientation_quality(good, 1, small_star.num_vertices).passed
        bad = Orientation(small_star, {(0, v): v for v in range(1, 9)})
        report = validate_orientation_quality(bad, 1, small_star.num_vertices, constant=2.0)
        assert not report.passed
        with pytest.raises(ValidationError):
            report.raise_if_failed()

    def test_coloring_quality_requires_properness(self, triangle):
        improper = Coloring(triangle, {0: 0, 1: 0, 2: 1})
        assert not validate_coloring_quality(improper, 2, 3).passed
        proper = Coloring(triangle, {0: 0, 1: 1, 2: 2})
        assert validate_coloring_quality(proper, 2, 3).passed

    def test_round_complexity(self):
        assert validate_round_complexity(5, 1_000_000).passed
        assert not validate_round_complexity(10_000, 1_000_000).passed

    def test_headroom(self):
        report = validate_round_complexity(0, 100)
        assert report.headroom == math.inf


class TestStructureValidators:
    def test_hpartition_out_degree(self, small_star):
        partition = HPartition(small_star, [2] + [1] * 8)
        assert validate_hpartition_out_degree(partition, 1).passed
        assert not validate_hpartition_out_degree(partition, 0).passed

    def test_layer_decay(self, small_path):
        good = HPartition(small_path, [1, 1, 1, 2, 3])
        assert validate_layer_decay(good, slack=1.5).passed
        bad = HPartition(small_path, [4] * small_path.num_vertices)
        assert not validate_layer_decay(bad, slack=1.0).passed

    def test_partial_assignment_validator(self, small_star):
        bad = PartialLayerAssignment(small_star, [1.0] + [2.0] * 8, num_layers=2, out_degree=2)
        assert not validate_partial_assignment(bad).passed
        good = PartialLayerAssignment(
            small_star, [2.0] + [1.0] * 8, num_layers=2, out_degree=2
        )
        assert validate_partial_assignment(good).passed

    def test_tree_validators(self, small_star):
        params = Parameters(k=2, budget=16, steps=2, num_layers=2)
        trees = {0: TreeView.star_of_neighbors(small_star, 0)}  # 9 nodes
        assert validate_tree_budget(trees, params).passed
        params_small = Parameters(k=2, budget=8, steps=2, num_layers=2)
        assert not validate_tree_budget(trees, params_small).passed
        assert validate_tree_mappings(small_star, trees).passed
        bad_tree = TreeView(vertex_of=[1, 2], parent=[-1, 0])  # leaf-leaf is not an edge
        assert not validate_tree_mappings(small_star, {1: bad_tree}).passed


class TestResourceValidators:
    def test_local_memory(self):
        stats = RoundStats()
        stats.observe_memory(100, 1000)
        assert validate_local_memory(stats, num_vertices=1024, budget=64, delta=0.5).passed
        stats.observe_memory(10**9, 10**9)
        assert not validate_local_memory(stats, num_vertices=1024, budget=64, delta=0.5).passed

    def test_local_memory_refuses_a_delta_whose_power_overflows(self):
        with pytest.raises(ParameterError, match=r"delta=.* is too large"):
            validate_local_memory(RoundStats(), num_vertices=10, budget=64, delta=400.0)

    def test_global_memory(self):
        stats = RoundStats()
        stats.observe_memory(10, 500)
        assert validate_global_memory(stats, num_vertices=100, num_edges=200, budget=16).passed
        stats.observe_memory(10, 10**9)
        assert not validate_global_memory(stats, num_vertices=100, num_edges=200, budget=16).passed

    def test_check_all_raises_on_failure(self):
        ok = validate_round_complexity(1, 100)
        bad = validate_round_complexity(10**6, 100)
        with pytest.raises(ValidationError):
            check_all([ok, bad])
        check_all([ok])

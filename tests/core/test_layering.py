"""Tests for partial layer assignments, Claim 2.3 and Lemma 2.4."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layering import (
    UNASSIGNED,
    PartialLayerAssignment,
    enumerate_strictly_increasing_paths,
    lemma_2_4_upper_bound,
    num_paths_in,
    num_paths_out,
)
from repro.errors import InvalidLayeringError
from repro.graph import generators
from repro.graph.graph import Graph
from tests.conftest import graphs


def random_assignment(graph, num_layers, out_degree, seed, assign_probability=0.8):
    """A random layer map (not necessarily respecting the out-degree bound)."""
    rng = random.Random(seed)
    layer_of = [
        rng.randint(1, num_layers) if rng.random() < assign_probability else UNASSIGNED
        for _ in graph.vertices
    ]
    return PartialLayerAssignment(
        graph=graph, layer_of=layer_of, num_layers=num_layers, out_degree=out_degree
    )


class TestConstructionAndQueries:
    def test_requires_entry_for_every_vertex(self, triangle):
        with pytest.raises(InvalidLayeringError):
            PartialLayerAssignment(triangle, [1, 2], num_layers=3, out_degree=2)

    def test_rejects_a_column_longer_than_the_vertex_set(self, triangle):
        # An entry for vertex 7 of a 3-vertex graph is malformed input.
        layer_of = [1.0, 2.0, UNASSIGNED] + [UNASSIGNED] * 4 + [1.0]
        with pytest.raises(InvalidLayeringError):
            PartialLayerAssignment(triangle, layer_of, num_layers=3, out_degree=2)

    def test_rejects_out_of_range_layers(self, triangle):
        with pytest.raises(InvalidLayeringError):
            PartialLayerAssignment(triangle, [1, 5, UNASSIGNED], num_layers=3, out_degree=2)

    @pytest.mark.parametrize("bad", [1.5, 0, -1, "1", math.nan])
    def test_rejects_non_integer_layers(self, triangle, bad):
        with pytest.raises(InvalidLayeringError):
            PartialLayerAssignment(triangle, [1, bad, UNASSIGNED], num_layers=3, out_degree=2)

    def test_basic_queries(self, small_path):
        assignment = PartialLayerAssignment(
            small_path,
            [1, 2, UNASSIGNED, 1, 2],
            num_layers=2,
            out_degree=2,
        )
        assert assignment.is_assigned(0)
        assert not assignment.is_assigned(2)
        assert assignment.assigned_vertices() == [0, 1, 3, 4]
        assert assignment.unassigned_vertices() == [2]
        assert assignment.fraction_assigned() == pytest.approx(0.8)
        assert assignment.observed_out_degree(0) == 1  # neighbor 1 at layer 2 >= 1

    def test_fully_unassigned(self, triangle):
        assignment = PartialLayerAssignment.fully_unassigned(triangle, 4, 2)
        assert assignment.assigned_vertices() == []
        assignment.validate()  # vacuously valid


class TestValidation:
    def test_validate_passes_for_peeling(self, union_forest_graph):
        assignment = PartialLayerAssignment.from_peeling(union_forest_graph, threshold=6)
        assignment.validate()
        assert assignment.max_observed_out_degree() <= 6

    def test_validate_detects_violation(self, small_star):
        # Center in layer 1, leaves all in layer 2: the center has 8 neighbors
        # in a higher layer, so out-degree 2 must fail.
        layer_of = [1.0] + [2.0] * (small_star.num_vertices - 1)
        assignment = PartialLayerAssignment(small_star, layer_of, num_layers=2, out_degree=2)
        with pytest.raises(InvalidLayeringError):
            assignment.validate()


class TestClaim23MinCombine:
    def test_min_is_taken_pointwise(self, small_path):
        a = PartialLayerAssignment(
            small_path, [2, 1, UNASSIGNED, 2, 1], num_layers=2, out_degree=2
        )
        b = PartialLayerAssignment(
            small_path, [1, 2, 2, UNASSIGNED, 1], num_layers=2, out_degree=2
        )
        combined = a.combine_min(b)
        assert combined.layer(0) == 1
        assert combined.layer(1) == 1
        assert combined.layer(2) == 2
        assert combined.layer(3) == 2
        assert combined.layer(4) == 1

    def test_rejects_mismatched_parameters(self, small_path):
        a = PartialLayerAssignment.fully_unassigned(small_path, 2, 2)
        b = PartialLayerAssignment.fully_unassigned(small_path, 3, 2)
        with pytest.raises(InvalidLayeringError):
            a.combine_min(b)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_vertices=14), st.integers(min_value=0, max_value=10**6))
    def test_claim_2_3_property(self, graph, seed):
        """Claim 2.3: the min of two *valid* partial assignments is valid."""
        threshold = max(2, graph.max_degree() // 2)
        rng = random.Random(seed)
        # Build two valid assignments from peelings of random vertex orders by
        # dropping a random subset of vertices to UNASSIGNED.
        def valid_assignment(salt: int) -> PartialLayerAssignment:
            base = PartialLayerAssignment.from_peeling(graph, threshold=graph.max_degree() or 1)
            layer_of = list(base.layer_of)
            local = random.Random(seed + salt)
            for v in graph.vertices:
                if local.random() < 0.3:
                    layer_of[v] = UNASSIGNED
            candidate = PartialLayerAssignment(
                graph, layer_of, num_layers=base.num_layers, out_degree=graph.max_degree() or 1
            )
            candidate.validate()
            return candidate

        a = valid_assignment(1)
        b = valid_assignment(2)
        combined = a.combine_min(b)
        combined.validate()
        del rng, threshold


class TestFromPeelingNumLayers:
    def test_num_layers_matches_deepest_layer(self):
        """Regression: path(6) at threshold 2 peels everything in one round,
        so the declared num_layers must be 1, not 2 (the seed reported the
        loop counter one past the deepest layer, inflating every L-derived
        round bound)."""
        graph = generators.path(6)
        assignment = PartialLayerAssignment.from_peeling(graph, threshold=2)
        assert all(assignment.layer(v) == 1 for v in graph.vertices)
        assert assignment.num_layers == 1

    def test_num_layers_on_deep_tree(self):
        graph = generators.complete_ary_tree(3, 40)
        assignment = PartialLayerAssignment.from_peeling(graph, threshold=3)
        deepest = max(
            assignment.layer(v) for v in graph.vertices if assignment.is_assigned(v)
        )
        assert assignment.num_layers == deepest

    def test_num_layers_at_least_one_when_nothing_assigned(self, triangle):
        # Threshold 0 peels nothing from a triangle; num_layers clamps to 1.
        assignment = PartialLayerAssignment.from_peeling(triangle, threshold=0)
        assert assignment.assigned_vertices() == []
        assert assignment.num_layers == 1

    def test_explicit_num_layers_is_respected(self):
        graph = generators.path(6)
        assignment = PartialLayerAssignment.from_peeling(graph, threshold=2, num_layers=5)
        assert assignment.num_layers == 5

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_vertices=16), st.integers(min_value=0, max_value=8))
    def test_num_layers_invariant_property(self, graph, threshold):
        """Whenever anything is assigned, num_layers equals the max assigned layer."""
        assignment = PartialLayerAssignment.from_peeling(graph, threshold=threshold)
        assigned = assignment.assigned_vertices()
        if assigned:
            assert assignment.num_layers == max(assignment.layer(v) for v in assigned)
        else:
            assert assignment.num_layers == 1


class TestPathCounts:
    def test_single_vertex_paths(self):
        g = Graph(1)
        assignment = PartialLayerAssignment(g, [1], num_layers=1, out_degree=1)
        assert num_paths_in(assignment) == {0: 1}
        assert num_paths_out(assignment) == {0: 1}

    def test_increasing_path_graph(self, small_path):
        assignment = PartialLayerAssignment(
            small_path, [v + 1 for v in small_path.vertices], num_layers=5, out_degree=1
        )
        counts_in = num_paths_in(assignment)
        # Vertex i is reached by exactly i+1 strictly increasing paths
        # (one from each starting point 0..i).
        assert counts_in == {v: v + 1 for v in small_path.vertices}
        counts_out = num_paths_out(assignment)
        assert counts_out == {v: 5 - v for v in small_path.vertices}

    def test_unassigned_vertices_have_zero_paths(self, small_path):
        assignment = PartialLayerAssignment(
            small_path,
            [1, 2, UNASSIGNED, 1, 2],
            num_layers=2,
            out_degree=2,
        )
        counts = num_paths_in(assignment)
        assert counts[2] == 0
        assert counts[0] == 1

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_vertices=12), st.integers(min_value=1, max_value=4), st.integers(0, 10**6))
    def test_dp_matches_enumeration(self, graph, num_layers, seed):
        """The DP path counts equal brute-force enumeration on small graphs."""
        rng = random.Random(seed)
        layer_of = [float(rng.randint(1, num_layers)) for _ in graph.vertices]
        assignment = PartialLayerAssignment(
            graph, layer_of, num_layers=num_layers, out_degree=graph.num_vertices
        )
        counts_out = num_paths_out(assignment)
        for v in graph.vertices:
            paths = enumerate_strictly_increasing_paths(assignment, v)
            assert counts_out[v] == len(paths)

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_vertices=12), st.integers(0, 10**6))
    def test_lemma_2_4_total_bound(self, graph, seed):
        """Lemma 2.4: Σ NumPathsIn = Σ NumPathsOut ≤ |V| · Σ_j d^j for complete assignments."""
        rng = random.Random(seed)
        # A complete assignment from peeling at threshold max degree is valid
        # with out-degree d = max degree (and d >= 2 per the lemma statement).
        d = max(graph.max_degree(), 2)
        layer_of = [float(rng.randint(1, 3)) for _ in graph.vertices]
        assignment = PartialLayerAssignment(graph, layer_of, num_layers=3, out_degree=d)
        total_in = sum(num_paths_in(assignment).values())
        total_out = sum(num_paths_out(assignment).values())
        assert total_in == total_out
        assert total_in <= lemma_2_4_upper_bound(assignment)

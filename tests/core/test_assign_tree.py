"""Tests for Algorithm 3 (PartialLayerAssignmentTree): Lemmas 3.8 and 3.10."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assign_tree import partial_layer_assignment_tree
from repro.core.exponentiate import exponentiate_and_local_prune
from repro.core.layering import PartialLayerAssignment, UNASSIGNED
from repro.core.parameters import Parameters
from repro.core.tree_view import TreeView
from repro.errors import ParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from tests.conftest import graphs


class TestBasics:
    def test_rejects_bad_parameters(self, small_star):
        view = TreeView.star_of_neighbors(small_star, 0)
        with pytest.raises(ParameterError):
            partial_layer_assignment_tree(small_star, view, out_degree_parameter=-1, num_layers=2)
        with pytest.raises(ParameterError):
            partial_layer_assignment_tree(small_star, view, out_degree_parameter=2, num_layers=0)

    def test_star_view_layers(self, small_star):
        view = TreeView.star_of_neighbors(small_star, 0)
        result = partial_layer_assignment_tree(small_star, view, out_degree_parameter=1, num_layers=3)
        # Leaves of the view have missing = {0} (their only neighbor) and no
        # children: 0 + 1 <= 1, so they land in layer 1.  The root has 8
        # children and no missing neighbors: once all children are assigned to
        # layer 1, it qualifies in the next iteration and lands in layer 2.
        for node in view.nodes():
            if node == view.root:
                assert result.layer(node) == 2
            else:
                assert result.layer(node) == 1

    def test_insufficient_layers_leave_infinity(self, small_star):
        view = TreeView.star_of_neighbors(small_star, 0)
        result = partial_layer_assignment_tree(small_star, view, out_degree_parameter=1, num_layers=1)
        # With a single layer the root never qualifies and stays at ∞.
        assert result.layer(view.root) == math.inf

    def test_generous_parameter_assigns_everything_layer_one(self, union_forest_graph):
        view = TreeView.star_of_neighbors(union_forest_graph, 0)
        a = union_forest_graph.max_degree() + 1
        result = partial_layer_assignment_tree(union_forest_graph, view, a, num_layers=2)
        assert all(result.layer(node) == 1 for node in view.nodes())

    def test_vertex_layers_takes_minimum_over_occurrences(self):
        # A path graph view where vertex 2 appears twice at different layers.
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        view = TreeView(vertex_of=[0, 1, 2, 2, 3], parent=[-1, 0, 1, 0, 3])
        result = partial_layer_assignment_tree(graph, view, out_degree_parameter=3, num_layers=3)
        layers = result.vertex_layers()
        occurrences = [result.layer(2), result.layer(3)]
        assert layers[2] == min(occurrences)


class TestLemma39RootBound:
    @settings(max_examples=10, deadline=None)
    @given(graphs(max_vertices=10, max_edge_fraction=0.35), st.integers(0, 10**6))
    def test_root_layer_at_most_reference_layer(self, graph, seed):
        """Lemma 3.9: for vertices with NumPathsIn ≤ √B, the root's tree layer ≤ ℓ_G(v)."""
        if graph.num_vertices == 0:
            return
        from repro.core.layering import num_paths_in

        d = max(2, graph.max_degree() // 2)
        reference = PartialLayerAssignment.from_peeling(graph, threshold=d)
        if reference.unassigned_vertices():
            d = max(2, graph.max_degree())
            reference = PartialLayerAssignment.from_peeling(graph, threshold=d)
        reference.validate()
        counts = num_paths_in(reference)
        k = d
        budget = min(max(64, max(counts.values()) ** 2 + 1), 4096)
        num_layers = max(reference.num_layers, 1)
        steps = max(int(math.ceil(math.log2(max(num_layers, 2)))) + 1, 2)
        params = Parameters(k=k, budget=budget, steps=steps, num_layers=num_layers)
        result = exponentiate_and_local_prune(graph, params)
        a = (steps + 1) * k
        sqrt_budget = params.sqrt_budget
        for v in graph.vertices:
            if counts[v] > sqrt_budget:
                continue  # the lemma's hypothesis does not cover this vertex
            tree = result.tree(v)
            tree_assignment = partial_layer_assignment_tree(graph, tree, a, num_layers)
            root_layer = tree_assignment.layer(tree.root)
            assert root_layer <= reference.layer(v), seed


class TestLemma310Projection:
    @settings(max_examples=15, deadline=None)
    @given(graphs(max_vertices=12), st.integers(min_value=1, max_value=6), st.integers(0, 10**6))
    def test_projected_out_degree_bounded_by_a(self, graph, a, seed):
        """Lemma 3.10: projecting tree layers to vertices keeps out-degree ≤ a."""
        if graph.num_vertices == 0:
            return
        rng = random.Random(seed)
        root = rng.randrange(graph.num_vertices)
        # A simple two-level valid view: the root's star, each leaf expanded once.
        view = TreeView.star_of_neighbors(graph, root)
        tree_assignment = partial_layer_assignment_tree(graph, view, a, num_layers=3)
        projected = tree_assignment.vertex_layers()
        layer_of = [projected.get(v, UNASSIGNED) for v in graph.vertices]
        assignment = PartialLayerAssignment(
            graph, layer_of, num_layers=3, out_degree=a
        )
        assignment.validate()

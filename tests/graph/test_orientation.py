"""Tests for the Orientation value object."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import InvalidOrientationError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.orientation import Orientation, validate_outdegree_bound
from tests.conftest import graphs


class TestConstruction:
    def test_must_cover_edge_set(self, triangle):
        with pytest.raises(InvalidOrientationError):
            Orientation(triangle, {(0, 1): 1})  # missing edges

    def test_rejects_foreign_head(self, triangle):
        with pytest.raises(InvalidOrientationError):
            Orientation(triangle, {(0, 1): 2, (0, 2): 2, (1, 2): 2})

    def test_basic_queries(self, triangle):
        orientation = Orientation(triangle, {(0, 1): 1, (0, 2): 0, (1, 2): 2})
        assert orientation.head(0, 1) == 1
        assert orientation.tail(0, 1) == 0
        assert orientation.is_oriented_from(2, 0)
        assert orientation.out_neighbors(0) == [1]
        assert orientation.in_neighbors(0) == [2]
        assert orientation.outdegree(1) == 1
        assert orientation.max_outdegree() == 1

    def test_iter_directed_edges_matches_heads(self, triangle):
        orientation = Orientation(triangle, {(0, 1): 1, (0, 2): 0, (1, 2): 2})
        directed = list(orientation.iter_directed_edges())
        assert directed == [(0, 1), (2, 0), (1, 2)]  # edge-column order
        for (u, v), (tail, head) in zip(triangle.edges, directed):
            assert {tail, head} == {u, v}
            assert orientation.head(u, v) == head


class TestFromVertexOrderAndLayering:
    def test_from_vertex_order_orients_upward(self, small_path):
        orientation = Orientation.from_vertex_order(small_path, list(small_path.vertices))
        assert all(orientation.is_oriented_from(i, i + 1) for i in range(4))
        assert orientation.max_outdegree() == 1

    def test_ties_break_toward_larger_id(self, triangle):
        orientation = Orientation.from_vertex_order(triangle, [0, 0, 0])
        assert orientation.is_oriented_from(0, 1)
        assert orientation.is_oriented_from(1, 2)
        assert orientation.is_oriented_from(0, 2)

    def test_from_layering_acyclic(self, union_forest_graph):
        # Orientations induced by any vertex ranking are acyclic.
        rank = [v % 7 for v in union_forest_graph.vertices]
        orientation = Orientation.from_vertex_order(union_forest_graph, rank)
        assert orientation.is_acyclic()

    def test_star_layering_gives_outdegree_one(self, small_star):
        layers = [2] + [1] * (small_star.num_vertices - 1)
        orientation = Orientation.from_vertex_order(small_star, layers)
        assert orientation.max_outdegree() == 1
        assert orientation.outdegree(0) == 0


class TestMergeAndValidation:
    def test_merge_of_edge_disjoint_parts(self):
        g1 = Graph(4, [(0, 1)])
        g2 = Graph(4, [(2, 3)])
        o1 = Orientation(g1, {(0, 1): 1})
        o2 = Orientation(g2, {(2, 3): 2})
        merged = o1.merge_with(o2)
        assert merged.graph.num_edges == 2
        assert merged.max_outdegree() == 1

    def test_merge_rejects_shared_edges(self):
        g = Graph(2, [(0, 1)])
        o1 = Orientation(g, {(0, 1): 1})
        o2 = Orientation(g, {(0, 1): 0})
        with pytest.raises(InvalidOrientationError):
            o1.merge_with(o2)

    def test_merge_rejects_different_vertex_sets(self):
        o1 = Orientation(Graph(2, [(0, 1)]), {(0, 1): 1})
        o2 = Orientation(Graph(3, [(1, 2)]), {(1, 2): 2})
        with pytest.raises(InvalidOrientationError):
            o1.merge_with(o2)

    def test_validate_outdegree_bound(self, small_star):
        # Orient everything away from the center: outdegree = number of leaves.
        direction = {(0, v): v for v in range(1, small_star.num_vertices)}
        orientation = Orientation(small_star, direction)
        validate_outdegree_bound(orientation, small_star.num_vertices - 1)
        with pytest.raises(InvalidOrientationError):
            validate_outdegree_bound(orientation, 2)


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=20))
def test_outdegree_sum_equals_edges(graph):
    orientation = Orientation.from_vertex_order(graph, list(graph.vertices))
    assert sum(orientation.outdegrees) == graph.num_edges


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=20))
def test_id_order_orientation_is_acyclic(graph):
    orientation = Orientation.from_vertex_order(graph, [0] * graph.num_vertices)
    assert orientation.is_acyclic()

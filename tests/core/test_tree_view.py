"""Tests for rooted tree views with valid mappings (Definitions 2.3–2.7)."""

from __future__ import annotations

import math

import pytest

from repro.core.tree_view import TreeView, TreeViewError
from repro.graph import generators
from repro.graph.graph import Graph


@pytest.fixture
def square() -> Graph:
    """A 4-cycle 0-1-2-3-0."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def two_level_view(square: Graph) -> TreeView:
    """A tree view of vertex 0 in the 4-cycle exploring both neighbors and their neighbors."""
    # nodes: 0->v0, 1->v1, 2->v3, 3->v2 (child of v1), 4->v2 (child of v3)
    return TreeView(vertex_of=[0, 1, 3, 2, 2], parent=[-1, 0, 0, 1, 2])


class TestConstruction:
    def test_single_node(self):
        view = TreeView.single_node(7)
        assert view.num_nodes == 1
        assert view.map(0) == 7
        assert view.is_leaf(0)

    def test_star_of_neighbors(self, small_star):
        view = TreeView.star_of_neighbors(small_star, 0)
        assert view.num_nodes == small_star.num_vertices
        assert sorted(view.child_vertices(0)) == list(range(1, small_star.num_vertices))
        assert view.is_valid_mapping(small_star)

    def test_rejects_inconsistent_arrays(self):
        with pytest.raises(TreeViewError):
            TreeView(vertex_of=[0, 1], parent=[-1])
        with pytest.raises(TreeViewError):
            TreeView(vertex_of=[], parent=[])
        with pytest.raises(TreeViewError):
            TreeView(vertex_of=[0, 1], parent=[0, -1])
        with pytest.raises(TreeViewError):
            TreeView(vertex_of=[0, 1], parent=[-1, 5])

    def test_depths_and_bfs(self, square):
        view = two_level_view(square)
        assert view.depths() == [0, 1, 1, 2, 2]
        assert view.depth(4) == 2
        assert view.bfs_order()[0] == 0
        assert view.subtree_sizes()[0] == 5
        assert view.path_to_root(3) == [3, 1, 0]

    def test_leaves_at_depth(self, square):
        view = two_level_view(square)
        assert sorted(view.leaves_at_depth(2)) == [3, 4]
        assert view.leaves_at_depth(1) == []


class TestValidMapping:
    def test_same_vertex_may_repeat_on_different_branches(self, square):
        view = two_level_view(square)
        assert view.is_valid_mapping(square)

    def test_non_edge_detected(self, square):
        bad = TreeView(vertex_of=[0, 2], parent=[-1, 0])  # 0-2 is not an edge
        assert not bad.is_valid_mapping(square)
        assert bad.mapping_violations(square)

    def test_duplicate_siblings_detected(self, square):
        bad = TreeView(vertex_of=[0, 1, 1], parent=[-1, 0, 0])
        assert not bad.is_valid_mapping(square)


class TestMissingNeighbors:
    def test_root_with_all_children_has_none(self, small_star):
        view = TreeView.star_of_neighbors(small_star, 0)
        assert view.missing_neighbors(small_star, 0) == set()
        # Leaves of the view have their own graph neighbors uncovered.
        assert view.missing_neighbors(small_star, 1) == {0}

    def test_partial_children(self, square):
        view = TreeView(vertex_of=[0, 1], parent=[-1, 0])
        assert view.missing_neighbors(square, 0) == {3}
        assert view.missing_count(square, 1) == 2  # neighbors 0 and 2 uncovered


class TestStrictMonotonicReachability:
    def test_increasing_layers(self, square):
        view = two_level_view(square)
        layer_of = [3.0, 2.0, 1.0, 2.0]
        # node 3 maps to v2 (layer 1) with path v2 < v1 < v0 => increasing toward root.
        assert view.is_strictly_monotonically_reachable(3, layer_of)
        # node 1 maps to v1 (layer 2) < root layer 3.
        assert view.is_strictly_monotonically_reachable(1, layer_of)
        # The root is always reachable (single-element path).
        assert view.is_strictly_monotonically_reachable(0, layer_of)

    def test_non_increasing_rejected(self, square):
        view = two_level_view(square)
        layer_of = [1.0, 2.0, 1.0, 2.0]
        assert not view.is_strictly_monotonically_reachable(1, layer_of)

    def test_infinite_layers(self, square):
        view = two_level_view(square)
        layer_of = [math.inf, 2.0, 1.0, 2.0]
        # A finite layer below the root's ∞ still counts as strictly smaller.
        assert view.is_strictly_monotonically_reachable(1, layer_of)
        layer_of = [2.0, math.inf, 1.0, 2.0]
        assert not view.is_strictly_monotonically_reachable(1, layer_of)

    def test_bulk_matches_single(self, square):
        view = two_level_view(square)
        layer_of = [3.0, 2.0, 1.0, 1.0]
        bulk = set(view.strictly_monotonically_reachable_nodes(layer_of))
        singles = {
            node
            for node in view.nodes()
            if view.is_strictly_monotonically_reachable(node, layer_of)
        }
        assert bulk == singles


class TestRestrictAndAttach:
    def test_restricted_to_subset(self, square):
        view = two_level_view(square)
        pruned = view.restricted_to([0, 1, 3])
        assert pruned.num_nodes == 3
        assert pruned.map(0) == 0
        assert pruned.is_valid_mapping(square)

    def test_restriction_must_keep_root_and_parents(self, square):
        view = two_level_view(square)
        with pytest.raises(TreeViewError):
            view.restricted_to([1, 3])
        with pytest.raises(TreeViewError):
            view.restricted_to([0, 3])

    def test_attach_replaces_leaf(self, square):
        base = TreeView(vertex_of=[0, 1], parent=[-1, 0])
        subtree = TreeView(vertex_of=[1, 2, 0], parent=[-1, 0, 0])
        attached = base.attach({1: subtree})
        assert attached.num_nodes == 4
        assert attached.is_valid_mapping(square)
        # The leaf's replacement root keeps mapping to vertex 1.
        assert attached.map(1) == 1
        assert sorted(attached.child_vertices(1)) == [0, 2]

    def test_attach_requires_leaf(self, square):
        view = two_level_view(square)
        subtree = TreeView.single_node(1)
        with pytest.raises(TreeViewError):
            view.attach({1: subtree})  # node 1 has a child

    def test_attach_requires_matching_root_vertex(self, square):
        base = TreeView(vertex_of=[0, 1], parent=[-1, 0])
        subtree = TreeView.single_node(2)
        with pytest.raises(TreeViewError):
            base.attach({1: subtree})

    def test_copy_is_independent(self, square):
        view = two_level_view(square)
        clone = view.copy()
        clone.vertex_of[0] = 99
        assert view.vertex_of[0] == 0

    def test_word_size(self, square):
        view = two_level_view(square)
        assert view.word_size() == 2 * view.num_nodes

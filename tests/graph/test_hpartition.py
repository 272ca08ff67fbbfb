"""Tests for the HPartition value object."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.errors import InvalidLayeringError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.local.peeling import peeling_layers_reference


class TestConstruction:
    def test_requires_all_vertices(self, triangle):
        with pytest.raises(InvalidLayeringError):
            HPartition(triangle, [1, 1])

    def test_rejects_a_column_longer_than_the_vertex_set(self, small_path):
        # A layer for vertex 99 of a 5-vertex graph is malformed input.
        with pytest.raises(InvalidLayeringError):
            HPartition(small_path, [1] * 100)
        with pytest.raises(InvalidLayeringError):
            HPartition.from_layers(small_path, [[0, 1, 2, 3, 4, 99]])

    def test_rejects_non_positive_layers(self, triangle):
        with pytest.raises(InvalidLayeringError):
            HPartition(triangle, [0, 1, 1])

    @pytest.mark.parametrize("bad", [1.5, 2.0, "1", None])
    def test_rejects_non_integer_layers(self, triangle, bad):
        with pytest.raises(InvalidLayeringError):
            HPartition(triangle, [1, bad, 1])

    def test_layers_and_sizes(self, small_path):
        partition = HPartition(small_path, [1, 1, 2, 2, 3])
        assert partition.num_layers == 3
        assert partition.layer(1) == (0, 1)
        assert partition.layer(3) == (4,)
        assert partition.layer_sizes() == [2, 2, 1]
        assert partition.suffix_sizes() == [5, 3, 1]

    @pytest.mark.parametrize("index", [0, -1, 4])
    def test_layer_index_outside_range_raises(self, small_path, index):
        # Regression: layer(0) and layer(-1) used to wrap around to the
        # deepest layers through negative indexing.
        partition = HPartition(small_path, [1, 1, 2, 2, 3])
        with pytest.raises(InvalidLayeringError):
            partition.layer(index)

    def test_from_layers_round_trip(self, small_path):
        partition = HPartition.from_layers(small_path, [[0, 1], [2, 3], [4]])
        assert partition.layer_of[4] == 3

    def test_from_layers_rejects_duplicates(self, small_path):
        with pytest.raises(InvalidLayeringError):
            HPartition.from_layers(small_path, [[0, 1], [1, 2, 3, 4]])


class TestOutDegreeAndDecay:
    def test_out_degree_of_star_center(self, small_star):
        leaves = small_star.num_vertices - 1
        partition = HPartition(small_star, [1] + [2] * leaves)
        assert partition.out_degree_of(0) == small_star.num_vertices - 1
        # Reversing the layers puts the center above the leaves.
        partition = HPartition(small_star, [2] + [1] * leaves)
        assert partition.out_degree_of(0) == 0
        assert partition.max_out_degree() == 1

    def test_validate_out_degree(self, triangle):
        partition = HPartition(triangle, [1, 1, 1])
        partition.validate_out_degree(2)
        with pytest.raises(InvalidLayeringError):
            partition.validate_out_degree(1)

    def test_validate_out_degree_names_the_offenders(self):
        # K4 with layers 1, 1, 2, 2: vertices 0 and 1 see all three others.
        partition = HPartition(generators.complete_graph(4), [1, 1, 2, 2])
        message = "H-partition out-degree 3 exceeds bound 1 (2 offenders, e.g. [0, 1])"
        with pytest.raises(InvalidLayeringError, match=re.escape(message)):
            partition.validate_out_degree(1)

    def test_out_csr_is_built_once(self, small_path):
        partition = HPartition(small_path, [1, 2, 3, 3, 1])
        assert partition.out_csr() is partition.out_csr()
        indptr, indices = partition.out_csr()
        assert list(indptr) == [0, 1, 2, 3, 4, 5]
        assert list(indices) == [1, 2, 3, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_column_out_degree_matches_the_neighbor_scan(self, data):
        n = data.draw(st.integers(min_value=1, max_value=25))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        drawn = data.draw(st.lists(pairs, max_size=70))
        edges = {(min(u, v), max(u, v)) for u, v in drawn if u != v}
        graph = Graph(n, sorted(edges))
        layers = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        partition = HPartition(graph, layers)
        per_vertex = [partition.out_degree_of(v) for v in graph.vertices]
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                fresh = HPartition(graph, partition.layer_of)
                assert list(fresh.out_degrees()) == per_vertex
                assert fresh.max_out_degree() == max(per_vertex)

    def test_validate_decay(self, small_path):
        partition = HPartition(small_path, [1, 1, 1, 2, 3])
        partition.validate_decay(ratio=0.5, slack=1.2)
        bad = HPartition(small_path, [3] * small_path.num_vertices)
        with pytest.raises(InvalidLayeringError):
            bad.validate_decay(ratio=0.5, slack=1.0)

    def test_peeling_partition_satisfies_out_degree(self, union_forest_graph):
        partition = peeling_layers_reference(union_forest_graph, threshold=6)
        partition.validate_out_degree(6)

    def test_to_orientation_respects_layers(self, union_forest_graph):
        partition = peeling_layers_reference(union_forest_graph, threshold=6)
        orientation = partition.to_orientation()
        assert orientation.max_outdegree() <= 6
        assert orientation.is_acyclic()


class TestEdgeCases:
    def test_single_vertex(self):
        g = Graph(1)
        partition = HPartition(g, [1])
        assert partition.max_out_degree() == 0
        assert partition.suffix_sizes() == [1]

    def test_forest_peeling_has_small_outdegree(self, small_forest):
        partition = peeling_layers_reference(small_forest, threshold=2)
        assert partition.max_out_degree() <= 2

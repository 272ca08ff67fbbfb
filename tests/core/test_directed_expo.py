"""Tests for the Lemma 4.1 directed exponentiation helper."""

from __future__ import annotations

from repro.core.directed_expo import directed_reachability, out_neighbors_by_layer
from repro.graph import generators
from repro.graph.graph import Graph
from repro.local.peeling import peeling_layers_reference
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig


class TestOutNeighborsByLayer:
    def test_cross_layer_edges_point_up(self, small_path):
        layer_of = [1, 2, 3, 3, 1]
        out = out_neighbors_by_layer(small_path, layer_of)
        assert out[0] == [1]          # 1 is in a higher layer
        assert out[1] == [2]
        assert 2 in out[3] and 3 in out[2]  # same layer: bidirectional
        assert out[4] == [3]          # 3 is higher, so the edge points 4 -> 3
        assert 4 not in out[3]


class TestDirectedReachability:
    def test_distance_limits(self, small_path):
        layer_of = [v + 1 for v in small_path.vertices]
        result = directed_reachability(small_path, layer_of, [0], max_distance=2)
        assert result.reachable[0] == {0, 1, 2}
        result = directed_reachability(small_path, layer_of, [0], max_distance=10)
        assert result.reachable[0] == set(small_path.vertices)

    def test_only_directed_paths_count(self, small_path):
        layer_of = [2, 1, 1, 1, 2]
        # Vertex 1 can reach 0 (higher layer) and 2 (same layer), then 3, 4.
        result = directed_reachability(small_path, layer_of, [1], max_distance=5)
        assert result.reachable[1] == {0, 1, 2, 3, 4}
        # Vertex 0 is a sink (its only neighbor is lower): reaches only itself.
        result = directed_reachability(small_path, layer_of, [0], max_distance=5)
        assert result.reachable[0] == {0}

    def test_set_size_limit_truncates(self):
        graph = generators.complete_graph(30)
        layer_of = [1] * graph.num_vertices
        result = directed_reachability(graph, layer_of, [0], max_distance=3, set_size_limit=5)
        assert result.max_set_size >= 5

    def test_cluster_rounds_charged(self, union_forest_graph):
        partition = peeling_layers_reference(union_forest_graph, threshold=6)
        cluster = MPCCluster(MPCConfig.for_graph(union_forest_graph))
        starts = list(union_forest_graph.vertices)[:10]
        result = directed_reachability(
            union_forest_graph, partition.layer_of, starts, max_distance=8, cluster=cluster
        )
        assert result.rounds_charged >= 4
        assert cluster.stats.num_rounds >= 4

    def test_rounds_charged_include_the_split_delivery(self):
        # One layer makes every edge bidirectional: the gather's delivery
        # exceeds S and is split, and rounds_charged must count the split.
        graph = generators.union_of_random_forests(400, arboricity=6, seed=1)
        cluster = MPCCluster(MPCConfig.for_graph(graph))
        result = directed_reachability(
            graph, [0] * graph.num_vertices, graph.vertices, max_distance=8, cluster=cluster
        )
        assert cluster.stats.rounds_by_label["directed-expo:gather:deliver:oversized-split"] > 0
        assert result.rounds_charged == cluster.stats.num_rounds == 12

    def test_duplicate_starts_gather_once(self, union_forest_graph):
        partition = peeling_layers_reference(union_forest_graph, threshold=6)
        words = []
        for starts in ([0, 1], [0, 1, 0, 1]):
            cluster = MPCCluster(MPCConfig.for_graph(union_forest_graph))
            directed_reachability(
                union_forest_graph, partition.layer_of, starts, max_distance=3, cluster=cluster
            )
            words.append(cluster.stats.total_words_sent)
        assert words[0] == words[1] > 0

    def test_reachability_respects_hpartition_orientation(self, union_forest_graph):
        partition = peeling_layers_reference(union_forest_graph, threshold=6)
        layer_of = partition.layer_of
        result = directed_reachability(union_forest_graph, layer_of, [0], max_distance=3)
        # Every reached vertex (other than the start) must be reachable along
        # edges that never decrease the layer except inside a layer.
        for w in result.reachable[0]:
            assert w == 0 or layer_of[w] >= 1

    def test_empty_start_set(self):
        graph = Graph(3, [(0, 1)])
        result = directed_reachability(graph, [1, 1, 1], [], max_distance=2)
        assert result.reachable == {}
        assert result.max_set_size == 0

"""Tests for the Lemma 4.1 directed exponentiation helper."""

from __future__ import annotations

import random
from array import array
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.directed_expo import directed_reachability
from repro.errors import GraphError, ParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.local.peeling import peeling_layers_reference
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.mpc.primitives import GATHER_ROUNDS


def _reference_reachability(
    graph, layer_of, start_vertices, max_distance, cluster, set_size_limit
):
    """The dict-of-lists BFS that ``directed_reachability`` replaced.

    Returns ``(reachable, max_set_size, rounds_charged)`` and charges
    ``cluster`` exactly as the old code did: the gather's delivery lists
    every (owner, requester) pair as a one-word message.
    """
    out = {v: [] for v in graph.vertices}
    for (u, v) in graph.edges:
        if layer_of[u] == layer_of[v]:
            out[u].append(v)
            out[v].append(u)
        elif layer_of[u] < layer_of[v]:
            out[u].append(v)
        else:
            out[v].append(u)
    reachable = {}
    max_size = 0
    for start in list(start_vertices):
        seen = {start}
        frontier = [start]
        distance = 0
        while frontier and distance < max_distance:
            next_frontier = []
            for u in frontier:
                for w in out[u]:
                    if w not in seen:
                        seen.add(w)
                        next_frontier.append(w)
                        if set_size_limit is not None and len(seen) > set_size_limit:
                            break
                if set_size_limit is not None and len(seen) > set_size_limit:
                    break
            frontier = next_frontier
            distance += 1
            if set_size_limit is not None and len(seen) > set_size_limit:
                break
        reachable[start] = seen
        max_size = max(max_size, len(seen))
    rounds = 0
    if cluster is not None:
        doubling_rounds = max(max_distance.bit_length(), 1)
        cluster.charge_rounds(doubling_rounds, label="directed-expo:doubling")
        owners = array("l")
        requesters = array("l")
        for start, seen in reachable.items():
            owners.extend(seen)
            requesters.extend(array("l", [start]) * len(seen))
        cluster.charge_rounds(GATHER_ROUNDS, label="directed-expo:gather:plumbing")
        rounds = doubling_rounds + GATHER_ROUNDS + cluster.communication_round(
            owners, requesters, 1, label="directed-expo:gather:deliver"
        )
    return reachable, max_size, rounds


def _counts(reachable, num_vertices):
    """``(starts, sizes, hits)`` of a ``{start: set}`` map, as plain lists."""
    hits = [0] * num_vertices
    for seen in reachable.values():
        for v in seen:
            hits[v] += 1
    return list(reachable), [len(seen) for seen in reachable.values()], hits


def _result_counts(result):
    return list(result.starts), list(result.sizes), list(result.hits)


def _block_cells(cells):
    """Shrink the numpy body's block size (a no-op without numpy)."""
    stack = ExitStack()
    if kernels.numpy_available():
        from repro.kernels import numpy_backend

        stack.enter_context(mock.patch.object(numpy_backend, "_REACH_BLOCK_CELLS", cells))
    return stack


@st.composite
def _layered_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(min(u, v), max(u, v)) for u, v in draw(st.lists(pairs, max_size=60)) if u != v}
    layers = draw(st.integers(min_value=1, max_value=4))
    layer_of = draw(st.lists(st.integers(1, layers), min_size=n, max_size=n))
    starts = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return Graph(n, sorted(edges)), layer_of, starts


# A diamond in one layer: 0 reaches 3 from both 1 and 2 at distance 2.
_DIAMOND = (Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), [1, 1, 1, 1], [0, 0, 3])
# Isolated vertices 3 and 4 next to a three-layer path 0 - 1 - 2.
_ISOLATED = (Graph(5, [(0, 1), (1, 2)]), [1, 2, 3, 1, 2], [3, 0, 4, 2])
# A star in one layer: a limit of 3 fills the center's budget inside its
# first row, and each leaf's inside its second level.
_STAR = (Graph(7, [(0, v) for v in range(1, 7)]), [1] * 7, [0, 3, 0])
# Two fans in one layer, 0 over 2..8 and 9 over 10..15, joined by 1: from 1
# a limit of 5 fills the budget partway through 0's row.
_TWO_FANS = (
    Graph(
        16,
        [(0, 1), (1, 9)] + [(0, v) for v in range(2, 9)] + [(9, v) for v in range(10, 16)],
    ),
    [1] * 16,
    [1, 9, 0, 15],
)


class TestDirectedReachability:
    def test_distance_limits(self, small_path):
        layer_of = [v + 1 for v in small_path.vertices]
        result = directed_reachability(small_path, layer_of, [0], max_distance=2)
        assert _result_counts(result) == ([0], [3], [1, 1, 1, 0, 0])
        result = directed_reachability(small_path, layer_of, [0], max_distance=10)
        assert _result_counts(result) == ([0], [5], [1, 1, 1, 1, 1])

    def test_only_directed_paths_count(self, small_path):
        layer_of = [2, 1, 1, 1, 2]
        # Vertex 1 can reach 0 (higher layer) and 2 (same layer), then 3, 4.
        result = directed_reachability(small_path, layer_of, [1], max_distance=5)
        assert _result_counts(result) == ([1], [5], [1, 1, 1, 1, 1])
        # Vertex 0 is a sink (its only neighbor is lower): reaches only itself.
        result = directed_reachability(small_path, layer_of, [0], max_distance=5)
        assert _result_counts(result) == ([0], [1], [1, 0, 0, 0, 0])

    def test_set_size_limit_truncates(self):
        graph = generators.complete_graph(30)
        layer_of = [1] * graph.num_vertices
        result = directed_reachability(graph, layer_of, [0], max_distance=3, set_size_limit=5)
        assert result.max_set_size == 6
        assert list(result.sizes) == [6]
        assert list(result.hits) == [1] * 6 + [0] * 24

    def test_counts_follow_the_first_given_start_order(self, small_path):
        layer_of = [1, 1, 1, 1, 1]
        result = directed_reachability(small_path, layer_of, [2, 0, 2], max_distance=2)
        # Start 2 reaches 0..4, start 0 reaches 0..2; the repeat of 2 is
        # walked once.
        assert _result_counts(result) == ([2, 0], [5, 3], [2, 2, 2, 1, 1])
        assert result.max_set_size == 5
        assert all(
            isinstance(column, array) and column.typecode == "l"
            for column in (result.starts, result.sizes, result.hits)
        )

    def test_cluster_rounds_charged(self, union_forest_graph):
        partition = peeling_layers_reference(union_forest_graph, threshold=6)
        cluster = MPCCluster(MPCConfig.for_graph(union_forest_graph))
        starts = list(union_forest_graph.vertices)[:10]
        result = directed_reachability(
            union_forest_graph, partition.layer_of, starts, max_distance=8, cluster=cluster
        )
        assert result.rounds_charged >= 4
        assert cluster.stats.num_rounds >= 4

    def test_gather_moves_one_word_per_set_member(self, union_forest_graph):
        partition = peeling_layers_reference(union_forest_graph, threshold=6)
        cluster = MPCCluster(MPCConfig.for_graph(union_forest_graph))
        result = directed_reachability(
            union_forest_graph, partition.layer_of, range(40), max_distance=3, cluster=cluster
        )
        assert cluster.stats.total_words_sent == sum(result.sizes) == sum(result.hits)

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
        # Every step goes to the same or a higher layer, so nothing reached
        # lies below the start's layer.
        for w, hit in enumerate(result.hits):
            assert not hit or layer_of[w] >= layer_of[0]

    def test_empty_start_set(self):
        graph = Graph(3, [(0, 1)])
        result = directed_reachability(graph, [1, 1, 1], [], max_distance=2)
        assert _result_counts(result) == ([], [], [0, 0, 0])
        assert result.max_set_size == 0

    def test_a_given_out_csr_is_used(self, union_forest_graph):
        partition = peeling_layers_reference(union_forest_graph, threshold=6)
        starts = list(range(0, 128, 7))
        given_csr = directed_reachability(
            union_forest_graph,
            partition.layer_of,
            starts,
            max_distance=3,
            out_csr=partition.out_csr(),
        )
        built = directed_reachability(
            union_forest_graph, partition.layer_of, starts, max_distance=3
        )
        assert _result_counts(given_csr) == _result_counts(built)


class TestInputValidation:
    """Inputs the old dict BFS mishandled (a bare ``KeyError``, or a set
    larger than the limit) are refused up front."""

    @pytest.fixture
    def graph(self):
        return Graph(4, [(0, 1), (1, 2), (2, 3)])

    @pytest.mark.parametrize("start", [7, 4, -1])
    def test_start_outside_the_graph_raises(self, graph, start):
        with pytest.raises(GraphError, match=f"start vertex {start} is outside 0..3"):
            directed_reachability(graph, [1, 1, 1, 1], [0, start], max_distance=2)

    @pytest.mark.parametrize("length", [3, 5])
    def test_layer_column_of_the_wrong_length_raises(self, graph, length):
        with pytest.raises(GraphError, match=f"layer column has {length} entries for 4 vertices"):
            directed_reachability(graph, [1] * length, [0], max_distance=2)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_set_size_limit_below_one_raises(self, graph, limit):
        with pytest.raises(ParameterError, match="set_size_limit must be at least 1"):
            directed_reachability(graph, [1, 1, 1, 1], [0], max_distance=2, set_size_limit=limit)

    def test_negative_max_distance_raises(self, graph):
        with pytest.raises(ParameterError, match="max_distance must be at least 0"):
            directed_reachability(graph, [1, 1, 1, 1], [0], max_distance=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_distance": True}, {"max_distance": 2, "set_size_limit": True}],
    )
    def test_bools_are_refused(self, graph, kwargs):
        with pytest.raises(ParameterError, match="must be an integer, not a bool"):
            directed_reachability(graph, [1, 1, 1, 1], [0], **kwargs)

    def test_limit_one_keeps_the_start_and_one_more(self, graph):
        result = directed_reachability(graph, [1, 1, 1, 1], [1], max_distance=2, set_size_limit=1)
        assert _result_counts(result) == ([1], [2], [1, 1, 0, 0])
        assert result.max_set_size == 2


class TestMatchesTheDictBfs:
    """Every backend equals the replaced dict-of-lists BFS: set sizes, the
    number of sets holding each vertex, rounds and the whole ledger."""

    @staticmethod
    def _check(graph, layer_of, starts, max_distance, set_size_limit, cells=1 << 18, **config):
        config = MPCConfig.for_graph(graph, **config)
        reference_cluster = MPCCluster(config)
        reference = _reference_reachability(
            graph, layer_of, starts, max_distance, reference_cluster, set_size_limit
        )
        expected = _counts(reference[0], graph.num_vertices)
        for backend in kernels.available_backends():
            cluster = MPCCluster(config)
            with kernels.use_backend(backend), _block_cells(cells):
                result = directed_reachability(
                    graph,
                    layer_of,
                    starts,
                    max_distance=max_distance,
                    cluster=cluster,
                    set_size_limit=set_size_limit,
                )
            assert _result_counts(result) == expected, backend
            assert result.max_set_size == reference[1], backend
            assert result.rounds_charged == reference[2], backend
            assert cluster.ledger_state() == reference_cluster.ledger_state(), backend
            assert cluster.stats == reference_cluster.stats, backend

    @settings(max_examples=150, deadline=None)
    @given(
        _layered_graphs(),
        st.integers(min_value=0, max_value=5),
        st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
        st.sampled_from([1, 3, 1 << 18]),
    )
    @example(_DIAMOND, 2, None, 1 << 18)
    @example(_DIAMOND, 2, 2, 1)
    @example(_ISOLATED, 3, 1, 3)
    @example(_ISOLATED, 0, None, 1 << 18)
    @example((Graph(3, [(0, 1)]), [1, 1, 1], []), 2, 1, 1 << 18)
    @example(_STAR, 1, 3, 1 << 18)
    @example(_STAR, 2, 3, 1)
    @example(_TWO_FANS, 2, 5, 1 << 18)
    @example(_TWO_FANS, 3, 5, 3)
    def test_random_layered_graphs(self, case, max_distance, set_size_limit, cells):
        graph, layer_of, starts = case
        self._check(graph, layer_of, starts, max_distance, set_size_limit, cells)

    def test_same_level_duplicate_is_counted_once(self):
        # 0 reaches 3 twice at distance 2 (through 1 and through 2): it is
        # one vertex of the set, and a limit that leaves room for exactly one
        # more vertex after 3 keeps 4, which is reached after the repeat.
        graph = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)])
        layer_of = [1] * 5
        result = directed_reachability(graph, layer_of, [0], max_distance=2)
        assert _result_counts(result) == ([0], [5], [1, 1, 1, 1, 1])
        result = directed_reachability(graph, layer_of, [0], max_distance=2, set_size_limit=4)
        assert _result_counts(result) == ([0], [5], [1, 1, 1, 1, 1])
        result = directed_reachability(graph, layer_of, [0], max_distance=2, set_size_limit=3)
        assert _result_counts(result) == ([0], [4], [1, 1, 1, 1, 0])
        self._check(graph, layer_of, [0], 2, 3)
        self._check(graph, layer_of, [0], 2, 4, cells=1)

    def test_a_budget_filled_inside_a_row_keeps_its_first_vertices(self):
        # Start 1's second level is 0's row then 9's; with room for three
        # more vertices it keeps the first three of 0's row only.
        graph, layer_of, _starts = _TWO_FANS
        result = directed_reachability(graph, layer_of, [1], max_distance=3, set_size_limit=5)
        assert list(result.sizes) == [6]
        assert [v for v, hit in enumerate(result.hits) if hit] == [0, 1, 2, 3, 4, 9]
        self._check(graph, layer_of, [1, 0, 9], 3, 5)

    def test_more_starts_than_one_block(self):
        # 2**18 // 600 = 436 starts per block, so 600 starts take two blocks.
        graph = generators.union_of_random_forests(600, arboricity=4, seed=3)
        partition = peeling_layers_reference(graph, threshold=8)
        self._check(graph, partition.layer_of, list(graph.vertices), 4, 40)
        self._check(graph, partition.layer_of, list(graph.vertices), 3, None)
        # 200 shuffled starts on 49 machines, so several starts share a
        # machine: the received side must be keyed by the starts themselves.
        starts = random.Random(5).sample(range(600), 200)
        self._check(graph, partition.layer_of, starts, 2, None, memory_constant=200.0)
        self._check(graph, partition.layer_of, starts, 3, 25, memory_constant=200.0)

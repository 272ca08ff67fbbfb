"""Unit and property tests for repro.graph.graph."""

from __future__ import annotations

import pickle
import re
from array import array
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.graph import Graph, InducedSubgraph, normalize_edge
from tests.conftest import graphs


class TestNormalizeEdge:
    def test_orders_endpoints(self):
        assert normalize_edge(5, 2) == (2, 5)
        assert normalize_edge(2, 5) == (2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            normalize_edge(3, 3)


class TestGraphConstruction:
    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.max_degree() == 0

    def test_basic_adjacency(self, triangle):
        assert triangle.num_edges == 3
        assert triangle.neighbors(0) == (1, 2)
        assert triangle.degree(1) == 2
        assert triangle.has_edge(0, 2)
        assert not triangle.has_edge(0, 0)

    def test_rejects_duplicate_edges(self):
        with pytest.raises(GraphError, match=re.escape("duplicate edge (0, 1)")):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_vertices(self):
        with pytest.raises(
            GraphError, match=re.escape("edge (0, 3) references a vertex outside 0..2")
        ):
            Graph(3, [(0, 3)])

    def test_rejects_self_loops(self):
        with pytest.raises(GraphError, match=re.escape("self loop (1, 1) is not allowed")):
            Graph(3, [(1, 1)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_from_edges_infers_size(self):
        g = Graph.from_edges([(0, 4), (2, 3)])
        assert g.num_vertices == 5
        assert g.num_edges == 2

    def test_equality_and_hash(self):
        g1 = Graph(3, [(0, 1), (1, 2)])
        g2 = Graph(3, [(1, 2), (0, 1)])
        g3 = Graph(3, [(0, 1)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != g3

    def test_contains_and_iteration(self, triangle):
        assert (0, 1) in triangle
        assert (1, 0) in triangle  # membership is orientation-agnostic
        assert (1, 1) not in triangle
        assert (0, 7) not in triangle
        assert list(iter(triangle)) == [0, 1, 2]
        assert len(triangle) == 3


@pytest.mark.usefixtures("kernel_backend")
class TestConstructorContract:
    """Exact messages and the first offender in input order, on every backend.

    Within one edge the checks run range, then self loop, then duplicate;
    across edges the earliest offending edge wins whatever its offence.
    """

    @staticmethod
    def raises(message, num_vertices, edges):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            Graph(num_vertices, edges)

    @pytest.mark.parametrize(
        "num_vertices, edges, message",
        [
            (3, [(-1, 2)], "edge (-1, 2) references a vertex outside 0..2"),
            (3, [(0, 1), (0, 1)], "duplicate edge (0, 1)"),
            (3, [(2, 0), (0, 2)], "duplicate edge (0, 2)"),
            (0, [(0, 0)], "edge (0, 0) references a vertex outside 0..-1"),
        ],
    )
    def test_exact_messages(self, num_vertices, edges, message):
        self.raises(message, num_vertices, edges)

    def test_range_is_checked_before_self_loop(self):
        self.raises("edge (5, 5) references a vertex outside 0..2", 3, [(5, 5)])

    def test_earlier_self_loop_beats_later_range_error(self):
        self.raises("self loop (1, 1) is not allowed", 3, [(0, 1), (1, 1), (0, 9)])

    def test_earlier_range_error_beats_later_self_loop(self):
        self.raises("edge (0, 9) references a vertex outside 0..2", 3, [(0, 9), (1, 1)])

    def test_earlier_self_loop_beats_later_duplicate(self):
        self.raises("self loop (2, 2) is not allowed", 3, [(0, 1), (2, 2), (1, 0)])

    def test_earlier_reversed_duplicate_beats_later_range_error(self):
        self.raises("duplicate edge (0, 1)", 3, [(0, 1), (1, 0), (5, 5)])

    def test_first_duplicate_in_input_order_is_reported(self):
        self.raises("duplicate edge (1, 2)", 4, [(1, 2), (0, 3), (2, 1), (3, 0)])

    def test_ids_above_int64_are_range_errors(self):
        self.raises(
            f"edge (0, {2**64}) references a vertex outside 0..2", 3, [(0, 2**64)]
        )

    def test_wrong_arity_raises_instead_of_realigning(self):
        with pytest.raises(ValueError, match="too many values to unpack"):
            Graph(3, [(0, 1, 2), (3,)])
        with pytest.raises(ValueError, match="not enough values to unpack"):
            Graph(3, [(0, 1), (2,)])

    def test_unconvertible_ids_raise_int_errors(self):
        with pytest.raises(TypeError):
            Graph(3, [(0, None)])
        with pytest.raises(ValueError, match="cannot convert float NaN"):
            Graph(3, [(0, float("nan"))])

    def test_iterable_error_surfaces_after_the_edges_before_it(self):
        def broken_reader(*pairs):
            yield from pairs
            raise KeyError("reader broke")

        self.raises("duplicate edge (0, 1)", 3, broken_reader((0, 1), (1, 0)))
        with pytest.raises(KeyError, match="reader broke"):
            Graph(3, broken_reader((0, 1), (1, 2)))

    def test_ids_are_read_with_int(self):
        g = Graph(4, [(-0.5, 1), (2.9, "3"), (b"0", Decimal("2.5")), (Fraction(7, 2), True)])
        assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_empty_inputs(self):
        assert Graph(0).num_edges == 0
        assert Graph(0, []).num_vertices == 0
        assert Graph(5, iter(())).edge_endpoints == (array("l"), array("l"))

    def test_output_is_canonical_and_sorted(self):
        g = Graph(5, [(4, 0), (2, 1), (0, 3), (3, 2)])
        assert g.edges == ((0, 3), (0, 4), (1, 2), (2, 3))
        assert all(type(c) is array and c.typecode == "l" for c in g.edge_endpoints)


@pytest.mark.usefixtures("kernel_backend")
class TestFromColumns:
    def test_matches_the_pair_constructor(self):
        us, vs = [3, 0, 2, 4], [1, 4, 0, 3]
        g = Graph.from_columns(5, us, vs)
        assert g == Graph(5, zip(us, vs))
        assert g.edges == ((0, 2), (0, 4), (1, 3), (3, 4))

    def test_accepts_array_columns(self):
        g = Graph.from_columns(3, array("l", [2, 0]), array("l", [1, 1]))
        assert g.edges == ((0, 1), (1, 2))

    def test_validates_like_the_constructor(self):
        with pytest.raises(GraphError, match=re.escape("duplicate edge (0, 1)")):
            Graph.from_columns(3, [0, 1], [1, 0])
        with pytest.raises(GraphError, match=re.escape("self loop (2, 2) is not allowed")):
            Graph.from_columns(3, [2, 0], [2, 7])

    def test_rejects_columns_of_different_lengths(self):
        with pytest.raises(GraphError, match=re.escape("(2 endpoints vs 1)")):
            Graph.from_columns(3, [0, 1], [1])


class TestDerivedGraphs:
    def test_induced_subgraph_relabels(self, triangle):
        sub = triangle.induced_subgraph([0, 2])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert sub.to_parent(0) == 0
        assert sub.to_parent(1) == 2
        assert sub.to_local(2) == 1

    def test_induced_subgraph_rejects_bad_vertex(self, triangle):
        with pytest.raises(GraphError):
            triangle.induced_subgraph([0, 7])

    def test_subgraph_without_vertices(self, small_path):
        sub = small_path.subgraph_without_vertices([2])
        # Removing the middle of a path splits it into two components.
        assert sub.num_vertices == 4
        assert len(sub.connected_components()) == 2

    def test_edge_subgraph_keeps_vertex_set(self, triangle):
        sub = triangle.edge_subgraph([(0, 1)])
        assert sub.num_vertices == 3
        assert sub.num_edges == 1

    def test_edge_subgraph_rejects_foreign_edges(self, small_path):
        with pytest.raises(GraphError):
            small_path.edge_subgraph([(0, 4)])

    def test_union_edges(self):
        g1 = Graph(4, [(0, 1)])
        g2 = Graph(4, [(2, 3), (0, 1)])
        union = g1.union_edges(g2)
        assert union.num_edges == 2

    def test_union_edges_rejects_mismatched_vertex_sets(self):
        with pytest.raises(GraphError):
            Graph(3).union_edges(Graph(4))


class TestComponentsAndForests:
    def test_connected_components_of_path(self, small_path):
        assert small_path.connected_components() == [[0, 1, 2, 3, 4]]

    def test_forest_detection(self, small_forest, triangle):
        assert small_forest.is_forest()
        assert not triangle.is_forest()

    def test_average_degree(self, triangle):
        assert triangle.average_degree() == pytest.approx(2.0)


class TestInducedSubgraphValidation:
    def test_duplicate_parent_ids_rejected(self):
        with pytest.raises(GraphError):
            InducedSubgraph(2, [(0, 1)], [3, 3])

    def test_parent_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            InducedSubgraph(2, [(0, 1)], [3])

    # The inherited constructors build a subgraph of itself (identity map).

    def test_empty_has_identity_parent_ids(self):
        sub = InducedSubgraph.empty(3)
        assert isinstance(sub, InducedSubgraph)
        assert (sub.num_edges, sub.parent_ids, sub.to_local(2)) == (0, (0, 1, 2), 2)

    def test_from_edges_has_identity_parent_ids(self):
        sub = InducedSubgraph.from_edges([(0, 1)])
        assert isinstance(sub, InducedSubgraph)
        assert (sub.edges, sub.parent_ids, sub.to_parent(1)) == (((0, 1),), (0, 1), 1)

    def test_from_columns_has_identity_parent_ids(self):
        sub = InducedSubgraph.from_columns(2, [0], [1])
        assert isinstance(sub, InducedSubgraph)
        assert (sub.edges, sub.parent_ids) == (((0, 1),), (0, 1))
        assert pickle.loads(pickle.dumps(sub)).parent_ids == (0, 1)


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_degree_sum_equals_twice_edges(graph):
    assert sum(graph.degrees) == 2 * graph.num_edges


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_neighbors_are_symmetric(graph):
    for v in graph.vertices:
        for w in graph.neighbors(v):
            assert v in graph.neighbors(w)


@settings(max_examples=30, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_induced_subgraph_preserves_adjacency(graph, seed):
    import random as _random

    local = _random.Random(seed)
    subset = [v for v in graph.vertices if local.random() < 0.5]
    sub = graph.induced_subgraph(subset)
    for local_u in sub.vertices:
        for local_w in sub.neighbors(local_u):
            assert graph.has_edge(sub.to_parent(local_u), sub.to_parent(local_w))
    # Every edge of the parent with both endpoints kept must appear.
    kept = set(subset)
    expected = sum(1 for (u, v) in graph.edges if u in kept and v in kept)
    assert sub.num_edges == expected

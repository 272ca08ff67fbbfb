"""Property tests: the CSR-backed Graph is observationally equivalent to a
straightforward reference implementation (sets of tuples + per-vertex lists,
the representation the seed code used)."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph, normalize_edge
from tests.conftest import graphs


class ReferenceGraph:
    """The pre-CSR representation: an edge set and sorted adjacency tuples."""

    def __init__(self, num_vertices: int, edges):
        self.n = num_vertices
        self.edge_set = set()
        adjacency = [[] for _ in range(num_vertices)]
        for u, v in edges:
            e = normalize_edge(u, v)
            self.edge_set.add(e)
            adjacency[e[0]].append(e[1])
            adjacency[e[1]].append(e[0])
        self.edges = tuple(sorted(self.edge_set))
        self.adjacency = tuple(tuple(sorted(a)) for a in adjacency)
        self.degrees = tuple(len(a) for a in self.adjacency)

    def connected_components(self):
        seen = [False] * self.n
        components = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            component = [start]
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self.adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        component.append(w)
                        stack.append(w)
            components.append(sorted(component))
        return components


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=20), st.integers(min_value=0, max_value=2**31 - 1))
def test_csr_matches_reference(graph, seed):
    reference = ReferenceGraph(graph.num_vertices, graph.edges)

    # Edge list, degrees, adjacency.
    assert graph.edges == reference.edges
    assert graph.degrees == reference.degrees
    for v in graph.vertices:
        assert graph.neighbors(v) == reference.adjacency[v]
        assert graph.degree(v) == reference.degrees[v]

    # Edge membership, both orientations, plus negatives.
    rng = random.Random(seed)
    for u, v in reference.edges:
        assert (u, v) in graph and (v, u) in graph
    for _ in range(20):
        u = rng.randrange(max(graph.num_vertices, 1))
        v = rng.randrange(max(graph.num_vertices, 1))
        if u != v:
            assert ((u, v) in graph) == (normalize_edge(u, v) in reference.edge_set)

    # Components agree (both sorted lists of sorted lists).
    assert graph.connected_components() == reference.connected_components()


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=20), st.integers(min_value=0, max_value=2**31 - 1))
def test_induced_subgraph_matches_reference(graph, seed):
    rng = random.Random(seed)
    kept = [v for v in graph.vertices if rng.random() < 0.6]
    kept_set = set(kept)
    sub = graph.induced_subgraph(kept)

    expected_edges = sorted(
        (u, v) for (u, v) in graph.edges if u in kept_set and v in kept_set
    )
    local_edges = sorted(
        tuple(sorted((sub.to_parent(u), sub.to_parent(v)))) for (u, v) in sub.edges
    )
    assert local_edges == expected_edges
    assert list(sub.parent_ids) == sorted(kept_set)


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=20), st.integers(min_value=0, max_value=2**31 - 1))
def test_edge_subgraph_matches_reference(graph, seed):
    rng = random.Random(seed)
    subset = [e for e in graph.edges if rng.random() < 0.5]
    sub = graph.edge_subgraph(subset)
    assert sub.num_vertices == graph.num_vertices
    assert set(sub.edges) == set(subset)


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=16))
def test_union_edges_matches_set_union(graph):
    half = graph.edges[: graph.num_edges // 2]
    g1 = Graph(graph.num_vertices, half)
    union = g1.union_edges(graph)
    assert set(union.edges) == set(graph.edges)
    assert union == graph


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=16), st.integers(min_value=0, max_value=8))
def test_peel_layers_matches_naive_rounds(graph, threshold):
    """The frontier kernel reproduces the naive round-by-round peel exactly."""
    n = graph.num_vertices
    degree = list(graph.degrees)
    removed = [False] * n
    expected = [0] * n
    current_layer = 1
    while True:
        peel = [v for v in range(n) if not removed[v] and degree[v] <= threshold]
        if not peel:
            break
        for v in peel:
            expected[v] = current_layer
            removed[v] = True
        for v in peel:
            for w in graph.neighbors(v):
                if not removed[w]:
                    degree[w] -= 1
        current_layer += 1

    layers, rounds_used = graph.peel_layers(threshold)
    assert list(layers) == expected
    assert rounds_used == max(expected, default=0)


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=16), st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=3))
def test_peel_layers_respects_max_rounds(graph, threshold, max_rounds):
    layers, rounds_used = graph.peel_layers(threshold, max_rounds=max_rounds)
    assert rounds_used <= max_rounds
    assert max(layers, default=0) == rounds_used


def test_mapping_views_honor_the_items_contract():
    """The direction view must behave like a dict view: items() re-iterable
    and len()-able (regression for a single-use-iterator items() override)."""
    from repro.graph.orientation import Orientation

    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    orientation = Orientation(g, {(0, 1): 1, (1, 2): 2, (0, 2) : 0})
    items = orientation.direction.items()
    assert len(items) == 3
    assert list(items) == list(items)  # re-iterable, not a one-shot iterator
    assert ((0, 1), 1) in items

"""Tests for Lemma 2.1 (edge partitioning) and Lemma 2.2 (vertex partitioning)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.partitioning import (
    MAX_PARTS,
    draw_parts,
    number_of_parts,
    random_edge_partition,
    random_vertex_partition,
)
from repro.errors import ParameterError
from repro.graph import generators
from repro.graph.arboricity import degeneracy
from tests.conftest import graphs


class TestNumberOfParts:
    def test_formula(self):
        assert number_of_parts(0, 1024) == 1
        assert number_of_parts(10, 1024) == 1
        assert number_of_parts(100, 1024) == 10
        with pytest.raises(ParameterError):
            number_of_parts(-1, 10)


class TestEdgePartition:
    def test_parts_cover_edges_exactly(self, dense_community_graph):
        partition = random_edge_partition(dense_community_graph, arboricity_bound=40, seed=1)
        assert partition.covers(dense_community_graph)

    def test_each_part_keeps_vertex_set(self, dense_community_graph):
        partition = random_edge_partition(dense_community_graph, arboricity_bound=40, seed=1)
        for part in partition.parts:
            assert part.num_vertices == dense_community_graph.num_vertices

    def test_explicit_part_count(self, union_forest_graph):
        partition = random_edge_partition(union_forest_graph, arboricity_bound=3, num_parts=4, seed=2)
        assert partition.num_parts == 4
        with pytest.raises(ParameterError):
            random_edge_partition(union_forest_graph, arboricity_bound=3, num_parts=0)

    def test_lemma_2_1_reduces_arboricity(self):
        # A dense planted community: λ ≫ log n; every random part must have
        # arboricity O(log n) (checked through the degeneracy ≤ 2λ proxy).
        graph = generators.planted_dense_subgraph(
            300, community_size=80, community_probability=0.6, background_probability=0.01, seed=3
        )
        original = degeneracy(graph)
        log_n = math.log2(graph.num_vertices)
        assert original > log_n  # the premise: λ is genuinely large here
        partition = random_edge_partition(graph, arboricity_bound=original, seed=4)
        worst = max(degeneracy(part) for part in partition.parts)
        assert worst <= 4 * log_n
        assert worst < original

    def test_deterministic_given_seed(self, dense_community_graph):
        a = random_edge_partition(dense_community_graph, arboricity_bound=40, seed=9)
        b = random_edge_partition(dense_community_graph, arboricity_bound=40, seed=9)
        assert [p.edges for p in a.parts] == [p.edges for p in b.parts]


class TestVertexPartition:
    def test_parts_cover_vertices_exactly(self, dense_community_graph):
        partition = random_vertex_partition(dense_community_graph, arboricity_bound=40, seed=1)
        assert partition.covers(dense_community_graph)

    def test_parts_are_induced_subgraphs(self, dense_community_graph):
        partition = random_vertex_partition(dense_community_graph, arboricity_bound=40, seed=1)
        for part in partition.parts:
            for (u, v) in part.edges:
                assert dense_community_graph.has_edge(part.to_parent(u), part.to_parent(v))

    def test_lemma_2_2_reduces_arboricity(self):
        graph = generators.planted_dense_subgraph(
            300, community_size=80, community_probability=0.6, background_probability=0.01, seed=5
        )
        original = degeneracy(graph)
        log_n = math.log2(graph.num_vertices)
        partition = random_vertex_partition(graph, arboricity_bound=original, seed=6)
        worst = max((degeneracy(part) for part in partition.parts if part.num_vertices), default=0)
        assert worst <= 4 * log_n
        assert worst < original

    def test_explicit_part_count_and_errors(self, union_forest_graph):
        partition = random_vertex_partition(
            union_forest_graph, arboricity_bound=3, num_parts=3, seed=2
        )
        assert partition.num_parts == 3
        with pytest.raises(ParameterError):
            random_vertex_partition(union_forest_graph, arboricity_bound=3, num_parts=0)


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=20), st.integers(min_value=1, max_value=6), st.integers(0, 10**6))
def test_partitions_always_cover(graph, parts, seed):
    edge_partition = random_edge_partition(graph, arboricity_bound=1, num_parts=parts, seed=seed)
    assert edge_partition.covers(graph)
    assert sum(p.num_edges for p in edge_partition.parts) == graph.num_edges
    vertex_partition = random_vertex_partition(graph, arboricity_bound=1, num_parts=parts, seed=seed)
    assert vertex_partition.covers(graph)
    assert sum(p.num_vertices for p in vertex_partition.parts) == graph.num_vertices


PARTITIONS = [random_edge_partition, random_vertex_partition]


@pytest.mark.parametrize("partition", PARTITIONS, ids=["edge", "vertex"])
class TestPartCountValidation:
    """``num_parts`` must be a true integer in ``1..MAX_PARTS``."""

    def test_bool_is_refused(self, partition, union_forest_graph):
        with pytest.raises(ParameterError, match="num_parts must be an integer"):
            partition(union_forest_graph, arboricity_bound=3, num_parts=True)

    def test_float_is_refused(self, partition, union_forest_graph):
        with pytest.raises(ParameterError, match="num_parts must be an integer"):
            partition(union_forest_graph, arboricity_bound=3, num_parts=2.5)

    def test_string_is_refused(self, partition, union_forest_graph):
        with pytest.raises(ParameterError, match="num_parts must be an integer"):
            partition(union_forest_graph, arboricity_bound=3, num_parts="3")

    def test_more_parts_than_one_draw_word_serves_is_refused(
        self, partition, union_forest_graph
    ):
        with pytest.raises(ParameterError, match="at most 4294967295"):
            partition(union_forest_graph, arboricity_bound=3, num_parts=MAX_PARTS + 1)
        # The paper's count ⌈k / log n⌉ is held to the same limit.
        with pytest.raises(ParameterError, match="at most 4294967295"):
            partition(union_forest_graph, arboricity_bound=2**40)


BACKENDS = kernels.available_backends()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(
    bound=st.one_of(
        st.sampled_from([1, 2, 3, 33, MAX_PARTS] + [2**i for i in range(32)]),
        st.integers(min_value=1, max_value=MAX_PARTS),
    ),
    count=st.integers(min_value=0, max_value=400),
    seed=st.integers(min_value=0, max_value=2**64),
)
def test_draw_parts_is_randrange_exactly(backend, bound, count, seed):
    """The bulk draw equals the per-item ``randrange`` loop, state included."""
    reference = random.Random(seed)
    expected = [reference.randrange(bound) for _ in range(count)]
    rng = random.Random(seed)
    with kernels.use_backend(backend):
        drawn = draw_parts(rng, bound, count)
    assert list(drawn) == expected
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_parts", [1, 3, 20])
def test_partitions_match_the_per_item_randrange_reference(
    backend, num_parts, dense_community_graph
):
    """Parts are exactly the buckets of one ``randrange`` per edge (resp. vertex)."""
    graph = dense_community_graph
    reference = random.Random(11)
    edge_buckets = [[] for _ in range(num_parts)]
    for edge in graph.edges:
        edge_buckets[reference.randrange(num_parts)].append(edge)
    vertex_buckets = [[] for _ in range(num_parts)]
    for v in graph.vertices:
        vertex_buckets[reference.randrange(num_parts)].append(v)
    rng = random.Random(11)
    with kernels.use_backend(backend):
        edges = random_edge_partition(graph, 1, rng=rng, num_parts=num_parts)
        vertices = random_vertex_partition(graph, 1, rng=rng, num_parts=num_parts)
    assert [list(part.edges) for part in edges.parts] == edge_buckets
    assert [list(part.parent_ids) for part in vertices.parts] == vertex_buckets
    assert rng.getstate() == reference.getstate()

"""Pure ≡ numpy byte-identity, kernel by kernel, on randomized inputs.

Every test calls the *same dispatcher* once per backend on the same inputs
and requires exactly equal outputs — container types included (``array('l')``
columns, tuples, python-int lists) — and, where a kernel raises, the exact
same exception type and message.  The pure ≡ numpy classes are skipped on
hosts without numpy: equivalence against an absent backend is vacuous (the
fallback itself is covered by the registry tests).  The edge-canonicalisation
class also checks every available backend against the ``Graph`` constructor's
original loop, so it runs without numpy too.
"""

from __future__ import annotations

import random
from array import array
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.errors import GraphError, InvalidOrientationError, SimulationError
from repro.graph.generators import (
    planted_dense_subgraph,
    union_of_random_forests,
)
from repro.graph.graph import Graph, normalize_edge
from repro.mpc.config import MPCConfig
from repro.stream.updates import EdgeUpdate

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not importable"
)

GRAPHS = [
    union_of_random_forests(300, arboricity=3, seed=5),
    planted_dense_subgraph(
        200,
        community_size=60,
        community_probability=0.6,
        background_probability=0.03,
        seed=9,
    ),
]


def both(kernel_name, *args, **kwargs):
    """Run one dispatcher on both backends; return (pure_result, numpy_result)."""
    dispatcher = getattr(kernels, kernel_name)
    return (
        dispatcher(*args, backend=kernels.PURE, **kwargs),
        dispatcher(*args, backend=kernels.NUMPY, **kwargs),
    )


def both_raise(kernel_name, *args, **kwargs):
    """Both backends must raise; returns the two exceptions for comparison."""
    dispatcher = getattr(kernels, kernel_name)
    with pytest.raises(Exception) as pure_err:
        dispatcher(*args, backend=kernels.PURE, **kwargs)
    with pytest.raises(Exception) as numpy_err:
        dispatcher(*args, backend=kernels.NUMPY, **kwargs)
    return pure_err.value, numpy_err.value


@needs_numpy
class TestPeel:
    @pytest.mark.parametrize("graph", GRAPHS, ids=["forests", "dense"])
    @pytest.mark.parametrize("threshold", [0, 1, 3, 8, 50])
    @pytest.mark.parametrize("max_rounds", [None, 0, 1, 2])
    def test_layers_and_rounds_identical(self, graph, threshold, max_rounds):
        pure, vec = both(
            "peel_layers",
            graph.num_vertices,
            graph.csr_indptr,
            graph.csr_indices,
            threshold,
            max_rounds,
        )
        assert pure == vec
        assert isinstance(vec[0], array) and vec[0].typecode == "l"

    def test_empty_graph(self):
        pure, vec = both("peel_layers", 0, array("l", [0]), array("l"), 3, None)
        assert pure == vec == (array("l"), 0)


def _reference_tally(config, keys, words):
    """Per-machine totals with ``machine_of``, sizes as one int or a column."""
    sizes = [words] * len(keys) if isinstance(words, int) else list(words)
    totals: dict[int, int] = {}
    for key, size in zip(keys, sizes):
        machine = config.machine_of(key)
        totals[machine] = totals.get(machine, 0) + size
    machines = sorted(totals)
    return machines, [totals[m] for m in machines]


@needs_numpy
class TestTallyByMachine:
    CONFIG = MPCConfig(num_vertices=500, num_edges=1000, delta=0.5)

    def _check(self, keys, words):
        machines = self.CONFIG.num_machines()
        pure, vec = both("tally_by_machine", machines, keys, words)
        assert pure == vec == _reference_tally(self.CONFIG, keys, words)
        for column in (*pure, *vec):
            assert type(column) is list and all(type(value) is int for value in column)
        return vec

    def test_no_messages(self):
        assert self._check([], 3) == ([], [])
        assert self._check([], -3) == ([], [])
        assert self._check(array("l"), array("l")) == ([], [])
        assert self._check(range(0), array("l")) == ([], [])

    @pytest.mark.parametrize("first_key, count", [(0, 1), (0, 7), (0, 700), (313, 2000)])
    def test_scalar_words_over_key_ranges(self, first_key, count):
        keys = range(first_key, first_key + count)
        self._check(keys, 1)
        self._check(keys, 5)
        self._check(list(keys), 2)

    @pytest.mark.parametrize("count", [1, 10, 3000])
    def test_word_columns(self, count):
        rng = random.Random(count)
        keys = array("l", (rng.randrange(5000) for _ in range(count)))
        words = array("l", (rng.randrange(60) for _ in range(count)))
        self._check(keys, words)
        self._check(list(keys), list(words))
        self._check(range(count), words)

    @pytest.mark.parametrize("typecode", ["i", "q", "h"])
    def test_other_int_array_typecodes(self, typecode):
        rng = random.Random(3)
        keys = array(typecode, (rng.randrange(5000) for _ in range(200)))
        words = array(typecode, (rng.randrange(60) for _ in range(200)))
        self._check(keys, words)
        self._check(keys, 3)
        self._check(list(keys), words)

    def test_zero_word_messages_touch_their_machines(self):
        machine_of = self.CONFIG.machine_of
        machines, totals = self._check([0, 1, 2], 0)
        assert machines == sorted({machine_of(0), machine_of(1), machine_of(2)})
        assert totals == [0] * len(machines)
        machines, totals = self._check(array("l", [0, 7, 7]), array("l", [0, 0, 3]))
        assert dict(zip(machines, totals)) == {machine_of(0): 0, machine_of(7): 3}

    @pytest.mark.parametrize("large", [10**12, 2**62 - 1, 2**63 - 1])
    def test_large_keys_match_machine_of(self, large):
        keys = array("l", [large, 3, large, large - 1])
        self._check(keys, array("l", [1, 2, 4, 8]))
        self._check(keys, 7)

    def test_negative_keys_match_machine_of(self):
        self._check(array("l", [-1, -5000, 12, -(2**63)]), 1)

    @pytest.mark.parametrize(
        "keys, words",
        [([1, 2], -1), ([1, 2, 3], [4, -1, 2]), (array("l", [9]), array("l", [-7]))],
    )
    def test_negative_words_raise_identically(self, keys, words):
        machines = self.CONFIG.num_machines()
        pure_err, numpy_err = both_raise("tally_by_machine", machines, keys, words)
        assert type(pure_err) is type(numpy_err) is SimulationError
        assert str(pure_err) == str(numpy_err) == "message size must be non-negative"


@needs_numpy
class TestOrientAndTally:
    @pytest.mark.parametrize("graph", GRAPHS, ids=["forests", "dense"])
    def test_heads_identical_for_int_and_float_ranks(self, graph):
        edge_u, edge_v = graph.edge_endpoints
        rng = random.Random(31)
        int_ranks = [rng.randrange(50) for _ in range(graph.num_vertices)]
        for ranks in (
            int_ranks,
            array("l", int_ranks),
            [r + 0.5 for r in int_ranks],
        ):
            pure, vec = both("orient_by_rank", edge_u, edge_v, ranks)
            assert pure == vec
            assert isinstance(vec, array) and vec.typecode == "l"

    @pytest.mark.parametrize("graph", GRAPHS, ids=["forests", "dense"])
    def test_edge_minimum_identical(self, graph):
        edge_u, edge_v = graph.edge_endpoints
        rng = random.Random(37)
        values = [rng.randrange(-5, 20) for _ in range(graph.num_vertices)]
        for column in (values, array("l", values)):
            pure, vec = both("edge_minimum", edge_u, edge_v, column)
            assert pure == vec == array(
                "l", [min(values[u], values[v]) for u, v in zip(edge_u, edge_v)]
            )
        assert both("edge_minimum", array("l"), array("l"), values) == (array("l"),) * 2

    @pytest.mark.parametrize("graph", GRAPHS, ids=["forests", "dense"])
    def test_tallies_identical(self, graph):
        edge_u, edge_v = graph.edge_endpoints
        heads = kernels.orient_by_rank(
            edge_u, edge_v, list(range(graph.num_vertices))
        )
        pure, vec = both("tally_outdegrees", graph.num_vertices, edge_u, edge_v, heads)
        assert pure == vec
        assert isinstance(vec, tuple) and all(isinstance(x, int) for x in vec)

    def test_tally_first_offender_message_identical(self):
        graph = GRAPHS[0]
        edge_u, edge_v = graph.edge_endpoints
        heads = kernels.orient_by_rank(edge_u, edge_v, list(range(graph.num_vertices)))
        corrupt = array("l", heads)
        # Two bad heads; the *first* must be the one reported by both.
        corrupt[7] = graph.num_vertices + 7
        corrupt[100] = graph.num_vertices + 100
        pure_err, numpy_err = both_raise(
            "tally_outdegrees", graph.num_vertices, edge_u, edge_v, corrupt
        )
        assert isinstance(pure_err, InvalidOrientationError)
        assert type(pure_err) is type(numpy_err)
        assert str(pure_err) == str(numpy_err)


@needs_numpy
class TestMerge:
    @pytest.mark.parametrize("graph", GRAPHS, ids=["forests", "dense"])
    def test_disjoint_interleaved_split_merges_identically(self, graph):
        edge_u, edge_v = graph.edge_endpoints
        heads = kernels.orient_by_rank(edge_u, edge_v, list(range(graph.num_vertices)))
        args = (
            graph.num_vertices,
            edge_u[0::2], edge_v[0::2], heads[0::2],
            edge_u[1::2], edge_v[1::2], heads[1::2],
        )
        pure, vec = both("merge_oriented_columns", *args)
        assert pure == vec
        assert pure[0] == edge_u and pure[1] == edge_v and pure[2] == heads
        assert pure[3] == 0

    def test_overlap_counts_identically(self):
        graph = GRAPHS[0]
        edge_u, edge_v = graph.edge_endpoints
        heads = kernels.orient_by_rank(edge_u, edge_v, list(range(graph.num_vertices)))
        # Full overlap: merging the columns with themselves.
        pure, vec = both(
            "merge_oriented_columns",
            graph.num_vertices,
            edge_u, edge_v, heads,
            edge_u, edge_v, heads,
        )
        assert pure == vec == (None, None, None, graph.num_edges)

    def test_empty_sides(self):
        empty = array("l")
        pure, vec = both(
            "merge_oriented_columns", 5, empty, empty, empty, empty, empty, empty
        )
        assert pure == vec
        assert pure[3] == 0 and len(pure[0]) == 0


def _random_words(count, seed):
    """The little-endian bytes of ``count`` 32-bit MT words."""
    return random.Random(seed).getrandbits(32 * count).to_bytes(4 * count, "little")


@needs_numpy
class TestDrawsBelow:
    @pytest.mark.parametrize("bound", [1, 2, 3, 20, 32, 33, 2**31 + 1, 2**32 - 1])
    def test_random_words_identical(self, bound):
        words = _random_words(500, seed=bound)
        shift = 32 - bound.bit_length()
        pure, vec = both("draws_below", words, shift, bound)
        assert pure == vec
        assert isinstance(vec, array) and vec.typecode == "l"
        candidates = [w >> shift for w in array("I", words)]
        assert list(pure) == [c for c in candidates if c < bound]

    def test_empty_input(self):
        pure, vec = both("draws_below", b"", 27, 20)
        assert pure == vec == array("l")

    def test_one_part_keeps_every_zero_candidate(self):
        # L = 1 still spends words: randrange(1) draws one bit per candidate
        # and rejects the ones.
        words = _random_words(200, seed=1)
        pure, vec = both("draws_below", words, 31, 1)
        assert pure == vec
        assert set(pure) <= {0}
        assert len(pure) == sum(1 for w in array("I", words) if not w >> 31)


@needs_numpy
class TestSplitByPart:
    @pytest.mark.parametrize("graph", GRAPHS, ids=["forests", "dense"])
    @pytest.mark.parametrize("num_parts", [2, 7, 20])
    def test_random_labels_identical(self, graph, num_parts):
        edge_u, edge_v = graph.edge_endpoints
        rng = random.Random(num_parts)
        labels = array("l", (rng.randrange(num_parts) for _ in range(len(edge_u))))
        pure, vec = both("split_by_part", labels, num_parts, (edge_u, edge_v))
        assert pure == vec
        assert len(pure) == num_parts
        for part, (part_u, part_v) in enumerate(pure):
            rows = [i for i, label in enumerate(labels) if label == part]
            assert list(part_u) == [edge_u[i] for i in rows]
            assert list(part_v) == [edge_v[i] for i in rows]

    def test_empty_input(self):
        pure, vec = both("split_by_part", array("l"), 3, (array("l"), array("l")))
        assert pure == vec == [(array("l"), array("l"))] * 3

    def test_one_part(self):
        edge_u, edge_v = GRAPHS[0].edge_endpoints
        labels = array("l", [0]) * len(edge_u)
        pure, vec = both("split_by_part", labels, 1, (edge_u, edge_v))
        assert pure == vec == [(edge_u, edge_v)]

    def test_one_part_holds_every_row(self):
        edge_u, edge_v = GRAPHS[0].edge_endpoints
        labels = array("l", [2]) * len(edge_u)
        pure, vec = both("split_by_part", labels, 4, (edge_u, edge_v))
        empty = (array("l"), array("l"))
        assert pure == vec == [empty, empty, (edge_u, edge_v), empty]


@needs_numpy
class TestMergePartColumns:
    @staticmethod
    def _parts(graph, num_parts, seed):
        edge_u, edge_v = graph.edge_endpoints
        heads = kernels.orient_by_rank(edge_u, edge_v, list(range(graph.num_vertices)))
        rng = random.Random(seed)
        labels = array("l", (rng.randrange(num_parts) for _ in range(len(edge_u))))
        return kernels.split_by_part(labels, num_parts, (edge_u, edge_v, heads)), heads

    @pytest.mark.parametrize("graph", GRAPHS, ids=["forests", "dense"])
    @pytest.mark.parametrize("num_parts", [2, 5, 20])
    def test_random_partition_merges_back_identically(self, graph, num_parts):
        parts, heads = self._parts(graph, num_parts, seed=num_parts)
        pure, vec = both("merge_part_columns", graph.num_vertices, parts)
        assert pure == vec
        edge_u, edge_v = graph.edge_endpoints
        assert pure == (edge_u, edge_v, heads)

    def test_overlap_keeps_both_copies_in_part_order(self):
        graph = GRAPHS[0]
        parts, _heads = self._parts(graph, 3, seed=4)
        u0, v0, h0 = parts[0]
        # Part 0's first edge again, in a fourth part, pointing the other way.
        extra = (u0[:1], v0[:1], array("l", [u0[0] if h0[0] == v0[0] else v0[0]]))
        pure, vec = both("merge_part_columns", graph.num_vertices, parts + [extra])
        assert pure == vec
        i = next(i for i in range(len(pure[0])) if (pure[0][i], pure[1][i]) == (u0[0], v0[0]))
        assert (pure[0][i + 1], pure[1][i + 1]) == (u0[0], v0[0])
        assert (pure[2][i], pure[2][i + 1]) == (h0[0], extra[2][0])

    def test_empty_input(self):
        empty = array("l")
        pure, vec = both("merge_part_columns", 5, [])
        assert pure == vec == (empty, empty, empty)
        pure, vec = both("merge_part_columns", 5, [(empty, empty, empty)] * 2)
        assert pure == vec == (empty, empty, empty)

    def test_one_part_holding_every_edge(self):
        graph = GRAPHS[1]
        edge_u, edge_v = graph.edge_endpoints
        heads = kernels.orient_by_rank(edge_u, edge_v, list(range(graph.num_vertices)))
        empty = array("l")
        parts = [(empty, empty, empty), (edge_u, edge_v, heads), (empty, empty, empty)]
        pure, vec = both("merge_part_columns", graph.num_vertices, parts)
        assert pure == vec == (edge_u, edge_v, heads)
        pure, vec = both("merge_part_columns", graph.num_vertices, parts[1:2])
        assert pure == vec == (edge_u, edge_v, heads)


@needs_numpy
class TestSmallReductions:
    def test_sum_counts(self):
        rng = random.Random(2)
        a = tuple(rng.randrange(10) for _ in range(64))
        b = tuple(rng.randrange(10) for _ in range(64))
        pure, vec = both("sum_counts", a, b)
        assert pure == vec
        assert all(isinstance(x, int) for x in vec)
        assert both("sum_counts", (), ()) == ((), ())

    def test_min_value(self):
        assert both("min_value", array("l", [4, -2, 9])) == (-2, -2)
        assert both("min_value", array("l")) == (0, 0)

    def test_max_and_sum_sizes(self):
        collections = [set(range(k)) for k in (0, 3, 7, 1)]
        assert both("max_sizes", collections) == (7, 7)
        assert both("sum_sizes", collections) == (11, 11)
        assert both("max_sizes", []) == (0, 0)
        assert both("sum_sizes", []) == (0, 0)


@needs_numpy
class TestLayerColumns:
    """The integer layer column kernels (``0`` = unassigned)."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-2, max_value=4), max_size=80))
    def test_unassigned_positions_identical(self, values):
        column = array("l", values)
        pure, vec = both("unassigned_positions", column)
        assert pure == vec == array("l", [v for v, layer in enumerate(values) if layer < 1])
        assert isinstance(vec, array) and vec.typecode == "l"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_scatter_layers_identical(self, data):
        n = data.draw(st.integers(min_value=0, max_value=60))
        parents = data.draw(st.lists(st.sampled_from(range(n)), unique=True) if n else st.just([]))
        local = data.draw(st.lists(st.integers(0, 5), min_size=len(parents), max_size=len(parents)))
        offset = data.draw(st.integers(min_value=0, max_value=9))
        start = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        columns = {}
        for backend in (kernels.PURE, kernels.NUMPY):
            column = array("l", start)
            written = kernels.scatter_layers(
                column, tuple(parents), array("l", local), offset, backend=backend
            )
            columns[backend] = (written, column)
        expected = array("l", start)
        for parent, layer in zip(parents, local):
            if layer:
                expected[parent] = offset + layer
        assert columns[kernels.PURE] == columns[kernels.NUMPY]
        assert columns[kernels.PURE] == (sum(map(bool, local)), expected)

    def test_empty_columns(self):
        assert both("unassigned_positions", array("l")) == (array("l"), array("l"))
        assert both("scatter_layers", array("l"), (), array("l"), 3) == (0, 0)


@st.composite
def _layered_csr(draw, max_vertices=30):
    """A random graph's CSR and a random layer column (any int layers)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    edges = []
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        drawn = draw(st.lists(pairs, max_size=80))
        edges = sorted({normalize_edge(u, v) for u, v in drawn if u != v})
    indptr, indices = kernels.build_csr(
        n,
        array("l", [u for u, _ in edges]),
        array("l", [v for _, v in edges]),
        backend=kernels.PURE,
    )
    layers = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return n, edges, indptr, indices, array("l", layers)


def _reference_out_rows(n, edges, layer_of):
    """The Lemma 4.1 directions from the edge list: same layer both ways,
    across layers toward the higher one."""
    out = {v: [] for v in range(n)}
    for u, v in edges:
        if layer_of[u] == layer_of[v]:
            out[u].append(v)
            out[v].append(u)
        elif layer_of[u] < layer_of[v]:
            out[u].append(v)
        else:
            out[v].append(u)
    return [out[v] for v in range(n)]


def _rows(indptr, indices):
    return [list(indices[indptr[v] : indptr[v + 1]]) for v in range(len(indptr) - 1)]


class TestDirectedOutCsr:
    """The directed out-CSR of Lemma 4.1 (every available backend against
    the edge-list directions; pure ≡ numpy when numpy is present)."""

    def test_cross_layer_edges_point_up(self, small_path):
        layer_of = [1, 2, 3, 3, 1]
        for backend in kernels.available_backends():
            out = _rows(
                *kernels.directed_out_csr(
                    5, small_path.csr_indptr, small_path.csr_indices, layer_of, backend=backend
                )
            )
            assert out[0] == [1]          # 1 is in a higher layer
            assert out[1] == [2]
            assert 2 in out[3] and 3 in out[2]  # same layer: bidirectional
            assert out[4] == [3]          # 3 is higher, so the edge points 4 -> 3
            assert 4 not in out[3]

    @settings(max_examples=60, deadline=None)
    @given(_layered_csr())
    def test_rows_match_the_edge_list_directions(self, case):
        n, edges, indptr, indices, layer_of = case
        expected = _reference_out_rows(n, edges, layer_of)
        for backend in kernels.available_backends():
            out_indptr, out_indices = kernels.directed_out_csr(
                n, indptr, indices, layer_of, backend=backend
            )
            assert isinstance(out_indptr, array) and out_indptr.typecode == "l"
            assert isinstance(out_indices, array) and out_indices.typecode == "l"
            assert _rows(out_indptr, out_indices) == expected

    @needs_numpy
    @settings(max_examples=60, deadline=None)
    @given(_layered_csr())
    def test_identical(self, case):
        n, _edges, indptr, indices, layer_of = case
        pure, vec = both("directed_out_csr", n, indptr, indices, layer_of)
        assert pure == vec
        # A list layer column gives the same CSR as an array one.
        assert both("directed_out_csr", n, indptr, indices, list(layer_of)) == (pure, pure)


@needs_numpy
class TestRowLengths:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=40))
    def test_identical(self, lengths):
        indptr = array("l", [0])
        for length in lengths:
            indptr.append(indptr[-1] + length)
        pure, vec = both("row_lengths", indptr)
        assert pure == vec == array("l", lengths)


@needs_numpy
class TestInducedEdgeColumns:
    """The induced subgraph's local edge columns, canonical and sorted."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_identical(self, seed, share):
        rng = random.Random(seed)
        graph = GRAPHS[seed % len(GRAPHS)]
        kept = [v for v in graph.vertices if rng.random() < share]
        pure, vec = both(
            "induced_edge_columns", graph.num_vertices, graph.csr_indptr, graph.csr_indices, kept
        )
        assert pure == vec
        local = {p: i for i, p in enumerate(kept)}
        assert list(zip(*vec)) == sorted(
            (local[u], local[v]) for u, v in graph.edges if u in local and v in local
        )


@needs_numpy
class TestReachCounts:
    """The multi-start bounded BFS as counts: set sizes, the number of sets
    holding each vertex, and truncation inside a row."""

    @settings(max_examples=80, deadline=None)
    @given(
        _layered_csr(),
        st.data(),
        st.integers(min_value=0, max_value=5),
        st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
        st.sampled_from([1, 3, 1 << 18]),
    )
    def test_identical(self, case, data, max_distance, limit, cells):
        from repro.kernels import numpy_backend

        n, _edges, indptr, indices, layer_of = case
        out_csr = kernels.directed_out_csr(n, indptr, indices, layer_of, backend=kernels.PURE)
        starts = data.draw(st.lists(st.integers(0, n - 1), max_size=n) if n else st.just([]))
        with mock.patch.object(numpy_backend, "_REACH_BLOCK_CELLS", cells):
            pure, vec = both("reach_counts", *out_csr, array("l", starts), max_distance, limit)
        assert pure == vec
        sizes, hits = vec
        assert all(isinstance(column, array) and column.typecode == "l" for column in vec)
        assert len(sizes) == len(starts) and len(hits) == n
        # Every start is in its own set, and a repeated start is walked again.
        assert sum(sizes) == sum(hits)
        assert all(hits[s] >= starts.count(s) for s in starts)
        if limit is not None:
            assert max(sizes, default=0) <= limit + 1
        if max_distance == 0:
            assert list(sizes) == [1] * len(starts)

    def test_more_blocks_than_seen_marks(self):
        # One start per block, so the seen table's 255 marks wrap: the path
        # 0 - ... - 9 is walked in blocks 0 and 255, which share a mark, with
        # only the isolated vertex 10 walked in between.
        from repro.kernels import numpy_backend

        graph = Graph(11, [(v, v + 1) for v in range(9)])
        out_csr = kernels.directed_out_csr(
            11, graph.csr_indptr, graph.csr_indices, array("l", [1] * 11)
        )
        starts = array("l", [0] + [10] * 254 + [0] + [10] * 300 + [5])
        for limit in (None, 4):
            with mock.patch.object(numpy_backend, "_REACH_BLOCK_CELLS", 1):
                pure, vec = both("reach_counts", *out_csr, starts, 9, limit)
            assert pure == vec
            assert vec[0][255] == vec[0][0] == (10 if limit is None else 5)

    def test_no_starts(self):
        assert both("reach_counts", array("l", [0]), array("l"), array("l"), 3, 2) == (
            (array("l"), array("l")),
        ) * 2
        assert both("reach_counts", array("l", [0, 0, 0]), array("l"), array("l"), 3, 2) == (
            (array("l"), array("l", [0, 0])),
        ) * 2


class TestLayerPalettes:
    """Per-layer palettes from the out-CSR equal the set-and-comprehension
    lists ``_color_layered_graph`` built before."""

    @staticmethod
    def _reference(graph, layer_of, layer_index, members, colors, base, size):
        palettes = []
        for v in members:
            taken = {
                colors[w]
                for w in graph.neighbors(v)
                if colors[w] >= 0 and layer_of[w] >= layer_index
            }
            palettes.append([base + c for c in range(size) if base + c not in taken])
        return palettes

    @settings(max_examples=60, deadline=None)
    @given(_layered_csr(), st.data())
    def test_matches_the_comprehension(self, case, data):
        n, edges, indptr, indices, layer_of = case
        graph = Graph(n, edges)
        out_csr = kernels.directed_out_csr(n, indptr, indices, layer_of, backend=kernels.PURE)
        layer_index = data.draw(st.integers(0, 4))
        members = tuple(v for v in range(n) if layer_of[v] == layer_index)
        colors = array("l", data.draw(st.lists(st.integers(-1, 9), min_size=n, max_size=n)))
        base = data.draw(st.integers(0, 4))
        size = data.draw(st.integers(0, 8))
        expected = self._reference(graph, layer_of, layer_index, members, colors, base, size)
        for backend in kernels.available_backends():
            palettes = kernels.layer_palettes(
                members, *out_csr, colors, base, size, backend=backend
            )
            assert palettes == expected
            assert all(type(c) is int for palette in palettes for c in palette)

    @needs_numpy
    def test_identical_without_members(self):
        out_csr = (array("l", [0, 0]), array("l"))
        assert both("layer_palettes", (), *out_csr, array("l", [-1]), 0, 3) == ([], [])


@needs_numpy
class TestPaletteAssembly:
    def test_random_parts_identical(self):
        rng = random.Random(77)
        n = 150
        vertices = list(range(n))
        rng.shuffle(vertices)
        parts = []
        cursor = 0
        while cursor < n:
            size = rng.randrange(1, 25)
            parents = tuple(sorted(vertices[cursor : cursor + size]))
            colors = array("l", [rng.randrange(6) for _ in parents])
            parts.append((parents, colors, rng.randrange(1, 9)))
            cursor += size
        pure, vec = both("assemble_color_columns", n, parts)
        assert pure == vec
        column, offsets = pure
        assert isinstance(vec[0], array) and vec[0].typecode == "l"
        assert offsets[0] == 0 and len(offsets) == len(parts) + 1
        assert offsets == [
            sum(p[2] for p in parts[:i]) for i in range(len(parts) + 1)
        ]
        assert min(column) >= 0  # the shuffled parts cover every vertex

    def test_uncovered_vertices_keep_the_sentinel(self):
        parts = [((1, 3), array("l", [2, 0]), 4)]
        pure, vec = both("assemble_color_columns", 5, parts)
        assert pure == vec
        assert list(pure[0]) == [-1, 2, -1, 0, -1]
        assert pure[1] == [0, 4]

    def test_no_parts(self):
        pure, vec = both("assemble_color_columns", 3, [])
        assert pure == vec == (array("l", [-1, -1, -1]), [0])


def _reference_choose_tail(u, v, du, dv):
    return u if du <= dv else v


def _random_group(rng, vertices, shard):
    """A random, *legal* update sequence over one conflict group's vertices."""
    live = {
        (min(v, h), max(v, h)) for v, heads in shard.items() for h in heads
    }
    updates = []
    for _ in range(40):
        u, v = rng.sample(vertices, 2)
        e = (min(u, v), max(u, v))
        if e in live:
            live.discard(e)
            updates.append(EdgeUpdate("-", u, v))
        else:
            live.add(e)
            updates.append(EdgeUpdate("+", u, v))
    return updates


@needs_numpy
class TestFlipRepairGroup:
    def test_random_groups_identical(self):
        rng = random.Random(123)
        vertices = list(range(10))
        for trial in range(20):
            shard = {}
            live = set()
            for v in vertices:
                heads = rng.sample([w for w in vertices if w != v], rng.randrange(3))
                heads = [h for h in heads if (min(v, h), max(v, h)) not in live]
                live.update((min(v, h), max(v, h)) for h in heads)
                shard[v] = tuple(sorted(heads))
            updates = _random_group(rng, vertices, shard)
            pure, vec = both(
                "flip_repair_group", shard, updates, 100, _reference_choose_tail
            )
            assert pure == vec, f"trial {trial} diverged"
            new_shard, freed = pure
            assert all(isinstance(h, int) for hs in vec[0].values() for h in hs)
            assert all(heads == sorted(heads) for heads in new_shard.values())

    def test_error_messages_identical(self):
        shard = {0: (1,), 1: (), 2: ()}
        cases = [
            # Insert of an edge the shard already orients.
            [EdgeUpdate("+", 0, 1)],
            # Delete of an edge nobody orients.
            [EdgeUpdate("-", 1, 2)],
        ]
        for updates in cases:
            pure_err, numpy_err = both_raise(
                "flip_repair_group", shard, updates, 10, _reference_choose_tail
            )
            assert isinstance(pure_err, GraphError)
            assert type(pure_err) is type(numpy_err)
            assert str(pure_err) == str(numpy_err)

    def test_cap_overflow_message_identical(self):
        shard = {0: (), 1: (), 2: (), 3: ()}
        updates = [EdgeUpdate("+", 0, 1), EdgeUpdate("+", 0, 2), EdgeUpdate("+", 0, 3)]
        pure_err, numpy_err = both_raise(
            "flip_repair_group", shard, updates, 1, lambda u, v, du, dv: u
        )
        assert "cap overflow" in str(pure_err)
        assert str(pure_err) == str(numpy_err)


def _reference_canonical_loop(num_vertices, edges):
    """The ``Graph`` constructor loop before it became a kernel, verbatim."""
    n = int(num_vertices)
    canonical = []
    seen = set()
    for u, v in edges:
        u = int(u)
        v = int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(
                f"edge ({u}, {v}) references a vertex outside 0..{n - 1}"
            )
        e = normalize_edge(u, v)
        if e in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(e)
        canonical.append(e)
    canonical.sort()
    return (
        array("l", map(itemgetter(0), canonical)),
        array("l", map(itemgetter(1), canonical)),
    )


def _outcome(build, num_vertices, edges):
    """The columns, or the exception's exact type and message."""
    try:
        return build(num_vertices, edges)
    except Exception as error:  # every error type is compared
        return type(error), str(error)


def _failing_after(pairs):
    """A generator yielding ``pairs`` and then raising, like a broken reader."""
    yield from pairs
    raise KeyError("reader broke")


def _id_variants():
    """Vertex-id types ``int()`` accepts or rejects, numpy's when present."""
    plain = st.integers(-2, 9)
    variants = [
        plain,
        plain.map(float),
        st.floats(-2.5, 9.5, allow_nan=False),
        plain.map(str),
        plain.map(lambda x: str(x).encode()),
        plain.map(Decimal),
        st.fractions(-2, 9),
        st.booleans(),
        st.sampled_from(
            [None, float("nan"), float("inf"), -float("inf"), "x", "1.5", 2**63, -(2**64)]
        ),
    ]
    if kernels.numpy_available():
        import numpy as np

        variants += [plain.map(np.int64), plain.map(np.float64), plain.map(np.int32)]
    return st.one_of(*variants)


def _accepted_ids():
    """Conversions of a valid id that ``int()`` reads back unchanged."""
    conversions = [int, float, str, lambda x: str(x).encode(), Decimal, Fraction]
    if kernels.numpy_available():
        import numpy as np

        conversions += [np.int64, np.float64]
    return conversions


_ACCEPTED_IDS = _accepted_ids()


def _elements(ids):
    pairs = st.tuples(ids, ids)
    return st.one_of(
        pairs,
        pairs.map(list),
        st.lists(ids, min_size=0, max_size=3).map(tuple),
    )


_SIMPLE_GRAPHS = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
                lambda e: e[0] != e[1]
            ),
            unique_by=lambda e: (min(e), max(e)),
            max_size=30,
        )
        if n > 1
        else st.just([]),
    )
)

_NOISY_INPUTS = st.tuples(
    st.integers(0, 12),
    st.lists(
        st.one_of(
            st.tuples(st.integers(-1, 12), st.integers(-1, 12)),
            st.lists(st.integers(0, 12), max_size=3).map(tuple),
            _elements(_id_variants()),
        ),
        max_size=12,
    ),
)


class TestCanonicalEdgeColumns:
    """Every backend ≡ the old constructor loop: columns, errors, first offender."""

    def check(self, num_vertices, make_edges):
        expected = _outcome(_reference_canonical_loop, num_vertices, make_edges())
        for backend in kernels.available_backends():
            got = _outcome(
                lambda n, edges: kernels.canonical_edge_columns(n, edges, backend=backend),
                num_vertices,
                make_edges(),
            )
            assert got == expected, backend
        return expected

    @settings(max_examples=150, deadline=None)
    @given(_SIMPLE_GRAPHS, st.sampled_from(_ACCEPTED_IDS))
    def test_simple_graphs(self, case, convert):
        n, edges = case
        typed = [(convert(u), convert(v)) for u, v in edges]
        expected = self.check(n, lambda: list(typed))
        assert expected == _reference_canonical_loop(n, edges)  # never raises

    @settings(max_examples=300, deadline=None)
    @given(_NOISY_INPUTS)
    @example((3, [(0, 1), (1, 0)]))  # reversed duplicate
    @example((3, [(0, 1, 2), (3,)]))  # wrong arity must not realign
    @example((12, [(0, 1, 2), (3,)]))
    @example((12, [(0, 1), (2, 3, 4)]))
    @example((3, [(0, 2**64)]))  # above int64: the range error
    @example((3, [(2**63, 0), (1, 1)]))
    @example((3, [(-0.5, 1), (2, 1.9)]))  # floats truncate toward zero
    @example((0, [(0, 0)]))
    @example((0, []))
    def test_noisy_inputs(self, case):
        n, edges = case
        self.check(n, lambda: list(edges))

    @settings(max_examples=100, deadline=None)
    @given(_NOISY_INPUTS)
    def test_iterable_failing_part_way(self, case):
        n, edges = case
        self.check(n, lambda: _failing_after(edges))

    @pytest.mark.parametrize(
        "num_vertices, make_edges",
        [
            (3, lambda: 5),  # not iterable at all
            (3, lambda: [3]),  # an element that is not a pair
            (2**62, lambda: [(2**40, 7), (3, 2**61)]),  # keys beyond int64
            (2**62, lambda: [(2**40, 7), (7, 2**40)]),
            (4, lambda: ((u, v) for u, v in [(3, 0), (2, 1), (0, 3)])),
        ],
    )
    def test_edge_cases(self, num_vertices, make_edges):
        self.check(num_vertices, make_edges)

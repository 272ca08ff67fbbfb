"""Pure ≡ numpy byte-identity for the streaming data-plane kernels (ISSUE 9).

Covers the overlay merge (``compact_journal``, checked against the
last-op-wins journal merge it replaced), batch
pre-validation (``validate_batch``, including the exact exception type,
message and first-offender order), the recolor scan (``first_monochrome``),
CSR assembly (``build_csr``) and the small column reducers the tick stats
read (``max_value`` / ``count_distinct`` / ``encode_edge_keys``) — on
randomized churn traces, the same style as ``test_equivalence.py``: one
dispatcher call per backend on identical inputs, exactly equal outputs,
container types included.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro import kernels
from repro.errors import GraphError
from repro.graph.generators import union_of_random_forests
from repro.graph.graph import Graph
from repro.stream.dynamic_graph import DynamicGraph

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not importable"
)


def both(kernel_name, *args, **kwargs):
    """Run one dispatcher on both backends; return (pure_result, numpy_result)."""
    dispatcher = getattr(kernels, kernel_name)
    return (
        dispatcher(*args, backend=kernels.PURE, **kwargs),
        dispatcher(*args, backend=kernels.NUMPY, **kwargs),
    )


def both_raise(kernel_name, *args, **kwargs):
    """Both backends must raise; return the two exceptions."""
    dispatcher = getattr(kernels, kernel_name)
    errors = []
    for backend in (kernels.PURE, kernels.NUMPY):
        with pytest.raises(GraphError) as info:
            dispatcher(*args, backend=backend, **kwargs)
        errors.append(info.value)
    return errors


def _columns(pairs):
    us = array("l", (u for u, _ in pairs))
    vs = array("l", (v for _, v in pairs))
    return us, vs


def _random_journal(n, base_edges, length, seed):
    """A legal random op journal over a base edge set: inserts of absent
    canonical edges, deletes of live ones, re-inserts after deletes."""
    rng = random.Random(seed)
    live = set(base_edges)
    ops, us, vs = array("l"), array("l"), array("l")
    while len(ops) < length:
        if live and rng.random() < 0.45:
            e = sorted(live)[rng.randrange(len(live))]
            live.discard(e)
            op = 0
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in live:
                continue
            live.add(e)
            op = 1
        ops.append(op)
        us.append(e[0])
        vs.append(e[1])
    return (ops, us, vs), live


class TestReducers:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_max_value_and_count_distinct(self, seed):
        rng = random.Random(seed)
        column = array("l", (rng.randrange(50) for _ in range(400)))
        assert both("max_value", column) == (max(column), max(column))
        pure, numpy = both("count_distinct", column)
        assert pure == numpy == len(set(column))
        assert isinstance(numpy, int)

    def test_empty_columns(self):
        empty = array("l")
        assert both("max_value", empty) == (0, 0)
        assert both("count_distinct", empty) == (0, 0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_encode_edge_keys(self, seed):
        graph = union_of_random_forests(120, arboricity=3, seed=seed)
        pure, numpy = both("encode_edge_keys", 120, *graph.edge_endpoints)
        assert type(numpy) is array and numpy.typecode == "l"
        assert pure == numpy
        assert pure.tobytes() == numpy.tobytes()


class TestBuildCsr:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs_byte_identical(self, seed):
        n = 150
        graph = union_of_random_forests(n, arboricity=2 + seed % 3, seed=seed)
        pure, numpy = both("build_csr", n, *graph.edge_endpoints)
        for p, q in zip(pure, numpy):
            assert type(q) is array and q.typecode == "l"
            assert p == q and p.tobytes() == q.tobytes()

    def test_edgeless_and_empty(self):
        empty = array("l")
        for n in (0, 1, 7):
            pure, numpy = both("build_csr", n, empty, empty)
            assert pure == numpy
            assert list(pure[0]) == [0] * (n + 1) and len(pure[1]) == 0

    def test_slices_are_sorted_neighbor_lists(self):
        graph = union_of_random_forests(80, arboricity=3, seed=6)
        indptr, indices = kernels.build_csr(
            80, *graph.edge_endpoints, backend=kernels.NUMPY
        )
        for v in range(80):
            slice_ = list(indices[indptr[v] : indptr[v + 1]])
            assert slice_ == sorted(graph.neighbors(v))


class TestFirstMonochrome:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_scans_agree(self, seed):
        rng = random.Random(seed)
        colors = array("l", (rng.randrange(4) for _ in range(60)))
        pairs = [
            (rng.randrange(60), rng.randrange(60)) for _ in range(80)
        ]
        us, vs = _columns(pairs)
        for start in (0, 1, 40, 79, 80):
            pure, numpy = both("first_monochrome", colors, us, vs, start)
            assert pure == numpy
            assert isinstance(numpy, int)
        # Walk the scan the way the batch recolor loop does.
        start = 0
        seen = []
        while True:
            i = kernels.first_monochrome(colors, us, vs, start, backend=kernels.NUMPY)
            j = kernels.first_monochrome(colors, us, vs, start, backend=kernels.PURE)
            assert i == j
            if i < 0:
                break
            seen.append(i)
            start = i + 1
        assert seen == [
            k for k, (u, v) in enumerate(pairs) if colors[u] == colors[v]
        ]


def _last_op_wins_reference(num_vertices, base_u, base_v, ops, journal_u, journal_v):
    """The op-log merge ``compact_journal`` ran before the sorted overlay key
    columns became the one record of the delta: each touched edge's *last*
    journal op decides whether it is added, tombstoned, or collapses back
    onto the base.  Kept here as the reference the overlay merge must equal.
    """
    last: dict[tuple, int] = {}
    for op, u, v in zip(ops, journal_u, journal_v):
        last[(u, v)] = op
    changed = sorted(last)
    out_u = array("l")
    out_v = array("l")
    i = 0
    num_changed = len(changed)
    for e in zip(base_u, base_v):
        while i < num_changed and changed[i] < e:
            added = changed[i]
            if last[added] == 1:
                out_u.append(added[0])
                out_v.append(added[1])
            i += 1
        if i < num_changed and changed[i] == e:
            if last[e] == 1:  # deleted then re-inserted: still live
                out_u.append(e[0])
                out_v.append(e[1])
            i += 1  # final op 0 on a base edge: tombstoned, skip
        else:
            out_u.append(e[0])
            out_v.append(e[1])
    while i < num_changed:
        added = changed[i]
        if last[added] == 1:
            out_u.append(added[0])
            out_v.append(added[1])
        i += 1
    return out_u, out_v


def _overlay_keys(n, base_edges, live):
    """The sorted ``(added_keys, removed_keys)`` a journal leaves behind."""
    stride = max(n, 1)
    base = set(base_edges)
    return (
        array("l", sorted(u * stride + v for u, v in set(live) - base)),
        array("l", sorted(u * stride + v for u, v in base - set(live))),
    )


def _check_merge(n, base, ops, us, vs, live):
    """Both backends on the journal's overlay equal the reference, byte for
    byte; returns the merged edge list."""
    base_u, base_v = base.edge_endpoints
    expected = _last_op_wins_reference(n, base_u, base_v, ops, us, vs)
    pure, numpy = both("compact_journal", n, base_u, base_v, *_overlay_keys(n, base.edges, live))
    for got in (pure, numpy):
        for column, reference in zip(got, expected):
            assert type(column) is array and column.typecode == "l"
            assert column.tobytes() == reference.tobytes()
    return list(zip(*pure))


class TestCompactJournal:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_traces_byte_identical(self, seed):
        n = 90
        base = union_of_random_forests(n, arboricity=2, seed=seed)
        journal, live = _random_journal(n, base.edges, 300, seed)
        merged = _check_merge(n, base, *journal, live)
        assert Graph._from_columns(n, *_columns(merged)) == Graph(n, sorted(live))

    def test_tombstone_only_journal(self):
        base = union_of_random_forests(40, arboricity=2, seed=7)
        doomed = list(base.edges)[::2]
        ops = array("l", [0] * len(doomed))
        survivors = [e for e in base.edges if e not in set(doomed)]
        merged = _check_merge(40, base, ops, *_columns(doomed), survivors)
        assert merged == survivors

    def test_additions_only_journal(self):
        base = union_of_random_forests(40, arboricity=1, seed=9)
        rng = random.Random(9)
        fresh = sorted(
            {(u, v) for u, v in (sorted(rng.sample(range(40), 2)) for _ in range(30))}
            - set(base.edges)
        )
        ops = array("l", [1] * len(fresh))
        live = sorted(set(base.edges) | set(fresh))
        assert _check_merge(40, base, ops, *_columns(fresh), live) == live

    def test_additions_before_the_first_and_after_the_last_base_edge(self):
        base = Graph(10, [(3, 4), (4, 6), (5, 7)])
        fresh = [(0, 1), (1, 9), (2, 3), (8, 9), (5, 8)]
        ops = array("l", [1, 1, 1, 1, 1, 0])
        us, vs = _columns(fresh + [(4, 6)])
        live = sorted(set(base.edges) - {(4, 6)} | set(fresh))
        assert _check_merge(10, base, ops, us, vs, live) == live

    def test_empty_journal_returns_base_columns(self):
        base = union_of_random_forests(30, arboricity=1, seed=8)
        empty = array("l")
        pure, numpy = both("compact_journal", 30, *base.edge_endpoints, empty, empty)
        assert pure == numpy
        assert pure[0] == base.edge_endpoints[0]
        assert pure[1] == base.edge_endpoints[1]
        assert _check_merge(30, base, empty, empty, empty, base.edges) == list(base.edges)


class TestValidateBatch:
    """Exception parity: same type, same message, same first offender."""

    @staticmethod
    def _live_keys(n, graph, seed, churn=30):
        """Key columns of a DynamicGraph mid-overlay (base/added/removed)."""
        dg = DynamicGraph(graph, min_compaction_journal=2**60)
        rng = random.Random(seed)
        live = set(graph.edges)
        for _ in range(churn):
            if live and rng.random() < 0.5:
                e = sorted(live)[rng.randrange(len(live))]
                dg.remove_edge(*e)
                live.discard(e)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                e = (min(u, v), max(u, v))
                if u == v or e in live:
                    continue
                dg.add_edge(u, v)
                live.add(e)
        return dg, dg.base_edge_keys(), *dg.overlay_edge_keys()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_legal_batches_return_none_on_both(self, seed):
        n = 70
        graph = union_of_random_forests(n, arboricity=2, seed=seed)
        dg, base_keys, added, removed = self._live_keys(n, graph, seed)
        journal, _ = _random_journal(
            n, list(dg.edges()), 60, seed + 100
        )
        assert both(
            "validate_batch", n, *journal, base_keys, added, removed
        ) == (None, None)

    def test_out_of_range_message_parity(self):
        n = 50
        graph = union_of_random_forests(n, arboricity=2, seed=3)
        _, base_keys, added, removed = self._live_keys(n, graph, 3)
        ops = array("l", [1, 1])
        us = array("l", [1, 49])
        vs = array("l", [n + 3, 50])
        errors = both_raise(
            "validate_batch", n, ops, us, vs, base_keys, added, removed
        )
        assert str(errors[0]) == str(errors[1])
        assert str(errors[0]) == (
            f"batch update #0: edge (1, {n + 3}) references a vertex outside 0..{n - 1}"
        )

    def test_duplicate_insert_message_parity(self):
        n = 50
        graph = union_of_random_forests(n, arboricity=2, seed=4)
        _, base_keys, added, removed = self._live_keys(n, graph, 4)
        u, v = next(iter(zip(*graph.edge_endpoints)))
        ops = array("l", [1])
        errors = both_raise(
            "validate_batch", n, ops, array("l", [u]), array("l", [v]),
            base_keys, added, removed,
        )
        assert str(errors[0]) == str(errors[1])
        assert f"insert of live edge ({u}, {v})" in str(errors[0])

    def test_dead_delete_message_parity(self):
        n = 50
        graph = union_of_random_forests(n, arboricity=2, seed=5)
        _, base_keys, added, removed = self._live_keys(n, graph, 5)
        dead = next(
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if a * n + b not in set(base_keys)
            and a * n + b not in set(added)
        )
        ops = array("l", [0])
        errors = both_raise(
            "validate_batch", n, ops, array("l", [dead[0]]), array("l", [dead[1]]),
            base_keys, added, removed,
        )
        assert str(errors[0]) == str(errors[1])
        assert f"delete of dead edge {dead}" in str(errors[0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_first_offender_parity_on_random_illegal_batches(self, seed):
        """Corrupt a random position of a legal batch; both backends must
        blame the same (earliest) update with the same message."""
        n = 60
        rng = random.Random(seed)
        graph = union_of_random_forests(n, arboricity=2, seed=seed)
        dg, base_keys, added, removed = self._live_keys(n, graph, seed)
        journal, _ = _random_journal(n, list(dg.edges()), 40, seed + 7)
        ops, us, vs = (array("l", c) for c in journal)
        for position in sorted(rng.sample(range(40), 3)):
            ops[position] = 1 - ops[position]  # insert↔delete flips legality
        errors = both_raise(
            "validate_batch", n, ops, us, vs, base_keys, added, removed
        )
        assert type(errors[0]) is type(errors[1]) is GraphError
        assert str(errors[0]) == str(errors[1])

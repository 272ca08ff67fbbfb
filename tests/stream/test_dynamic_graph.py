"""Tests for the DynamicGraph overlay, including the snapshot property test."""

from __future__ import annotations

import random

import pytest

from repro.errors import GraphError
from repro.graph.generators import union_of_random_forests
from repro.graph.graph import Graph
from repro.stream.dynamic_graph import DynamicGraph


class TestBasics:
    def test_empty(self):
        dg = DynamicGraph.empty(5)
        assert dg.num_vertices == 5
        assert dg.num_edges == 0
        assert dg.journal_size == 0
        assert not dg.has_edge(0, 1)

    def test_add_and_remove(self):
        dg = DynamicGraph.empty(4)
        dg.add_edge(2, 0)
        assert dg.has_edge(0, 2)
        assert dg.has_edge(2, 0)
        assert dg.num_edges == 1
        assert dg.degree(0) == 1
        assert dg.degree(2) == 1
        assert dg.neighbors(0) == (2,)
        dg.remove_edge(0, 2)
        assert not dg.has_edge(0, 2)
        assert dg.num_edges == 0
        assert dg.degree(0) == 0

    def test_duplicate_add_rejected(self):
        dg = DynamicGraph(Graph(3, [(0, 1)]))
        with pytest.raises(GraphError):
            dg.add_edge(0, 1)
        dg.add_edge(1, 2)
        with pytest.raises(GraphError):
            dg.add_edge(2, 1)

    def test_remove_missing_rejected(self):
        dg = DynamicGraph(Graph(3, [(0, 1)]))
        with pytest.raises(GraphError):
            dg.remove_edge(1, 2)
        dg.remove_edge(0, 1)
        with pytest.raises(GraphError):
            dg.remove_edge(0, 1)

    def test_self_loop_and_range_rejected(self):
        dg = DynamicGraph.empty(3)
        with pytest.raises(GraphError):
            dg.add_edge(1, 1)
        with pytest.raises(GraphError):
            dg.add_edge(0, 3)
        with pytest.raises(GraphError):
            dg.remove_edge(-1, 0)

    def test_tombstone_and_readd(self):
        base = Graph(3, [(0, 1), (1, 2)])
        dg = DynamicGraph(base)
        dg.remove_edge(0, 1)
        assert not dg.has_edge(0, 1)
        assert dg.journal_size == 1
        dg.add_edge(0, 1)  # resurrect the tombstoned base edge
        assert dg.has_edge(0, 1)
        assert dg.journal_size == 0
        assert dg.snapshot() is base  # no overlay -> base returned as-is

    def test_neighbors_merge_base_and_overlay(self):
        base = Graph(5, [(0, 1), (0, 2), (0, 3)])
        dg = DynamicGraph(base)
        dg.remove_edge(0, 2)
        dg.add_edge(0, 4)
        assert dg.neighbors(0) == (1, 3, 4)
        assert dg.degree(0) == 3

    def test_edges_iterates_sorted_canonical(self):
        base = Graph(6, [(1, 2), (3, 4)])
        dg = DynamicGraph(base)
        dg.add_edge(0, 5)
        dg.add_edge(2, 3)
        dg.remove_edge(3, 4)
        assert list(dg.edges()) == [(0, 5), (1, 2), (2, 3)]


class TestCompaction:
    def test_compaction_triggers_and_resets_journal(self):
        dg = DynamicGraph.empty(100, min_compaction_journal=16)
        rng = random.Random(1)
        for _ in range(200):
            u, v = rng.randrange(100), rng.randrange(100)
            if u != v and not dg.has_edge(u, v):
                dg.add_edge(u, v)
        assert dg.num_compactions > 0
        assert dg.journal_size <= max(16, dg.num_edges // 4) + 1

    def test_compact_preserves_edge_set(self):
        base = union_of_random_forests(64, arboricity=2, seed=3)
        dg = DynamicGraph(base)
        expected = set(base.edges)
        for e in list(expected)[:10]:
            dg.remove_edge(*e)
            expected.discard(e)
        dg.add_edge(0, 63)
        expected.add((0, 63))
        compacted = dg.compact()
        assert set(compacted.edges) == expected
        assert dg.journal_size == 0
        assert dg.base is compacted

    def test_read_path_kernels_work_on_snapshot(self):
        """The compacted snapshot is a full CSR Graph: peeling, induced
        subgraphs and degeneracy all run unchanged."""
        dg = DynamicGraph(union_of_random_forests(128, arboricity=3, seed=5))
        rng = random.Random(7)
        live = set(dg.base.edges)
        for _ in range(300):
            if live and rng.random() < 0.5:
                e = live.pop()
                dg.remove_edge(*e)
            else:
                u, v = rng.randrange(128), rng.randrange(128)
                if u != v and not dg.has_edge(u, v):
                    dg.add_edge(u, v)
                    live.add((min(u, v), max(u, v)))
        snapshot = dg.snapshot()
        layers, rounds = snapshot.peel_layers(threshold=6)
        assert rounds >= 1
        sub = snapshot.induced_subgraph(range(64))
        assert sub.num_vertices == 64
        assert snapshot.num_edges == dg.num_edges


class TestCompactionEdgeCases:
    def test_tombstone_only_journal_compacts_to_survivors(self):
        base = union_of_random_forests(48, arboricity=2, seed=11)
        dg = DynamicGraph(base)
        doomed = list(base.edges)[::3]
        for e in doomed:
            dg.remove_edge(*e)
        survivors = [e for e in base.edges if e not in set(doomed)]
        assert dg.snapshot() == Graph(48, survivors)
        compacted = dg.compact()
        assert compacted == Graph(48, survivors)
        assert dg.journal_size == 0 and dg.journal_length == 0

    def test_tombstone_everything_compacts_to_empty(self):
        base = union_of_random_forests(32, arboricity=1, seed=2)
        dg = DynamicGraph(base)
        for e in list(base.edges):
            dg.remove_edge(*e)
        assert dg.num_edges == 0
        compacted = dg.compact()
        assert compacted.num_edges == 0 and compacted.num_vertices == 32
        assert dg.snapshot() is compacted

    def test_compact_on_empty_graph_is_noop(self):
        dg = DynamicGraph.empty(16)
        base = dg.base
        assert dg.compact() is base
        assert dg.num_compactions == 0
        assert dg.snapshot() is base

    def test_cancelled_overlay_compacts_as_noop(self):
        # Insert + delete of the same edge nets out: the overlay (and with
        # it the op log) is empty again, so compaction must not touch the
        # base or advance any counter.
        dg = DynamicGraph.empty(8)
        dg.add_edge(1, 2)
        dg.remove_edge(1, 2)
        base = dg.base
        assert dg.journal_length == 0
        assert dg.compact() is base
        assert dg.num_compactions == 0

    def test_back_to_back_compactions_do_not_advance_generation(self):
        base = union_of_random_forests(40, arboricity=2, seed=9)
        dg = DynamicGraph(base)
        dg.add_edge(0, 39)
        first = dg.compact()
        version = dg._version
        builds = dg.snapshot_builds
        compactions = dg.num_compactions
        # Zero intervening ops: the second compact is a pure no-op.
        second = dg.compact()
        assert second is first
        assert dg._version == version
        assert dg.snapshot_builds == builds
        assert dg.num_compactions == compactions
        assert dg.snapshot() is first

    def test_compact_promotes_cached_snapshot_without_second_replay(self):
        dg = DynamicGraph(union_of_random_forests(40, arboricity=2, seed=4))
        dg.add_edge(0, 39)
        cached = dg.snapshot()
        replays = dg.journal_replay_ops
        assert dg.compact() is cached  # promoted as-is, no rebuild
        assert dg.journal_replay_ops == replays


class TestTracedCompaction:
    def test_spans_carry_journal_length_and_delta_size(self):
        """ISSUE 9 satellite: ``overlay-read`` / ``compaction`` spans report
        the op-log length (``journal``) and net overlay size (``delta``)."""
        from repro.obs import Tracer

        tracer = Tracer()
        dg = DynamicGraph.empty(32, min_compaction_journal=2**60)
        dg.instrument(tracer)
        dg.add_edge(0, 1)
        dg.add_edge(1, 2)
        dg.add_edge(2, 3)
        dg.remove_edge(1, 2)  # net delta 2, log length 4
        dg.snapshot()
        dg.compact()
        by_name = {record.name: record for record in tracer.records}
        read = by_name["overlay-read"]
        assert read.args["journal"] == 4
        assert read.args["delta"] == 2
        compaction = by_name["compaction"]
        assert compaction.args["journal"] == 4
        assert compaction.args["delta"] == 2
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["stream.graph_compactions"] == 1
        assert counters["stream.snapshot_builds"] == 1
        assert counters["stream.journal_replay_ops"] == 4


class TestSnapshotProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_snapshot_equals_surviving_edge_set_after_1k_interleaved_ops(self, seed):
        """Acceptance property: after ≥1k random interleaved inserts/deletes,
        the compacted snapshot equals the CSR graph built from the surviving
        edge set."""
        n = 96
        rng = random.Random(seed)
        base = union_of_random_forests(n, arboricity=2, seed=seed)
        dg = DynamicGraph(base, min_compaction_journal=32)
        mirror = set(base.edges)
        pool = sorted(mirror)
        for step in range(1200):
            if mirror and rng.random() < 0.48:
                e = pool[rng.randrange(len(pool))]
                if e not in mirror:
                    continue
                mirror.discard(e)
                dg.remove_edge(*e)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                e = (min(u, v), max(u, v))
                if e in mirror:
                    continue
                mirror.add(e)
                pool.append(e)
                dg.add_edge(*e)
            if step % 400 == 199:  # also check mid-stream, not only at the end
                assert dg.snapshot() == Graph(n, sorted(mirror))
        assert dg.num_edges == len(mirror)
        assert dg.compact() == Graph(n, sorted(mirror))
        assert dg.num_compactions > 0


class _OpLogReference:
    """The op-log journal ``DynamicGraph`` kept before its sorted overlay key
    columns became the one record of the delta, as a test-only model.

    Every op is appended; the log is cleared when the overlay cancels out and
    rewritten to one op per overlay entry once it exceeds
    ``2 · overlay + min_compaction_journal``; compaction (same threshold as
    the graph) clears it; a snapshot build replays the whole log.
    """

    def __init__(self, base_edges, min_journal, fraction=0.25):
        self.base = set(base_edges)
        self.live = set(base_edges)
        self.added: dict = {}  # insertion order, as the log compression kept it
        self.removed: set = set()
        self.log: list = []
        self.min_journal = min_journal
        self.fraction = fraction
        self.replay_ops = 0
        self.stale = False  # an op since the last snapshot build

    def apply(self, op, e):
        if op:
            if e in self.removed:
                self.removed.discard(e)
            else:
                self.added[e] = None
            self.live.add(e)
        else:
            if e in self.added:
                del self.added[e]
            else:
                self.removed.add(e)
            self.live.discard(e)
        self.log.append((op, *e))
        self.stale = True
        overlay = len(self.added) + len(self.removed)
        if overlay == 0:
            self.log.clear()
        elif len(self.log) > 2 * overlay + self.min_journal:
            self.log = [(1, *e) for e in self.added] + [(0, *e) for e in sorted(self.removed)]
        if overlay > self.min_journal and overlay > int(self.fraction * max(len(self.live), 1)):
            self.snapshot()
            self.base = set(self.live)
            self.added.clear()
            self.removed.clear()
            self.log.clear()

    def snapshot(self):
        if (self.added or self.removed) and self.stale:
            self.replay_ops += len(self.log)
            self.stale = False


class TestJournalLength:
    @pytest.mark.parametrize("min_journal", [1, 4, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_running_length_matches_the_op_log(self, seed, min_journal):
        """``journal_length`` and ``journal_replay_ops`` keep the values the
        op log gave, after every op and every snapshot, through cancelling
        churn, log compression and compactions."""
        n = 40
        rng = random.Random(seed)
        base = union_of_random_forests(n, arboricity=2, seed=seed)
        dg = DynamicGraph(base, min_compaction_journal=min_journal)
        ref = _OpLogReference(base.edges, min_journal)
        hot: list = []  # recently touched edges, toggled again and again
        for _ in range(1500):
            roll = rng.random()
            if roll < 0.1:
                dg.snapshot()
                ref.snapshot()
                assert dg.journal_replay_ops == ref.replay_ops
                continue
            if roll < 0.7 and hot:
                e = rng.choice(hot)
            else:
                u, v = rng.sample(range(n), 2)
                e = (min(u, v), max(u, v))
                hot = [*hot[-5:], e]
            op = int(e not in ref.live)
            dg.apply_ops((op,), e[:1], e[1:])
            ref.apply(op, e)
            assert dg.journal_length == len(ref.log)
            assert dg.journal_replay_ops == ref.replay_ops
        assert set(dg.edges()) == ref.live
        assert dg.num_compactions > 0


class TestConstructorArguments:
    @pytest.mark.parametrize(
        "fraction", [float("nan"), float("inf"), float("-inf"), True, 0, -0.5, "0.25", None]
    )
    def test_bad_compaction_fraction_is_refused(self, fraction):
        with pytest.raises(GraphError, match="compaction_fraction"):
            DynamicGraph(Graph(10, [(0, 1), (1, 2)]), compaction_fraction=fraction)

    @pytest.mark.parametrize("minimum", [2.5, True, False, 0, -3, "64", None])
    def test_bad_min_compaction_journal_is_refused(self, minimum):
        with pytest.raises(GraphError, match="min_compaction_journal"):
            DynamicGraph(Graph(10, [(0, 1), (1, 2)]), min_compaction_journal=minimum)

    @pytest.mark.parametrize("fraction", [1, 0.25, 3.0, 1e308])
    def test_finite_positive_numbers_are_accepted(self, fraction):
        """Even a fraction whose product with m overflows a float only means
        "never compact"; no update may raise after it was applied."""
        dg = DynamicGraph(
            Graph(10, [(0, 1), (1, 2)]),
            compaction_fraction=fraction,
            min_compaction_journal=1,
        )
        for v in range(3, 10):
            dg.add_edge(0, v)
        assert dg.num_edges == 9
        assert set(dg.edges()) == {(0, 1), (1, 2)} | {(0, v) for v in range(3, 10)}


class TestFromState:
    def test_round_trip_rebuilds_the_overlay_without_a_replay(self):
        base = union_of_random_forests(30, arboricity=2, seed=5)
        dg = DynamicGraph(base, min_compaction_journal=2**60)
        doomed = list(base.edges)[::4]
        for e in doomed:
            dg.remove_edge(*e)
        for u, v in [(0, 29), (3, 17), (5, 6), (11, 28)]:
            if not dg.has_edge(u, v):
                dg.add_edge(u, v)
        dg.add_edge(*doomed[0])  # a re-insert cancels its tombstone
        restored = DynamicGraph.from_state(dg.state_columns())
        assert restored.state_columns() == dg.state_columns()
        assert restored._added == dg._added and restored._removed == dg._removed
        assert restored._added_adj == dg._added_adj
        assert restored._delta_degree == dg._delta_degree
        assert restored.num_edges == dg.num_edges
        assert restored.snapshot() == dg.snapshot()
        assert [restored.neighbors(v) for v in range(30)] == [
            dg.neighbors(v) for v in range(30)
        ]

"""Tests for the MPC cluster simulator."""

from __future__ import annotations

import json
import pickle
from array import array

import pytest

from repro.errors import (
    CommunicationLimitExceeded,
    GlobalMemoryExceeded,
    MemoryLimitExceeded,
    QuotaExceededError,
    SimulationError,
)
from repro.graph import generators
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.mpc.metrics import RoundStats


def make_cluster(n=256, m=512, **kwargs) -> MPCCluster:
    return MPCCluster(MPCConfig(num_vertices=n, num_edges=m, delta=0.5), **kwargs)


class TestRounds:
    def test_charge_rounds(self):
        cluster = make_cluster()
        cluster.charge_rounds(3, label="setup")
        assert cluster.stats.num_rounds == 3
        assert cluster.stats.rounds_by_label["setup"] == 3
        with pytest.raises(SimulationError):
            cluster.charge_rounds(-1, label="bad")

    def test_communication_round_counts_volume(self):
        cluster = make_cluster()
        rounds = cluster.communication_round([0, 2], [1, 3], [4, 6], label="test")
        assert rounds == 1
        assert cluster.stats.num_rounds == 1
        assert cluster.stats.total_words_sent == 10

    def test_negative_message_size_rejected(self):
        cluster = make_cluster()
        with pytest.raises(SimulationError):
            cluster.communication_round([0], [1], [-2])

    def test_oversized_round_splits(self):
        cluster = make_cluster(n=64, m=64)
        capacity = cluster.words_per_machine
        rounds = cluster.communication_round([0], [1], capacity * 3, label="big")
        assert rounds >= 3
        assert cluster.stats.num_rounds == rounds

    def test_oversized_round_raises_when_splitting_disabled(self):
        cluster = make_cluster(n=64, m=64)
        capacity = cluster.words_per_machine
        with pytest.raises(CommunicationLimitExceeded):
            cluster.communication_round(
                [0], [1], capacity * 3, label="big", split_oversized=False
            )

    def test_uniform_words_equal_a_words_column(self):
        uniform, column = make_cluster(), make_cluster()
        sources, destinations = array("l", range(50)), array("l", range(50, 0, -1))
        assert uniform.communication_round(sources, destinations, 3) == 1
        assert column.communication_round(
            list(sources), range(50, 0, -1), array("l", [3]) * 50
        ) == 1
        assert uniform.ledger_state() == column.ledger_state()

    @pytest.mark.parametrize(
        "sources, destinations, words, lengths",
        [
            ([0, 1], [1], 2, "2 sources, 1 destinations"),
            ([0], [1], [2, 3], "1 sources, 1 destinations, 2 words"),
            ([], [], [4], "0 sources, 0 destinations, 1 words"),
        ],
    )
    def test_column_length_mismatch_raises(self, sources, destinations, words, lengths):
        cluster = make_cluster()
        with pytest.raises(SimulationError, match=f"message columns differ in length: {lengths}$"):
            cluster.communication_round(sources, destinations, words)
        assert cluster.stats.num_rounds == 0


class TestVolumeRound:
    """Per-key volumes charge through the same body as message columns."""

    def test_equals_the_message_round_it_counts(self):
        sources = array("l", [i * 7 % 61 for i in range(300)])
        destinations = array("l", [i * 13 % 47 for i in range(300)])
        words = array("l", [i % 5 for i in range(300)])
        sent: dict[int, int] = {}
        received: dict[int, int] = {}
        for source, destination, size in zip(sources, destinations, words):
            sent[source] = sent.get(source, 0) + size
            received[destination] = received.get(destination, 0) + size
        for n, m in ((256, 512), (16, 16)):
            messages, volumes = make_cluster(n, m), make_cluster(n, m)
            rounds = messages.communication_round(sources, destinations, words, label="x")
            assert rounds == volumes.volume_round(
                (list(sent), list(sent.values())),
                (array("l", received), list(received.values())),
                label="x",
            )
            assert messages.ledger_state() == volumes.ledger_state()
            assert messages.stats == volumes.stats

    def test_zero_volume_keys_change_nothing(self):
        bare, padded = make_cluster(), make_cluster()
        bare.volume_round(([3], [5]), ([9], 5))
        padded.volume_round((range(40), [5 if k == 3 else 0 for k in range(40)]), ([9, 1], [5, 0]))
        assert bare.ledger_state() == padded.ledger_state()

    def test_oversized_volume_names_the_same_offender(self):
        messages, volumes = make_cluster(n=64, m=64), make_cluster(n=64, m=64)
        big = 3 * messages.words_per_machine
        with pytest.raises(CommunicationLimitExceeded) as by_messages:
            messages.communication_round([0], [1], big, split_oversized=False)
        with pytest.raises(CommunicationLimitExceeded) as by_volumes:
            volumes.volume_round(([0], big), ([1], big), split_oversized=False)
        assert str(by_messages.value) == str(by_volumes.value)

    @pytest.mark.parametrize(
        "sent, received, message",
        [
            (([0, 1], [2]), ([1], 2), "sent volume columns differ in length: 2 keys, 1 words"),
            (([0], 2), ([1], [1, 1]), "received volume columns differ in length: 1 keys, 2 words"),
            (([0], 3), ([1], 2), "sent and received volumes differ: 3 words sent, 2 received"),
            (([0], [-1]), ([1], [-1]), "message size must be non-negative"),
        ],
    )
    def test_bad_volumes_raise_and_charge_nothing(self, sent, received, message):
        cluster = make_cluster()
        with pytest.raises(SimulationError, match=f"^{message}$"):
            cluster.volume_round(sent, received)
        assert cluster.stats.num_rounds == 0


class TestStorage:
    def test_load_and_release_a_tag(self):
        cluster = make_cluster()
        cluster.load_graph(Graph(7, [(0, 1), (2, 3)]), tag="x")
        assert cluster.global_memory_in_use() == 7 + 2 * 2
        cluster.release_tag_everywhere("x")
        assert cluster.global_memory_in_use() == 0
        assert cluster.ledger_state()["keyed"] == []

    def test_store_spread_divides_evenly(self):
        cluster = make_cluster()
        cluster.store_spread(cluster.num_machines * 3, tag="big")
        assert cluster.peak_machine_memory() == 3
        for machine_id in (0, 1, cluster.num_machines // 2, cluster.num_machines - 1):
            assert cluster.machine_words(machine_id) == 3

    def test_store_spread_puts_the_remainder_after_the_full_shares(self):
        cluster = make_cluster()
        machines = cluster.num_machines
        cluster.store_spread(2 * machines + 5, tag="big")  # share 3
        full = (2 * machines + 5) // 3
        remainder = 2 * machines + 5 - 3 * full
        assert cluster.peak_machine_memory() == 3
        assert [cluster.machine_words(m) for m in (0, full - 1)] == [3, 3]
        assert cluster.machine_words(full) == remainder
        assert cluster.machine_words(machines - 1) == 0
        assert sum(cluster.machine_words(m) for m in range(machines)) == 2 * machines + 5

    def test_store_spread_rejects_negative(self):
        cluster = make_cluster()
        with pytest.raises(SimulationError):
            cluster.store_spread(-1)

    def test_store_spread_enforces_per_machine_capacity(self):
        """Regression: the even share must be checked against each machine's
        capacity (the docstring always promised it; the code stored with
        enforce=False)."""
        cluster = make_cluster()
        oversized = cluster.num_machines * (cluster.words_per_machine + 1)
        with pytest.raises(MemoryLimitExceeded):
            cluster.store_spread(oversized, tag="too-big")

    def test_store_spread_enforcement_respects_enforce_limits_flag(self):
        cluster = make_cluster(enforce_limits=False)
        oversized = cluster.num_machines * (cluster.words_per_machine + 1)
        cluster.store_spread(oversized, tag="measured")  # must not raise
        assert cluster.peak_machine_memory() > cluster.words_per_machine

    def test_global_memory_enforcement_optional(self):
        # enforce_limits=False isolates the global check: with per-machine
        # enforcement on, store_spread would trip MemoryLimitExceeded first.
        cluster = MPCCluster(
            MPCConfig(num_vertices=32, num_edges=32, delta=0.5),
            enforce_limits=False,
            enforce_global_memory=True,
        )
        with pytest.raises(GlobalMemoryExceeded):
            cluster.store_spread(cluster.config.global_memory_words() + 1000)

    def test_peak_memory_tracked(self):
        cluster = make_cluster()
        cluster.load_graph(Graph(7), tag="x")
        cluster.release_tag_everywhere("x")
        assert cluster.stats.peak_global_memory_words == 7
        assert cluster.peak_machine_memory() >= 1

    def test_spread_only_ledger_state_has_no_per_machine_entries(self):
        cluster = make_cluster()
        cluster.restore_spread(5 * cluster.num_machines + 3, tag="live")
        cluster.store_spread(40, tag="views")
        cluster.communication_round([0, 2], [1, 3], [4, 6])
        state = cluster.ledger_state()
        assert state["keyed"] == []
        assert state["spread"] == {"live": [5 * cluster.num_machines + 3], "views": [40]}
        assert state["peak_machine_words"] == 6 + 1

    def test_machine_id_out_of_range(self):
        cluster = make_cluster()
        with pytest.raises(SimulationError, match="out of range"):
            cluster.machine_words(cluster.num_machines + 5)


def _ledger_view(cluster: MPCCluster):
    return (
        cluster.global_memory_in_use(),
        cluster.peak_machine_memory(),
        cluster.stats.state_dict(),
        cluster.ledger_state(),
    )


def _global_only(**kwargs) -> MPCCluster:
    return make_cluster(enforce_limits=False, enforce_global_memory=True, **kwargs)


#: ``(cluster factory, failing call, exception)``; every cluster first holds
#: a spread object and a loaded graph, so "nothing changed" has content.
RAISING_STORES = {
    "store_spread": (
        make_cluster,
        lambda c: c.store_spread(c.num_machines * (c.words_per_machine + 1), tag="big"),
        MemoryLimitExceeded,
    ),
    "restore_spread": (
        make_cluster,
        lambda c: c.restore_spread(c.num_machines * (c.words_per_machine + 1), tag="live"),
        MemoryLimitExceeded,
    ),
    "load_graph": (
        lambda: make_cluster(n=16, m=16),
        lambda c: c.load_graph(generators.union_of_random_forests(200, arboricity=10, seed=1)),
        MemoryLimitExceeded,
    ),
    "load_graph-into-a-loaded-tag": (
        lambda: make_cluster(n=16, m=16),
        lambda c: c.load_graph(
            generators.union_of_random_forests(200, arboricity=10, seed=1), tag="x"
        ),
        MemoryLimitExceeded,
    ),
    "communication_round-traffic": (
        make_cluster,
        lambda c: c.communication_round(
            [0], [1], c.words_per_machine + 1, split_oversized=False
        ),
        CommunicationLimitExceeded,
    ),
    "store_spread-global": (
        _global_only,
        lambda c: c.store_spread(c.config.global_memory_words(), tag="big"),
        GlobalMemoryExceeded,
    ),
    "load_graph-global": (
        _global_only,
        lambda c: c.load_graph(Graph(c.config.global_memory_words()), tag="x"),
        GlobalMemoryExceeded,
    ),
    "communication_round-lengths": (
        make_cluster,
        lambda c: c.communication_round([0, 1], [1], [2, 2]),
        SimulationError,
    ),
}


class TestAtomicStores:
    """A store that raises changes nothing: not the words in use, not the
    peak, not the stats."""

    def test_failed_spread_leaves_no_words_on_the_offender(self):
        cluster = make_cluster()  # S = 64
        capacity = cluster.words_per_machine
        with pytest.raises(MemoryLimitExceeded) as excinfo:
            cluster.store_spread(cluster.num_machines * (capacity + 1), tag="too-big")
        assert excinfo.value.machine_id == 0
        assert excinfo.value.used_words == capacity + 1
        assert cluster.global_memory_in_use() == 0
        assert cluster.peak_machine_memory() == 0
        cluster.communication_round([0], [1], 1, label="unrelated")
        assert cluster.stats.peak_machine_memory_words == 0

    @pytest.mark.parametrize("case", sorted(RAISING_STORES))
    def test_every_raising_store_is_atomic(self, case):
        factory, call, error = RAISING_STORES[case]
        cluster = factory()
        cluster.restore_spread(3 * cluster.num_machines, tag="live")
        cluster.load_graph(Graph(2, [(0, 1)]), tag="x")
        before = _ledger_view(cluster)
        with pytest.raises(error):
            call(cluster)
        assert _ledger_view(cluster) == before

    def test_spread_onto_a_loaded_machine_below_a_released_peak_raises(self):
        """A spread covering a loaded machine must name it as the offender,
        even when the peak (set by a released load) is above every current
        value."""
        cluster = make_cluster(n=16, m=16)
        capacity = cluster.words_per_machine
        cluster.load_graph(Graph(600), tag="views")
        cluster.load_graph(Graph(300), tag="spike")
        cluster.release_tag_everywhere("spike")
        held = [cluster.machine_words(m) for m in range(cluster.num_machines)]
        assert cluster.peak_machine_memory() > max(held)
        share = capacity + 1 - max(held)
        with pytest.raises(MemoryLimitExceeded) as excinfo:
            cluster.store_spread(share * cluster.num_machines, tag="small")
        assert excinfo.value.machine_id == held.index(max(held))
        assert excinfo.value.used_words == capacity + 1

    def test_traffic_offender_is_the_lowest_machine_at_the_largest_volume(self):
        cluster = make_cluster()
        capacity = cluster.words_per_machine
        keys = sorted(range(1, 40), key=cluster.config.machine_of)[:2]
        with pytest.raises(CommunicationLimitExceeded) as excinfo:
            cluster.communication_round(
                [keys[1], keys[0]], [0, 0], capacity + 1, split_oversized=False
            )
        assert excinfo.value.direction == "received"
        cluster = make_cluster()
        with pytest.raises(CommunicationLimitExceeded) as excinfo:
            cluster.communication_round(
                [keys[1], keys[0]], [0, 1], capacity + 1, split_oversized=False
            )
        assert excinfo.value.direction == "sent"
        assert excinfo.value.machine_id == cluster.config.machine_of(keys[0])


def _load_words(cluster: MPCCluster, graph: Graph, into: dict[int, int]) -> dict[int, int]:
    """Add the words ``load_graph(graph)`` puts on each machine to ``into``,
    one key at a time (vertex keys first, then edge keys)."""
    n = graph.num_vertices
    for key in range(n + graph.num_edges):
        machine_id = cluster.config.machine_of(key)
        into[machine_id] = into.get(machine_id, 0) + (1 if key < n else 2)
    return into


class TestGraphLoading:
    def test_load_graph_accounts_words(self):
        graph = generators.union_of_random_forests(64, arboricity=2, seed=1)
        cluster = MPCCluster(MPCConfig.for_graph(graph))
        cluster.load_graph(graph)
        expected = graph.num_vertices + 2 * graph.num_edges
        assert cluster.global_memory_in_use() == expected

    def test_a_second_load_merges_per_machine_records(self):
        first, second = Graph(40, [(0, 1), (5, 6)]), Graph(25, [(v, v + 1) for v in range(24)])
        cluster = make_cluster()
        cluster.load_graph(first)
        cluster.load_graph(second)
        expected = _load_words(cluster, second, _load_words(cluster, first, {}))
        assert cluster.ledger_state()["keyed"] == [
            [machine_id, {"input": words}] for machine_id, words in sorted(expected.items())
        ]
        assert cluster.global_memory_in_use() == 40 + 2 * 2 + 25 + 2 * 24
        clone = MPCCluster.from_ledger_state(json.loads(json.dumps(cluster.ledger_state())))
        assert _ledger_view(clone) == _ledger_view(cluster)
        for machine_id in range(cluster.num_machines):
            assert clone.machine_words(machine_id) == cluster.machine_words(machine_id)

    def test_load_offender_is_the_first_machine_over_capacity_in_key_order(self):
        cluster = make_cluster(n=16, m=16)
        graph = generators.union_of_random_forests(200, arboricity=10, seed=1)
        words = _load_words(cluster, graph, {})
        first = next(
            cluster.config.machine_of(key)
            for key in range(graph.num_vertices + graph.num_edges)
            if words[cluster.config.machine_of(key)] > cluster.words_per_machine
        )
        with pytest.raises(MemoryLimitExceeded) as excinfo:
            cluster.load_graph(graph)
        assert (excinfo.value.machine_id, excinfo.value.used_words) == (first, words[first])

    def test_snapshot_reports_configuration(self):
        cluster = make_cluster()
        cluster.charge_rounds(2, "x")
        snap = cluster.snapshot()
        assert snap["rounds"] == 2.0
        assert snap["num_machines"] == float(cluster.num_machines)
        assert snap["words_per_machine"] == float(cluster.words_per_machine)


class TestSnapshotAccounting:
    """Focused coverage for MPCCluster.snapshot(): round labels, peak-memory
    observation and oversized-split accounting (previously only exercised
    incidentally through the pipelines)."""

    def test_snapshot_tracks_peak_memory_observation(self):
        cluster = make_cluster()
        cluster.store_spread(40 * cluster.num_machines, tag="spike")
        cluster.release_tag_everywhere("spike")
        cluster.load_graph(Graph(5), tag="steady")
        snap = cluster.snapshot()
        assert snap["peak_machine_memory_words"] == 40.0
        assert snap["peak_global_memory_words"] == 40.0 * cluster.num_machines
        assert snap["global_budget_words"] == float(cluster.config.global_memory_words())

    def test_oversized_split_charges_extra_labelled_rounds(self):
        cluster = make_cluster(n=64, m=64)
        capacity = cluster.words_per_machine
        rounds = cluster.communication_round([0], [1], capacity * 3, label="bulk")
        labels = cluster.stats.rounds_by_label
        assert labels["bulk"] == 1
        assert labels["bulk:oversized-split"] == rounds - 1
        snap = cluster.snapshot()
        assert snap["rounds"] == float(rounds)
        assert snap["max_round_volume"] == float(capacity * 3)

    def test_round_labels_accumulate_across_sources(self):
        cluster = make_cluster()
        cluster.communication_round([0], [1], 2, label="exchange")
        cluster.charge_rounds(3, label="primitive")
        cluster.communication_round([1], [2], 1, label="exchange")
        assert cluster.stats.rounds_by_label == {"exchange": 2, "primitive": 3}
        assert cluster.snapshot()["rounds"] == 5.0


class TestQuotaCappedForks:
    """ISSUE 5: quota-aware fork + breach detection on fold."""

    def test_fork_carries_its_quota_and_checks_it(self):
        cluster = make_cluster()
        fork = cluster.fork(memory_quota=100)
        assert fork.memory_quota == 100
        assert cluster.memory_quota is None  # never inherited
        fork.store_spread(80, tag="t")
        fork.check_quota()  # within quota: no-op
        fork.store_spread(30, tag="t")
        with pytest.raises(QuotaExceededError) as excinfo:
            fork.check_quota()
        assert excinfo.value.used_words == 110
        assert excinfo.value.quota_words == 100

    def test_merge_parallel_detects_the_breach_before_folding(self):
        cluster = make_cluster()
        ok = cluster.fork(memory_quota=100)
        ok.store_spread(40, tag="t")
        hog = cluster.fork(memory_quota=100)
        hog.store_spread(140, tag="t")
        rounds_before = cluster.stats.num_rounds
        with pytest.raises(QuotaExceededError):
            cluster.merge_parallel([ok, hog])
        # Nothing half-merged: the breach fires before any fold arithmetic.
        assert cluster.stats.num_rounds == rounds_before
        assert cluster.stats.peak_global_memory_words == 0

    def test_quota_breach_is_about_the_peak_not_the_current_use(self):
        cluster = make_cluster()
        fork = cluster.fork(memory_quota=100)
        fork.store_spread(120, tag="t")
        fork.release_tag_everywhere("t")
        assert fork.global_memory_in_use() == 0
        with pytest.raises(QuotaExceededError):
            fork.check_quota()  # the high-water mark breached, release or not

    def test_uncapped_forks_never_raise(self):
        cluster = make_cluster()
        fork = cluster.fork()
        assert fork.memory_quota is None
        fork.store_spread(10_000, tag="t")
        fork.check_quota()
        cluster.merge_parallel([fork])

    def test_invalid_quota_is_rejected(self):
        cluster = make_cluster()
        with pytest.raises(SimulationError):
            cluster.fork(memory_quota=0)


class TestRoundStatsMergeParallel:
    def test_rounds_fold_as_max_not_sum(self):
        parent = RoundStats()
        branches = []
        for depth in (2, 5, 3):
            branch = RoundStats()
            for i in range(depth):
                branch.record_round(f"work-{i}", 10, 4, 4)
            branches.append(branch)
        charged = parent.merge_parallel(branches)
        assert charged == 5
        assert parent.num_rounds == 5  # max, not 2 + 5 + 3

    def test_superstep_volume_is_summed_and_machine_peak_maxed(self):
        a, b = RoundStats(), RoundStats()
        a.record_round("x", 100, 30, 20)
        b.record_round("y", 50, 10, 60)
        parent = RoundStats()
        parent.merge_parallel([a, b])
        record = parent.rounds[0]
        assert record.words_sent == 150
        assert record.max_machine_sent == 30
        assert record.max_machine_received == 60

    def test_superstep_labels_follow_critical_path(self):
        short, long = RoundStats(), RoundStats()
        short.record_round("short-only", 1, 1, 1)
        for i in range(3):
            long.record_round(f"long-{i}", 1, 1, 1)
        parent = RoundStats()
        parent.merge_parallel([short, long])
        assert [r.label for r in parent.rounds] == ["long-0", "long-1", "long-2"]

    def test_memory_peaks_fold_as_sum(self):
        a, b = RoundStats(), RoundStats()
        a.observe_memory(100, 1000)
        b.observe_memory(70, 500)
        parent = RoundStats()
        parent.observe_memory(50, 200)
        parent.merge_parallel([a, b])
        assert parent.peak_machine_memory_words == 170
        assert parent.peak_global_memory_words == 1500

    def test_empty_and_none_branches_are_noops(self):
        parent = RoundStats()
        assert parent.merge_parallel([]) == 0
        assert parent.merge_parallel([None, RoundStats()]) == 0
        assert parent.num_rounds == 0


class TestClusterForkAndMerge:
    def test_fork_shares_provisioning_with_empty_ledger(self):
        parent = make_cluster()
        parent.charge_rounds(3, label="before")
        child = parent.fork()
        assert child.config is parent.config
        assert child.stats.num_rounds == 0
        assert child.global_memory_in_use() == 0
        child.charge_rounds(1, label="child")
        assert parent.stats.num_rounds == 3  # forks never write through

    def test_fork_round_trips_through_pickle(self):
        child = make_cluster().fork()
        child.charge_rounds(2, label="work")
        child.load_graph(Graph(7), tag="part")
        clone = pickle.loads(pickle.dumps(child))
        assert clone.stats.num_rounds == 2
        assert clone.global_memory_in_use() == 7

    def test_merge_accepts_clusters_and_bare_stats(self):
        parent = make_cluster()
        child = parent.fork()
        child.charge_rounds(4, label="a")
        stats = RoundStats()
        stats.record_round("b", 0, 0, 0)
        assert parent.merge_parallel([child, stats, None]) == 4
        assert parent.stats.num_rounds == 4

"""Tests for the MPC cluster simulator."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import (
    CommunicationLimitExceeded,
    GlobalMemoryExceeded,
    QuotaExceededError,
    SimulationError,
)
from repro.graph import generators
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
        rounds = cluster.communication_round([(0, 1, 4), (2, 3, 6)], label="test")
        assert rounds == 1
        assert cluster.stats.num_rounds == 1
        assert cluster.stats.total_words_sent == 10

    def test_negative_message_size_rejected(self):
        cluster = make_cluster()
        with pytest.raises(SimulationError):
            cluster.communication_round([(0, 1, -2)])

    def test_oversized_round_splits(self):
        cluster = make_cluster(n=64, m=64)
        capacity = cluster.words_per_machine
        rounds = cluster.communication_round([(0, 1, capacity * 3)], label="big")
        assert rounds >= 3
        assert cluster.stats.num_rounds == rounds

    def test_oversized_round_raises_when_splitting_disabled(self):
        cluster = make_cluster(n=64, m=64)
        capacity = cluster.words_per_machine
        with pytest.raises(CommunicationLimitExceeded):
            cluster.communication_round(
                [(0, 1, capacity * 3)], label="big", split_oversized=False
            )

    def test_store_tag_keeps_received_payload(self):
        cluster = make_cluster()
        cluster.communication_round([(0, 1, 5)], store_tag="views")
        assert cluster.global_memory_in_use() == 5
        cluster.release_tag_everywhere("views")
        assert cluster.global_memory_in_use() == 0


class TestStorage:
    def test_store_and_release_at_key(self):
        cluster = make_cluster()
        cluster.store_at_key(7, 10, tag="x")
        assert cluster.global_memory_in_use() == 10
        cluster.release_at_key(7, 10, tag="x")
        assert cluster.global_memory_in_use() == 0

    def test_store_spread_divides_evenly(self):
        cluster = make_cluster()
        cluster.store_spread(cluster.num_machines * 3, tag="big")
        peak = max(m.stored_words for m in cluster._machines.values())
        assert peak <= 3 + 1

    def test_store_spread_rejects_negative(self):
        cluster = make_cluster()
        with pytest.raises(SimulationError):
            cluster.store_spread(-1)

    def test_store_spread_enforces_per_machine_capacity(self):
        """Regression: the even share must be checked against each machine's
        capacity (the docstring always promised it; the code stored with
        enforce=False)."""
        from repro.errors import MemoryLimitExceeded

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
        cluster.store_at_key(1, 7)
        cluster.release_at_key(1, 7)
        assert cluster.stats.peak_global_memory_words >= 7
        assert cluster.peak_machine_memory() >= 7

    def test_machine_id_out_of_range(self):
        cluster = make_cluster()
        with pytest.raises(SimulationError):
            cluster.machine(cluster.num_machines + 5)


class TestGraphLoading:
    def test_load_graph_accounts_words(self):
        graph = generators.union_of_random_forests(64, arboricity=2, seed=1)
        cluster = MPCCluster(MPCConfig.for_graph(graph))
        cluster.load_graph(graph)
        expected = graph.num_vertices + 2 * graph.num_edges
        assert cluster.global_memory_in_use() == expected

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
        cluster.store_at_key(3, 40, tag="spike")
        cluster.release_at_key(3, 40, tag="spike")
        cluster.store_at_key(3, 5, tag="steady")
        snap = cluster.snapshot()
        assert snap["peak_machine_memory_words"] == 40.0
        assert snap["peak_global_memory_words"] == 40.0
        assert snap["global_budget_words"] == float(cluster.config.global_memory_words())

    def test_oversized_split_charges_extra_labelled_rounds(self):
        cluster = make_cluster(n=64, m=64)
        capacity = cluster.words_per_machine
        rounds = cluster.communication_round([(0, 1, capacity * 3)], label="bulk")
        labels = cluster.stats.rounds_by_label
        assert labels["bulk"] == 1
        assert labels["bulk:oversized-split"] == rounds - 1
        snap = cluster.snapshot()
        assert snap["rounds"] == float(rounds)
        assert snap["max_round_volume"] == float(capacity * 3)

    def test_round_labels_accumulate_across_sources(self):
        cluster = make_cluster()
        cluster.communication_round([(0, 1, 2)], label="exchange")
        cluster.charge_rounds(3, label="primitive")
        cluster.communication_round([(1, 2, 1)], label="exchange")
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
        child.store_at_key(5, 7, tag="part")
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

"""Tests for RoundStats bookkeeping."""

from __future__ import annotations

import pytest

from repro.mpc.metrics import RoundStats


class TestRoundStats:
    def test_record_and_counters(self):
        stats = RoundStats()
        stats.record_round("a", words_sent=10, max_machine_sent=5, max_machine_received=7)
        stats.record_round("a", words_sent=2, max_machine_sent=2, max_machine_received=2)
        stats.record_round("b", words_sent=0, max_machine_sent=0, max_machine_received=0)
        assert stats.num_rounds == 3
        assert stats.total_words_sent == 12
        assert stats.max_round_volume == 10
        assert stats.rounds_by_label == {"a": 2, "b": 1}

    def test_observe_memory_tracks_peaks(self):
        stats = RoundStats()
        stats.observe_memory(5, 100)
        stats.observe_memory(3, 200)
        assert stats.peak_machine_memory_words == 5
        assert stats.peak_global_memory_words == 200

    def test_summary_keys(self):
        stats = RoundStats()
        stats.record_round("a", 1, 1, 1)
        summary = stats.summary()
        assert set(summary) == {
            "rounds",
            "total_words_sent",
            "max_round_volume",
            "peak_machine_memory_words",
            "peak_global_memory_words",
        }

    def test_record_round_returns_indexed_record(self):
        stats = RoundStats()
        first = stats.record_round("setup", 4, 2, 3)
        second = stats.record_round("setup", 6, 6, 1)
        assert (first.index, second.index) == (0, 1)
        assert first.label == "setup"
        assert second.words_sent == 6
        assert second.max_machine_sent == 6
        assert second.max_machine_received == 1

    def test_summary_values_reflect_records(self):
        stats = RoundStats()
        stats.record_round("a", 10, 5, 7)
        stats.record_round("b", 3, 3, 3)
        stats.observe_memory(12, 80)
        summary = stats.summary()
        assert summary["rounds"] == 2.0
        assert summary["total_words_sent"] == 13.0
        assert summary["max_round_volume"] == 10.0
        assert summary["peak_machine_memory_words"] == 12.0
        assert summary["peak_global_memory_words"] == 80.0

    def test_empty_stats_edge_cases(self):
        stats = RoundStats()
        assert stats.num_rounds == 0
        assert stats.total_words_sent == 0
        assert stats.max_round_volume == 0
        assert stats.summary()["rounds"] == 0.0


class TestEmptyParallelFolds:
    """ISSUE 5 satellite: budget-exhausted scheduler ticks fold *empty*
    supersteps — zero rounds charged, never a crash or a spurious round."""

    def test_fold_with_no_branches_is_a_no_op(self):
        stats = RoundStats()
        stats.record_round("base", 1, 1, 1)
        stats.observe_memory(5, 50)
        assert stats.merge_parallel([]) == 0
        assert stats.merge_parallel([None, None]) == 0
        assert stats.num_rounds == 1
        assert stats.peak_machine_memory_words == 5
        assert stats.peak_global_memory_words == 50

    def test_fold_of_all_empty_deltas_charges_zero_but_observes_memory(self):
        stats = RoundStats()
        idle_a, idle_b = RoundStats(), RoundStats()
        idle_a.observe_memory(7, 70)
        idle_b.observe_memory(3, 30)
        assert stats.merge_parallel([idle_a, idle_b]) == 0
        assert stats.num_rounds == 0
        assert stats.rounds_by_label == {}
        # Co-residency still observed: idle tenants occupy the fleet.
        assert stats.peak_machine_memory_words == 10
        assert stats.peak_global_memory_words == 100

    def test_since_at_the_head_is_an_empty_delta_carrying_peaks(self):
        stats = RoundStats()
        stats.record_round("a", 4, 2, 2)
        stats.observe_memory(9, 90)
        delta = stats.since(stats.num_rounds)
        assert delta.num_rounds == 0
        assert delta.peak_machine_memory_words == 9
        assert delta.peak_global_memory_words == 90

    def test_since_beyond_the_head_raises(self):
        stats = RoundStats()
        stats.record_round("a", 1, 1, 1)
        with pytest.raises(ValueError, match="beyond the ledger head"):
            stats.since(2)
        with pytest.raises(ValueError, match="non-negative"):
            stats.since(-1)

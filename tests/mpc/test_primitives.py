"""Tests for the standard MPC primitives."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.mpc.primitives import (
    AGGREGATE_ROUNDS,
    GATHER_ROUNDS,
    aggregate_by_key,
    gather_bundles,
)


@pytest.fixture
def cluster() -> MPCCluster:
    return MPCCluster(MPCConfig(num_vertices=512, num_edges=1024, delta=0.5))


class TestAggregate:
    def test_combines_values(self, cluster):
        items = [(1, 2), (1, 3), (2, 10)]
        result = aggregate_by_key(cluster, items, combine=lambda a, b: a + b)
        assert result == {1: 5, 2: 10}
        assert cluster.stats.num_rounds == AGGREGATE_ROUNDS

    def test_min_combine(self, cluster):
        result = aggregate_by_key(cluster, [(7, 4), (7, 1), (9, 2)], combine=min)
        assert result == {7: 1, 9: 2}


class TestGather:
    def test_gather_bundles_delivers_volume(self, cluster):
        # Node 5 wants the bundles of 0 (3 words) and 1 (2 words), node 6
        # the bundle of 2 (1 word).
        rounds = gather_bundles(cluster, ([0, 1, 2], [3, 2, 1]), ([5, 6], [5, 1]))
        assert rounds == cluster.stats.num_rounds == GATHER_ROUNDS + 1
        assert cluster.stats.total_words_sent == 3 + 2 + 1

    def test_gather_charges_like_the_listed_requests(self, cluster):
        # The same delivery listed request by request.
        listed = MPCCluster(MPCConfig(num_vertices=512, num_edges=1024, delta=0.5))
        listed.charge_rounds(GATHER_ROUNDS, label="gather:plumbing")
        listed.communication_round([0, 1, 2], [5, 5, 6], [3, 2, 1], label="gather:deliver")
        gather_bundles(cluster, ([0, 1, 2], [3, 2, 1]), ([5, 6], [5, 1]))
        assert cluster.ledger_state() == listed.ledger_state()

    def test_gather_rejects_unequal_sides(self, cluster):
        with pytest.raises(SimulationError, match="sent and received volumes differ"):
            gather_bundles(cluster, ([0, 1], [3, 2]), ([5], [4]))

    def test_gather_returns_the_split_delivery_rounds(self, cluster):
        oversized = 3 * cluster.words_per_machine
        rounds = gather_bundles(cluster, ([0], oversized), ([1], oversized))
        assert rounds == cluster.stats.num_rounds == GATHER_ROUNDS + 3
        assert cluster.stats.rounds_by_label["gather:deliver:oversized-split"] == 2

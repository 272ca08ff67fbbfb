"""Coreness-guess λ̂ seeding (``lambda_seed="coreness"``).

The default IncrementalOrientation seeds λ̂ with the snapshot's exact
degeneracy; the opt-in coreness path runs the guess-ladder peel and seeds
``2·g*`` instead — always ≥ the degeneracy, usually above it by the
ladder's round-up.  These tests pin the seed's value, its plumbing through
the service and the engine, and the regression it was built for: fewer
``"saturated"`` rebuilds on a densifying trace.
"""

from __future__ import annotations

import pytest

from repro.core.coreness import geometric_guesses
from repro.errors import GraphError
from repro.graph.arboricity import arboricity_upper_bound
from repro.graph.generators import complete_graph, union_of_random_forests
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.stream.engine import StreamEngine
from repro.stream.orientation import seed_lambda_from_coreness
from repro.stream.service import StreamingService
from repro.stream.workloads import densifying_core_trace


class TestSeedValue:
    def test_clique_seed_lands_in_the_ladder_band(self):
        # K6: degeneracy 5; ε=0.5 ladder 1,2,3,4,6 → smallest clearing guess
        # is g*=3 (threshold 2g=6 ≥ 5), so the seed is 6 — above the exact
        # degeneracy by the round-up, within the (1+ε) band.
        k6 = complete_graph(6)
        seed = seed_lambda_from_coreness(k6)
        assert seed == 6
        assert arboricity_upper_bound(k6) <= seed <= 1.5 * arboricity_upper_bound(k6) + 2

    def test_seed_never_undershoots_the_degeneracy(self):
        for graph in (
            complete_graph(9),
            union_of_random_forests(100, arboricity=4, seed=1),
        ):
            assert seed_lambda_from_coreness(graph) >= arboricity_upper_bound(graph)

    def test_empty_and_edgeless_graphs_seed_one(self):
        from repro.graph.graph import Graph

        assert seed_lambda_from_coreness(Graph.empty(0)) == 1
        assert seed_lambda_from_coreness(Graph.empty(5)) == 1

    def test_ladder_rounds_are_charged_to_the_cluster(self):
        """The guesses are independent peels: one superstep charges the
        slowest guess plus one combine round."""
        graph = union_of_random_forests(200, arboricity=3, seed=7)
        cluster = MPCCluster(MPCConfig.for_graph(graph))
        before = cluster.stats.num_rounds
        seed_lambda_from_coreness(graph, cluster=cluster)
        slowest = max(
            graph.peel_layers(2 * guess)[1]
            for guess in geometric_guesses(graph.max_degree(), 0.5)
        )
        assert cluster.stats.num_rounds - before == slowest + 1


class TestServicePlumbing:
    def test_unknown_lambda_seed_is_rejected(self):
        graph = complete_graph(4)
        with pytest.raises(GraphError, match="lambda_seed"):
            StreamingService(graph, lambda_seed="degeneracy++")

    def test_coreness_seed_widens_the_cap(self):
        k6 = complete_graph(6)
        default = StreamingService(k6)
        seeded = StreamingService(k6, lambda_seed="coreness")
        assert default.orientation.lambda_bound == 5
        assert seeded.orientation.lambda_bound == 6
        assert seeded.orientation.outdegree_cap > default.orientation.outdegree_cap

    def test_engine_forwards_lambda_seed_to_the_tenant(self):
        k6 = complete_graph(6)
        with StreamEngine(seed=0) as engine:
            plain = engine.add_tenant("plain", k6)
            seeded = engine.add_tenant("seeded", k6, lambda_seed="coreness")
            assert plain.orientation.lambda_bound == 5
            assert seeded.orientation.lambda_bound == 6


class TestSaturationRegression:
    def test_fewer_saturation_rebuilds_on_a_densifying_trace(self):
        trace = densifying_core_trace(
            64, core_size=16, num_batches=6, batch_size=120, seed=3
        )
        default = StreamingService(trace.initial, seed=0)
        default.apply_all(trace.batches)
        default.verify()
        seeded = StreamingService(trace.initial, seed=0, lambda_seed="coreness")
        seeded.apply_all(trace.batches)
        seeded.verify()
        default_saturations = default.orientation.rebuild_reasons.get("saturated", 0)
        seeded_saturations = seeded.orientation.rebuild_reasons.get("saturated", 0)
        assert default_saturations > 0, (
            "trace no longer saturates the default cap; regression test is vacuous"
        )
        assert seeded_saturations < default_saturations

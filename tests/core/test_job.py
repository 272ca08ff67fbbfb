"""The Theorem 1.1/1.2 job skeleton: one argument check and one branch rule.

``orient()`` and ``color()`` share their set-up (:mod:`repro.core._job`),
so every case here runs against both jobs: a bad ``k`` or ``k_factor`` is
refused by name with :class:`ParameterError` whichever branch is taken, and
a δ too large for ``n^δ`` to be a float is refused the same way.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core._job import set_up_job
from repro.core.coloring import _color_layered_graph, color
from repro.core.full_assignment import complete_layer_assignment
from repro.core.orientation import orient
from repro.errors import ParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig

FORCE = {orient: "force_edge_partitioning", color: "force_vertex_partitioning"}


@pytest.fixture(params=[orient, color], ids=["orient", "color"])
def job(request):
    return request.param


@pytest.fixture
def forest():
    return generators.union_of_random_forests(60, arboricity=3, seed=2)


class TestArgumentChecks:
    @pytest.mark.parametrize("force", [None, True, False])
    @pytest.mark.parametrize("k", [0, -4])
    def test_k_below_one_is_refused_on_every_branch(self, job, forest, k, force):
        with pytest.raises(ParameterError, match=r"^k must be at least 1"):
            job(forest, k=k, seed=1, **{FORCE[job]: force})

    @pytest.mark.parametrize("k", [2.5, "4", 3.0])
    def test_a_non_integer_k_is_refused(self, job, forest, k):
        with pytest.raises(ParameterError, match=r"^k must be an integer"):
            job(forest, k=k, seed=1)

    @pytest.mark.parametrize("k_factor", [math.nan, math.inf, -math.inf, -1.0, 0.0, "2", True])
    @pytest.mark.parametrize("k", [None, 8])
    def test_a_bad_k_factor_is_refused(self, job, forest, k, k_factor):
        with pytest.raises(ParameterError, match=r"^k_factor must be a positive finite number"):
            job(forest, k=k, k_factor=k_factor, seed=1)

    def test_arguments_are_checked_before_the_empty_graph_signal(self, job):
        with pytest.raises(ParameterError, match=r"^k must be at least 1"):
            job(Graph(0), k=0)

    def test_a_refused_argument_leaves_a_given_cluster_untouched(self, job, forest):
        cluster = MPCCluster(MPCConfig.for_graph(forest))
        before = cluster.ledger_state()
        with pytest.raises(ParameterError):
            job(forest, k_factor=math.nan, cluster=cluster)
        assert cluster.ledger_state() == before

    @pytest.mark.parametrize("k", [1, 7])
    def test_valid_integer_k_and_fractional_k_factor_run(self, job, forest, k):
        run = job(forest, k=k, k_factor=0.5, seed=1)
        assert run.rounds >= 1


class TestLargeDelta:
    @pytest.mark.parametrize("delta", [400.0, 1e6])
    def test_a_delta_whose_power_overflows_is_refused(self, job, delta):
        with pytest.raises(ParameterError, match=r"delta=.* is too large"):
            job(generators.path(10), delta=delta)


    def test_the_lemma_4_1_set_size_limit_refuses_an_overflowing_delta(self):
        graph = generators.path(4)
        hpartition = complete_layer_assignment(graph, k=2).to_hpartition()
        cluster = MPCCluster(MPCConfig.for_graph(graph))
        with pytest.raises(ParameterError, match=r"delta=.* is too large"):
            _color_layered_graph(
                graph, hpartition, 6, cluster=cluster, rng=random.Random(1), delta=600.0
            )


class TestBranchRule:
    """``k > 4·log2 n`` picks the partition branch; ``force_*`` overrides it."""

    def _setup(self, graph, k, force=None):
        return set_up_job(graph, 0.5, k, 2.0, 1, None, force, 1, None)

    def test_threshold_is_four_log_n(self):
        graph = generators.path(256)  # log2 n = 8, threshold 32
        assert not self._setup(graph, 32).large_lambda
        assert self._setup(graph, 33).large_lambda

    def test_force_overrides_the_rule(self):
        graph = generators.path(256)
        assert self._setup(graph, 2, force=True).large_lambda
        assert not self._setup(graph, 64, force=False).large_lambda

    def test_per_part_k_is_two_log_n(self):
        assert self._setup(generators.path(256), 64).per_part_k == 16
        assert self._setup(generators.path(3), 64).per_part_k == 4

    def test_empty_graph_has_no_setup(self):
        assert self._setup(Graph(0), None) is None

    def test_guess_charges_one_round(self, forest):
        setup = self._setup(forest, None)
        assert setup.cluster.stats.num_rounds == 1
        assert self._setup(forest, 6).cluster.stats.num_rounds == 0
        assert setup.arboricity_proxy == math.ceil(setup.k / 2.0)

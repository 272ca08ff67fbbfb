"""Tests for MPCConfig."""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest

from repro.core.parameters import loglog
from repro.errors import ParameterError
from repro.graph import generators
from repro.mpc.config import MPCConfig, local_memory


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ParameterError):
            MPCConfig(num_vertices=0, num_edges=0)
        with pytest.raises(ParameterError):
            MPCConfig(num_vertices=10, num_edges=-1)
        with pytest.raises(ParameterError):
            MPCConfig(num_vertices=10, num_edges=0, delta=0.0)
        with pytest.raises(ParameterError):
            MPCConfig(num_vertices=10, num_edges=0, memory_constant=0.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_delta(self, delta):
        with pytest.raises(ParameterError, match="delta must be a positive finite number"):
            MPCConfig(num_vertices=10, num_edges=0, delta=delta)

    @pytest.mark.parametrize("delta", [400.0, 308.0])
    def test_rejects_a_delta_whose_local_memory_overflows(self, delta):
        # 10 ** 400.0 overflows outright; 4.0 · 10 ** 308.0 overflows to inf.
        with pytest.raises(ParameterError, match=r"delta=.* is too large"):
            MPCConfig(num_vertices=10, num_edges=0, delta=delta)

    def test_a_large_delta_that_fits_still_provisions(self):
        config = MPCConfig(num_vertices=10, num_edges=0, delta=300.0)
        assert config.words_per_machine == int(math.ceil(4.0 * 10**300.0))
        assert config.num_machines() == 1


class TestLocalMemory:
    def test_is_the_scaled_power(self):
        assert local_memory(1024, 0.5) == 32.0
        assert local_memory(1024, 0.5, 4) == 4 * (1024**0.5)

    @pytest.mark.parametrize(
        "n, delta, constant", [(10, 400.0, 1.0), (10, 308.0, 4.0), (2, 1e6, 1.0)]
    )
    def test_refuses_an_overflow(self, n, delta, constant):
        with pytest.raises(ParameterError, match=r"delta=.* is too large"):
            local_memory(n, delta, constant)


class TestDerivedQuantities:
    def test_strongly_sublinear_flag(self):
        assert MPCConfig(num_vertices=100, num_edges=10, delta=0.5).is_strongly_sublinear
        assert not MPCConfig(num_vertices=100, num_edges=10, delta=1.0).is_strongly_sublinear

    def test_words_per_machine_scales_with_delta(self):
        small = MPCConfig(num_vertices=10_000, num_edges=0, delta=0.25)
        large = MPCConfig(num_vertices=10_000, num_edges=0, delta=0.75)
        assert small.words_per_machine < large.words_per_machine

    def test_words_per_machine_sublinear(self):
        config = MPCConfig(num_vertices=10_000, num_edges=40_000, delta=0.5)
        assert config.words_per_machine < config.num_vertices

    def test_global_memory_covers_input(self):
        config = MPCConfig(num_vertices=1000, num_edges=5000, delta=0.5)
        assert config.global_memory_words() >= config.num_edges + config.num_vertices

    def test_num_machines_times_capacity_covers_budget(self):
        config = MPCConfig(num_vertices=1000, num_edges=5000, delta=0.5)
        assert config.num_machines() * config.words_per_machine >= config.global_memory_words()

    def test_machine_of_is_stable_and_in_range(self):
        config = MPCConfig(num_vertices=500, num_edges=1000, delta=0.5)
        machines = config.num_machines()
        for key in range(200):
            m = config.machine_of(key)
            assert 0 <= m < machines
            assert m == config.machine_of(key)

    def test_machine_count_is_derived_once_and_not_a_field(self):
        config = MPCConfig(num_vertices=500, num_edges=1000, delta=0.5)
        twin = MPCConfig(num_vertices=500, num_edges=1000, delta=0.5)
        expected = -(-config.global_memory_words() // config.words_per_machine)
        assert config.num_machines() == expected
        assert [f.name for f in dataclasses.fields(config)] == [
            "num_vertices", "num_edges", "delta", "memory_constant", "global_memory_factor",
        ]
        assert config == twin and hash(config) == hash(twin)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config and hash(clone) == hash(config)
        assert clone.num_machines() == expected
        assert clone.machine_of(12345) == config.machine_of(12345)
        grown = dataclasses.replace(config, num_edges=9000)
        assert grown.num_machines() > config.num_machines()

    def test_machine_of_spreads_keys(self):
        config = MPCConfig(num_vertices=5000, num_edges=20000, delta=0.5)
        machines = {config.machine_of(key) for key in range(1000)}
        assert len(machines) > 1

    def test_for_graph_constructor(self):
        graph = generators.union_of_random_forests(200, arboricity=2, seed=0)
        config = MPCConfig.for_graph(graph, delta=0.4)
        assert config.num_vertices == 200
        assert config.num_edges == graph.num_edges
        assert config.delta == 0.4

    def test_log_helpers(self):
        config = MPCConfig(num_vertices=2, num_edges=0)
        assert config.log_n >= 1.0
        assert loglog(config.num_vertices) >= 1.0

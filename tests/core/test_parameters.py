"""Tests for parameter selection (Lemma 3.13's parameter relations)."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.parameters import (
    Parameters,
    choose_parameters,
    density_bound,
    layers_and_steps,
    log2_ceil,
    log_n,
    loglog,
    peeling_round_cap,
)
from repro.errors import ParameterError


class TestParameters:
    def test_layer_out_degree_formula(self):
        params = Parameters(k=5, budget=64, steps=4, num_layers=3)
        assert params.layer_out_degree == (4 + 1) * 5

    def test_sqrt_budget(self):
        assert Parameters(k=2, budget=100, steps=3, num_layers=2).sqrt_budget == 10
        assert Parameters(k=2, budget=99, steps=3, num_layers=2).sqrt_budget == 9

    def test_rejects_invalid_values(self):
        with pytest.raises(ParameterError):
            Parameters(k=0, budget=64, steps=3, num_layers=2)
        with pytest.raises(ParameterError):
            Parameters(k=2, budget=2, steps=3, num_layers=2)
        with pytest.raises(ParameterError):
            Parameters(k=2, budget=64, steps=0, num_layers=2)
        with pytest.raises(ParameterError):
            Parameters(k=2, budget=64, steps=3, num_layers=0)

    def test_rejects_steps_not_exceeding_log_layers(self):
        # Lemma 3.7 requires s > log2(L): with L=8 we need s >= 4.
        with pytest.raises(ParameterError):
            Parameters(k=2, budget=256, steps=3, num_layers=8)
        Parameters(k=2, budget=256, steps=4, num_layers=8)


class TestHelpers:
    def test_log2_ceil(self):
        assert log2_ceil(1) == 0
        assert log2_ceil(2) == 1
        assert log2_ceil(5) == 3

    def test_loglog_clamped(self):
        assert loglog(2) == 1.0
        assert loglog(2**16) == pytest.approx(4.0)


def _reference_log_n(n):
    """The inline ``log n`` of the branch rule, the part count and GLM19."""
    return max(math.log2(max(n, 2)), 1.0)


def _reference_loglogs(n):
    """The inline ``log log n`` copies that ``loglog`` replaced: the Theorem
    1.1/1.2 bounds and validators, the Lemma 4.1 batch size (on
    ``max(n, 2)``) and the deleted ``MPCConfig.log_log_n`` (on ``n ≥ 1``)."""
    bounds = max(math.log2(max(math.log2(max(n, 4)), 2.0)), 1.0)
    batch_n = max(n, 2)
    batch = max(math.log2(max(math.log2(batch_n), 2.0)), 1.0)
    config_n = max(n, 1)
    config = max(math.log2(max(math.log2(config_n), 1.0)), 1.0)
    return bounds, batch, config


def _reference_peeling_round_cap(n):
    """The Barenboim–Elkin safety cap the LOCAL peeling, BE-MPC and GLM19
    each wrote out inline before ``peeling_round_cap``."""
    return 4 * max(int(math.ceil(math.log2(max(n, 2)))), 1) + 8


def _reference_layers_and_steps(k, budget, num_layers):
    """The ``(L, s)`` rule ``choose_parameters`` and
    ``partial_assignment_with_decay`` each computed inline."""
    if num_layers is None:
        if budget > k:
            num_layers = max(1, int(math.ceil(math.log(budget) / math.log(max(k, 2)))))
        else:
            num_layers = 1
    return num_layers, max(int(math.ceil(math.log2(max(num_layers, 2)))) + 1, 2)


class TestOneLogAndLogLog:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=-4, max_value=2**20),
            st.integers(min_value=10**7, max_value=10**39),
        )
    )
    @example(0)
    @example(3)
    @example(4)
    @example(5)
    @example(2**16)
    def test_equal_the_replaced_inline_formulas(self, n):
        assert log_n(n) == _reference_log_n(n)
        for reference in _reference_loglogs(n):
            assert loglog(n) == reference
        assert peeling_round_cap(n) == _reference_peeling_round_cap(n)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=4, max_value=10**15),
        st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
    )
    @example(2, 64, None)
    @example(64, 64, None)
    @example(3, 2**40, None)
    def test_layers_and_steps_equal_the_replaced_inline_rule(self, k, budget, num_layers):
        reference = _reference_layers_and_steps(k, budget, num_layers)
        assert layers_and_steps(k, budget, num_layers) == reference

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=2**20),
        st.sampled_from([8.0, 24.0, 2.5]),
    )
    def test_density_bound_is_the_bounds_expression(self, arboricity, n, constant):
        reference = constant * max(arboricity, 1) * _reference_loglogs(n)[0]
        assert density_bound(arboricity, n, constant) == reference


class TestChooseParameters:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            choose_parameters(0, 1)
        with pytest.raises(ParameterError):
            choose_parameters(10, -1)
        with pytest.raises(ParameterError):
            choose_parameters(10, 1, delta=0.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_delta(self, delta):
        with pytest.raises(ParameterError, match="delta must be a positive finite number"):
            choose_parameters(10, 1, delta=delta)

    def test_rejects_a_delta_whose_power_overflows(self):
        with pytest.raises(ParameterError, match=r"delta=.* is too large"):
            choose_parameters(10, 1, delta=400.0)

    def test_k_scales_with_arboricity(self):
        low = choose_parameters(1024, 2)
        high = choose_parameters(1024, 16)
        assert high.k > low.k
        assert low.k >= 2 * 2
        assert high.k >= 2 * 16

    def test_budget_is_capped_by_the_machine_memory(self):
        # k = 32, k² = 1024, 4·⌈1024^0.5⌉ = 128.
        assert choose_parameters(1024, 16).budget == 128
        assert choose_parameters(1024, 2).budget == 64

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=100_000),
        st.integers(min_value=0, max_value=64),
        st.floats(min_value=0.2, max_value=0.9),
    )
    def test_relations_always_hold(self, n, arboricity, delta):
        params = choose_parameters(n, arboricity, delta=delta)
        # The structural relations of Lemma 3.13, with scaled constants.
        assert params.k >= max(arboricity, 1)
        assert params.steps > math.log2(params.num_layers) - 1e-9
        assert params.budget >= 16
        assert params.layer_out_degree == (params.steps + 1) * params.k

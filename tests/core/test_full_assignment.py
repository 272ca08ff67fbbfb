"""Tests for Lemma 3.14 (iteration) and Lemma 3.15 (complete layering)."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.validators import validate_hpartition_out_degree, validate_layer_decay
from repro.core.full_assignment import complete_layer_assignment, iterated_partial_assignment
from repro.core.layering import UNASSIGNED
from repro.core.parameters import loglog
from repro.core.partial_assignment import partial_assignment_with_decay
from repro.errors import InvalidLayeringError, ParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig


class TestIteratedPartialAssignment:
    def test_produces_complete_assignment(self, union_forest_graph):
        run = iterated_partial_assignment(union_forest_graph, k=6, budget=144)
        assert run.is_complete()
        partition = run.to_hpartition()
        assert partition.num_layers >= 1

    def test_layers_respect_out_degree_bound(self, union_forest_graph):
        run = iterated_partial_assignment(union_forest_graph, k=6, budget=144)
        partition = run.to_hpartition()
        # Claim 3.12 applied per phase: out-degree ≤ (s+1)·k throughout.
        validate_hpartition_out_degree(partition, run.out_degree_bound).raise_if_failed()

    def test_phase_log_records_progress(self, union_forest_graph):
        run = iterated_partial_assignment(union_forest_graph, k=6, budget=144)
        assert run.phases == len(run.phase_log)
        assigned_total = sum(entry["assigned"] for entry in run.phase_log)
        assert assigned_total <= union_forest_graph.num_vertices

    def test_incomplete_raises_on_hpartition_conversion(self, union_forest_graph):
        run = iterated_partial_assignment(union_forest_graph, k=6, budget=144)
        # Manually poke a hole (0 = unassigned) to exercise the error path.
        run.layer_of[0] = 0
        with pytest.raises(ParameterError):
            run.to_hpartition()


class TestCompleteLayerAssignment:
    def test_rejects_bad_k(self, small_forest):
        with pytest.raises(ParameterError):
            complete_layer_assignment(small_forest, k=0)

    def test_complete_on_forest(self, small_forest):
        run = complete_layer_assignment(small_forest, k=2)
        assert run.is_complete()
        partition = run.to_hpartition()
        partition.validate_out_degree(run.out_degree_bound)

    def test_out_degree_bound_scales_with_k(self, union_forest_graph):
        run = complete_layer_assignment(union_forest_graph, k=6)
        partition = run.to_hpartition()
        max_out = partition.max_out_degree()
        assert max_out <= run.out_degree_bound
        # The final guarantee of Lemma 3.15: O(k · log log n); with our
        # constants the measured value stays within a small multiple of k.
        assert max_out <= 8 * 6

    def test_layer_decay(self, union_forest_graph):
        run = complete_layer_assignment(union_forest_graph, k=6)
        partition = run.to_hpartition()
        report = validate_layer_decay(partition, ratio=0.5, slack=2.0)
        assert report.passed, report.details

    def test_deep_tree_is_layered_without_log_n_rounds(self):
        graph = generators.complete_ary_tree(4, 4096)
        cluster = MPCCluster(MPCConfig.for_graph(graph))
        run = complete_layer_assignment(graph, k=3, cluster=cluster)
        assert run.is_complete()
        partition = run.to_hpartition()
        partition.validate_out_degree(run.out_degree_bound)
        # The tree has depth ~6 (so LOCAL peeling needs ~6 rounds); the layer
        # assignment must not grow its round count with the depth.
        assert cluster.stats.num_rounds <= 30

    def test_power_law_hubs_receive_high_layers(self, power_law_graph):
        run = complete_layer_assignment(power_law_graph, k=10)
        partition = run.to_hpartition()
        hub = max(power_law_graph.vertices, key=power_law_graph.degree)
        # The highest-degree hub cannot sit in the bottom layer unless its
        # degree is tiny; with planted hubs it must be layered above average.
        assert partition.layer_of[hub] >= 1
        partition.validate_out_degree(run.out_degree_bound)

    def test_rounds_recorded_when_cluster_given(self, union_forest_graph):
        cluster = MPCCluster(MPCConfig.for_graph(union_forest_graph))
        run = complete_layer_assignment(union_forest_graph, k=6, cluster=cluster)
        assert run.rounds_charged == cluster.stats.num_rounds
        assert run.rounds_charged >= 1

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_a_delta_that_is_not_positive_and_finite(self, small_forest, delta):
        with pytest.raises(ParameterError, match="delta must be a positive finite number"):
            complete_layer_assignment(small_forest, k=2, delta=delta)

    def test_rejects_a_delta_whose_power_overflows(self, small_forest):
        with pytest.raises(ParameterError, match=r"delta=.* is too large"):
            complete_layer_assignment(small_forest, k=2, delta=400.0)

    def test_rejects_bool_k(self, small_forest):
        with pytest.raises(ParameterError, match="k must be an integer, not a bool"):
            complete_layer_assignment(small_forest, k=True)


class TestLayerColumnContract:
    def test_rejects_a_negative_layer(self, small_forest):
        run = complete_layer_assignment(small_forest, k=2)
        column = run.layer_column()
        column[0] = -1
        with pytest.raises(InvalidLayeringError, match="each ≥ 1 or 0"):
            type(run)(run.graph, column, 2, 1, 0, 0)

    def test_rejects_a_short_column(self, small_forest):
        run = complete_layer_assignment(small_forest, k=2)
        with pytest.raises(InvalidLayeringError):
            type(run)(run.graph, run.layer_of[1:], 2, 1, 0, 0)

    def test_layer_column_is_a_copy(self, small_forest):
        run = complete_layer_assignment(small_forest, k=2)
        column = run.layer_column()
        column[0] = 0
        assert run.is_complete() and column is not run.layer_of


# --------------------------------------------------------------------------- #
# Reference: the float-list (UNASSIGNED = ∞) implementation the integer layer
# column replaced, kept here to pin that the column carries the same layers.
# --------------------------------------------------------------------------- #


def _reference_scatter(layer_of, parent_ids, local, offset):
    written = 0
    for parent, layer in zip(parent_ids, local):
        if layer != UNASSIGNED:
            layer_of[parent] = offset + layer
            written += 1
    return written


def _reference_iterated(graph, k, budget, cluster=None):
    max_iterations = max(2 * int(math.ceil(math.log2(max(k, 2)))) + 4, 4)
    layer_of = [UNASSIGNED] * graph.num_vertices
    unassigned = list(graph.vertices)
    offset = 0
    out_degree_bound = 0
    rounds_before = cluster.stats.num_rounds if cluster is not None else 0
    phase_log = []
    phases = 0
    while unassigned and phases < max_iterations:
        phases += 1
        subgraph = graph.induced_subgraph(unassigned)
        result = partial_assignment_with_decay(subgraph, k=k, budget=budget, cluster=cluster)
        assignment = result.assignment
        out_degree_bound = max(out_degree_bound, assignment.out_degree)
        newly_assigned = _reference_scatter(
            layer_of, subgraph.parent_ids, assignment.layer_of, offset
        )
        offset += result.params.num_layers
        phase_log.append(
            {
                "phase": float(phases),
                "assigned": float(newly_assigned),
                "remaining": float(len(unassigned) - newly_assigned),
                "layers_in_phase": float(result.params.num_layers),
            }
        )
        unassigned = [v for v in unassigned if layer_of[v] == UNASSIGNED]
        if newly_assigned == 0:
            break
    if unassigned:
        offset += 1
        for v in unassigned:
            layer_of[v] = float(offset)
    rounds_after = cluster.stats.num_rounds if cluster is not None else 0
    return SimpleNamespace(
        layer_of=layer_of,
        out_degree_bound=out_degree_bound,
        num_layers_used=int(offset),
        phases=phases,
        rounds_charged=rounds_after - rounds_before,
        phase_log=phase_log,
    )


def _reference_complete(graph, k, delta=0.5, cluster=None):
    n = max(graph.num_vertices, 2)
    budget_cap = max(int(math.ceil(4 * (n**delta))), 64)
    initial_budget = max(min(k * k, budget_cap), 64)
    rounds_before = cluster.stats.num_rounds if cluster is not None else 0
    peel_rounds = max(int(math.ceil(math.log2(max(k, 2)))) + 2, 2)
    layers, used_peel_rounds = graph.peel_layers(k, max_rounds=peel_rounds)
    layer_of = [float(layer) if layer else UNASSIGNED for layer in layers]
    survivors = [v for v, layer in enumerate(layers) if not layer]
    if cluster is not None and used_peel_rounds:
        cluster.charge_rounds(used_peel_rounds, label="peel:low-degree")
    offset = used_peel_rounds
    budget = initial_budget
    phases = 0
    out_degree_bound = k
    phase_log = [
        {
            "phase": 0.0,
            "assigned": float(graph.num_vertices - len(survivors)),
            "remaining": float(len(survivors)),
            "layers_in_phase": float(used_peel_rounds),
        }
    ]
    max_phases = max(int(math.ceil(loglog(n))) + 4, 4)
    remaining = list(survivors)
    while remaining and phases < max_phases:
        phases += 1
        subgraph = graph.induced_subgraph(remaining)
        run = _reference_iterated(subgraph, k=k, budget=budget, cluster=cluster)
        out_degree_bound = max(out_degree_bound, run.out_degree_bound)
        _reference_scatter(layer_of, subgraph.parent_ids, run.layer_of, offset)
        offset += run.num_layers_used
        newly_remaining = [v for v in remaining if layer_of[v] == UNASSIGNED]
        phase_log.append(
            {
                "phase": float(phases),
                "assigned": float(len(remaining) - len(newly_remaining)),
                "remaining": float(len(newly_remaining)),
                "layers_in_phase": float(run.num_layers_used),
            }
        )
        remaining = newly_remaining
        budget = min(budget * budget, budget_cap) if budget < budget_cap else budget_cap
    if remaining:
        offset += 1
        for v in remaining:
            layer_of[v] = float(offset)
    rounds_after = cluster.stats.num_rounds if cluster is not None else 0
    return SimpleNamespace(
        layer_of=layer_of,
        out_degree_bound=max(out_degree_bound, k),
        num_layers_used=int(offset),
        phases=phases,
        rounds_charged=rounds_after - rounds_before,
        phase_log=phase_log,
    )


def _summary(run, reference: bool) -> tuple:
    layers = [0 if layer == UNASSIGNED else int(layer) for layer in run.layer_of]
    if not reference:
        assert run.layer_of.typecode == "l"
        layers = list(run.layer_of)
    return (
        layers, run.num_layers_used, run.phases, run.phase_log,
        run.out_degree_bound, run.rounds_charged,
    )


def _cluster(graph: Graph) -> MPCCluster:
    return MPCCluster(MPCConfig.for_graph(graph))


@st.composite
def _layering_graphs(draw):
    """Empty, edgeless, sparse and dense graphs (up to 28 vertices)."""
    n = draw(st.integers(min_value=0, max_value=28))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))
    random.Random(draw(st.integers(0, 2**16))).shuffle(pairs)
    return Graph(n, pairs[: int(len(pairs) * density)])


# k = 1 or 2 sits below the degeneracy of the denser draws, so the Stage 1
# peel leaves survivors (phases > 0).  On the planted graph at k = 1 the
# second Lemma 3.14 iteration assigns nothing, so its catch-all final layer
# takes the 12 vertices left.
_SURVIVORS = (Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)]), 2)
_CATCH_ALL = (generators.planted_dense_subgraph(
    24, community_size=12, community_probability=0.9, background_probability=0.1, seed=1
), 1)


@settings(max_examples=80, deadline=None)
@given(_layering_graphs(), st.integers(min_value=1, max_value=6))
@example(Graph(0), 2)
@example(Graph(7), 1)
@example(*_SURVIVORS)
@example(*_CATCH_ALL)
def test_complete_layer_assignment_matches_the_float_reference(graph, k):
    expected = _reference_complete(graph, k, cluster=_cluster(graph))
    run = complete_layer_assignment(graph, k, cluster=_cluster(graph))
    assert _summary(run, reference=False) == _summary(expected, reference=True)


@settings(max_examples=50, deadline=None)
@given(_layering_graphs(), st.integers(min_value=1, max_value=4))
@example(Graph(0), 2)
@example(Graph(7), 1)
@example(*_CATCH_ALL)
def test_iterated_partial_assignment_matches_the_float_reference(graph, k):
    expected = _reference_iterated(graph, k, 64, cluster=_cluster(graph))
    run = iterated_partial_assignment(graph, k, 64, cluster=_cluster(graph))
    assert _summary(run, reference=False) == _summary(expected, reference=True)


def test_the_examples_reach_the_survivor_and_catch_all_paths():
    graph, k = _SURVIVORS
    assert complete_layer_assignment(graph, k).phases > 0
    graph, k = _CATCH_ALL
    run = iterated_partial_assignment(graph, k, 64)
    in_phases = sum(int(entry["layers_in_phase"]) for entry in run.phase_log)
    assert run.phase_log[-1]["assigned"] == 0.0
    assert run.phase_log[-1]["remaining"] == 12.0
    assert run.num_layers_used == in_phases + 1
    assert run.is_complete()

"""Barenboim–Elkin peeling in the LOCAL model.

The simple LOCAL algorithm of [BE08] that the paper uses as its reference
process: in every round, all vertices whose *remaining* degree is at most
``(2 + ε)·λ`` remove themselves simultaneously and join the current layer;
their edges are oriented outward (away from them), ties broken toward the
higher identifier.  The process terminates in ``O(log n)`` rounds because a
graph of arboricity λ always has at least half of its vertices with degree
``≤ (2+ε)λ`` — in fact at least an ``ε/(2+ε)`` fraction.

Outputs both the resulting :class:`~repro.graph.hpartition.HPartition` and the
LOCAL round count, which baseline E3 compares against the MPC algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation
from repro.local.network import LocalNetwork, VertexAlgorithm


@dataclass
class PeelingResult:
    """Outcome of the LOCAL peeling process."""

    partition: HPartition
    orientation: Orientation
    rounds: int
    threshold: int


class _PeelingState:
    __slots__ = ("layer", "remaining_degree", "removed_neighbors")

    def __init__(self, degree: int) -> None:
        self.layer: int | None = None
        self.remaining_degree = degree
        self.removed_neighbors: set[int] = set()


class _PeelingAlgorithm(VertexAlgorithm):
    """Vertex program implementing the peeling process with threshold ``d``."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.current_round = 0

    def init(self, vertex: int, graph: Graph) -> _PeelingState:
        return _PeelingState(graph.degree(vertex))

    def message(self, vertex: int, state: _PeelingState, neighbor: int) -> Any:
        # A vertex announces the round in which it was removed (or None).
        return state.layer

    def update(self, vertex: int, state: _PeelingState, inbox: Mapping[int, Any]) -> _PeelingState:
        # First, account for neighbors removed in the previous round.
        for neighbor, neighbor_layer in inbox.items():
            if neighbor_layer is not None and neighbor not in state.removed_neighbors:
                state.removed_neighbors.add(neighbor)
                state.remaining_degree -= 1
        if state.layer is None and state.remaining_degree <= self.threshold:
            state.layer = self.current_round
        return state

    def is_halted(self, vertex: int, state: _PeelingState) -> bool:
        return state.layer is not None

    def output(self, vertex: int, state: _PeelingState) -> int:
        return state.layer if state.layer is not None else -1


def peeling_threshold(arboricity: int, epsilon: float = 0.5) -> int:
    """The removal threshold ``⌈(2 + ε)·λ⌉`` used by the peeling process."""
    if arboricity < 0:
        raise ParameterError("arboricity must be non-negative")
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    return max(1, math.ceil((2.0 + epsilon) * max(arboricity, 1)))


def barenboim_elkin_peeling(
    graph: Graph,
    arboricity: int,
    epsilon: float = 0.5,
    max_rounds: int | None = None,
) -> PeelingResult:
    """Run the Barenboim–Elkin peeling LOCAL algorithm to completion.

    Parameters
    ----------
    graph:
        Input graph.
    arboricity:
        An upper bound on λ(G); the threshold is ``(2+ε)·arboricity``.
    epsilon:
        Slack constant of the threshold.
    max_rounds:
        Safety cap; defaults to ``4·⌈log2 n⌉ + 8`` which is far above the
        theoretical bound for correct parameters.

    The resulting H-partition has out-degree at most the threshold, and the
    derived orientation therefore has max outdegree ≤ ``(2+ε)·λ``.
    """
    n = graph.num_vertices
    if n == 0:
        empty = HPartition(graph, ())
        return PeelingResult(empty, empty.to_orientation(), 0, 0)
    threshold = peeling_threshold(arboricity, epsilon)
    if max_rounds is None:
        max_rounds = 4 * max(int(math.ceil(math.log2(max(n, 2)))), 1) + 8

    # The simulator drives the vertex program; the program needs to know the
    # current round index to stamp layers, so we advance it manually.
    algorithm = _PeelingAlgorithm(threshold)
    network = LocalNetwork(graph)

    # We cannot use network.run directly because the algorithm's notion of the
    # current round must advance in lockstep; drive rounds explicitly.
    states = {v: algorithm.init(v, graph) for v in graph.vertices}
    rounds = 0
    # Round 0: vertices with initial degree below the threshold join layer 1.
    for v in graph.vertices:
        if states[v].remaining_degree <= threshold:
            states[v].layer = 0
    rounds += 1
    while any(states[v].layer is None for v in graph.vertices) and rounds < max_rounds:
        algorithm.current_round = rounds
        inboxes: dict[int, dict[int, Any]] = {v: {} for v in graph.vertices}
        for v in graph.vertices:
            payload = states[v].layer
            for w in graph.neighbors(v):
                inboxes[w][v] = payload
        for v in graph.vertices:
            if states[v].layer is None:
                states[v] = algorithm.update(v, states[v], inboxes[v])
        rounds += 1

    layer_of: list[int] = []
    deepest = max((states[v].layer for v in graph.vertices if states[v].layer is not None), default=0)
    for v in graph.vertices:
        layer = states[v].layer
        if layer is None:
            # Did not terminate within max_rounds (threshold too small);
            # dump survivors into one final layer so the output is complete.
            layer = deepest + 1
        layer_of.append(layer + 1)  # 1-based layers
    partition = HPartition(graph, layer_of)
    orientation = partition.to_orientation()
    del network  # the explicit loop above replaced network.run
    return PeelingResult(partition, orientation, rounds, threshold)


def peeling_layers_reference(graph: Graph, threshold: int) -> HPartition:
    """Centralised reference implementation of the same peeling process.

    Used by tests to check that the LOCAL simulation and the direct
    computation agree, and by the analysis of Lemma 3.13 (the auxiliary
    assignment ``ℓ_G``).  Delegates to the shared frontier peeling kernel;
    vertices the process never removes (threshold too small) are dumped into
    one final layer so the output is complete.
    """
    layers, rounds_used = graph.peel_layers(threshold)
    stuck_layer = rounds_used + 1
    return HPartition(graph, [layer or stuck_layer for layer in layers])

"""Barenboim–Elkin peeling in the LOCAL model.

The simple LOCAL algorithm of [BE08] that the paper uses as its reference
process: in every round, all vertices whose *remaining* degree is at most
``(2 + ε)·λ`` remove themselves simultaneously and join the current layer;
their edges are oriented outward (away from them), ties broken toward the
higher identifier.  The process terminates in ``O(log n)`` rounds because a
graph of arboricity λ always has at least half of its vertices with degree
``≤ (2+ε)λ`` — in fact at least an ``ε/(2+ε)`` fraction.

The rounds are those of the shared frontier kernel
:meth:`~repro.graph.graph.Graph.peel_layers`; this module reads the LOCAL
round count off its ``(layers, rounds_used)``.  Outputs both the resulting
:class:`~repro.graph.hpartition.HPartition` and that round count, which
baseline E3 compares against the MPC algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.parameters import peeling_round_cap
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation


@dataclass
class PeelingResult:
    """Outcome of the LOCAL peeling process."""

    partition: HPartition
    orientation: Orientation
    rounds: int
    threshold: int


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
        Cap on the LOCAL rounds; defaults to
        :func:`~repro.core.parameters.peeling_round_cap`, far above the
        theoretical bound for correct parameters.  Round 0 always runs.

    The resulting H-partition has out-degree at most the threshold, and the
    derived orientation therefore has max outdegree ≤ ``(2+ε)·λ``.
    """
    n = graph.num_vertices
    if n == 0:
        empty = HPartition(graph, ())
        return PeelingResult(empty, empty.to_orientation(), 0, 0)
    threshold = peeling_threshold(arboricity, epsilon)
    if max_rounds is None:
        max_rounds = peeling_round_cap(n)
    # LOCAL round r is the kernel's round r + 1; round 0 (every vertex checks
    # its initial degree) always runs.
    cap = max(max_rounds, 1)
    layers, rounds_used = graph.peel_layers(threshold, cap)
    if 0 in layers:
        # Did not terminate within the cap (threshold too small): the LOCAL
        # run spends every round, and the survivors go one layer past the
        # deepest peeled one (past layer 1 when nothing peeled).
        rounds = cap
        survivors = max(rounds_used, 1) + 1
        layers = [layer or survivors for layer in layers]
    else:
        rounds = rounds_used
    partition = HPartition(graph, layers)
    return PeelingResult(partition, partition.to_orientation(), rounds, threshold)


def peeling_layers_reference(graph: Graph, threshold: int) -> HPartition:
    """The same peeling process, uncapped, as an H-partition.

    The auxiliary assignment ``ℓ_G`` behind the analysis of Lemma 3.13.  Delegates to the shared frontier peeling kernel;
    vertices the process never removes (threshold too small) are dumped into
    one final layer so the output is complete.
    """
    layers, rounds_used = graph.peel_layers(threshold)
    stuck_layer = rounds_used + 1
    return HPartition(graph, [layer or stuck_layer for layer in layers])

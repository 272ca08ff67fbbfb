"""Baseline: Barenboim–Elkin peeling simulated round-by-round in MPC.

The simplest way to orient a graph with outdegree ``(2+ε)λ`` in scalable MPC
is to run the ``O(log n)``-round LOCAL peeling algorithm directly, one LOCAL
round per MPC round (each LOCAL round is a constant number of MPC
aggregations).  The paper cites this as the trivial baseline whose round
complexity — ``Θ(log n)`` — is exactly what Theorem 1.1 improves upon.

Experiment E3 compares this baseline's round count against the GLM19-style
sparsification baseline and our poly(log log n) pipeline.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.core.parameters import peeling_round_cap
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation
from repro.local.peeling import peeling_threshold
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig


@dataclass
class BEMpcResult:
    """Result of the LOCAL-peeling-in-MPC baseline."""

    orientation: Orientation
    partition: HPartition
    max_outdegree: int
    rounds: int
    threshold: int
    cluster: MPCCluster


def barenboim_elkin_in_mpc(
    graph: Graph,
    arboricity: int,
    epsilon: float = 0.5,
    delta: float = 0.5,
    cluster: MPCCluster | None = None,
    max_rounds: int | None = None,
) -> BEMpcResult:
    """Run the (2+ε)λ peeling, charging one MPC round per peeling iteration.

    Each iteration consists of: every remaining vertex checks its remaining
    degree (an aggregate over its incident edges) and, if at most the
    threshold, removes itself and notifies its neighbors.  Both the check and
    the notification fit in a constant number of MPC rounds; we charge one
    round per iteration, which only makes the baseline *stronger* in the
    comparison.

    The iterations are those of the shared frontier kernel
    :meth:`~repro.graph.graph.Graph.peel_layers`, capped at ``max_rounds``
    (default :func:`~repro.core.parameters.peeling_round_cap`); survivors
    (threshold below ``2λ``) go one layer past the last iteration.  In
    iteration ``r`` each layer-``r`` vertex sends one word to each neighbor
    still present: its row of the partition's out-CSR (layers ``≥ r``).
    """
    if arboricity < 0:
        raise ParameterError("arboricity must be non-negative")
    n = graph.num_vertices
    if cluster is None:
        cluster = MPCCluster(MPCConfig.for_graph(graph, delta=delta))
    threshold = peeling_threshold(arboricity, epsilon)
    if max_rounds is None:
        max_rounds = peeling_round_cap(n)

    layers, rounds_used = graph.peel_layers(threshold, max_rounds)
    survivors = rounds_used + 1
    partition = HPartition(graph, [layer or survivors for layer in layers])
    out_indptr, out_indices = partition.out_csr()
    for peeled in partition.layers[:rounds_used]:
        notifiers = array("l")
        notified = array("l")
        for v in peeled:
            start, end = out_indptr[v], out_indptr[v + 1]
            notifiers.extend(array("l", [v]) * (end - start))
            notified.extend(out_indices[start:end])
        cluster.communication_round(notifiers, notified, 1, label="be-peeling:notify")

    orientation = partition.to_orientation()
    return BEMpcResult(
        orientation=orientation,
        partition=partition,
        max_outdegree=orientation.max_outdegree(),
        rounds=cluster.stats.num_rounds,
        threshold=threshold,
        cluster=cluster,
    )

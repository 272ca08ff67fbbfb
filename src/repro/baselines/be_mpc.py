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

import math
from array import array
from dataclasses import dataclass

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
    """
    if arboricity < 0:
        raise ParameterError("arboricity must be non-negative")
    n = graph.num_vertices
    if cluster is None:
        cluster = MPCCluster(MPCConfig.for_graph(graph, delta=delta))
    threshold = peeling_threshold(arboricity, epsilon)
    if max_rounds is None:
        max_rounds = 4 * max(int(math.ceil(math.log2(max(n, 2)))), 1) + 8

    degree = list(graph.degrees)
    removed = [False] * n
    layer_of = [0] * n
    rounds = 0
    remaining = n
    while remaining > 0 and rounds < max_rounds:
        peel = [v for v in range(n) if not removed[v] and degree[v] <= threshold]
        if not peel:
            break
        rounds += 1
        notifiers = array("l")
        notified = array("l")
        for v in peel:
            alive = [w for w in graph.neighbors(v) if not removed[w]]
            notifiers.extend(array("l", [v]) * len(alive))
            notified.extend(alive)
        cluster.communication_round(notifiers, notified, 1, label="be-peeling:notify")
        for v in peel:
            removed[v] = True
            layer_of[v] = rounds
        remaining -= len(peel)
        for v in peel:
            for w in graph.neighbors(v):
                if not removed[w]:
                    degree[w] -= 1

    # Any survivors (threshold below 2λ) get a final layer.
    if remaining > 0:
        rounds += 1
        final_layer = rounds
        for v in range(n):
            if not removed[v]:
                layer_of[v] = final_layer

    partition = HPartition(graph, layer_of)
    orientation = partition.to_orientation()
    return BEMpcResult(
        orientation=orientation,
        partition=partition,
        max_outdegree=orientation.max_outdegree(),
        rounds=cluster.stats.num_rounds,
        threshold=threshold,
        cluster=cluster,
    )

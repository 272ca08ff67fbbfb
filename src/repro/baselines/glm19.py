"""Baseline: GLM19-style sparsification + exponentiation orientation.

Ghaffari, Lattanzi and Mitrović [GLM19, Section 4] orient with outdegree
``(2+ε)λ`` in ``Õ(√log n)`` MPC rounds: the ``T = Θ(log n)``-round LOCAL
peeling is split into ``T / T'`` phases of ``T' = Θ(√log n)`` LOCAL rounds
each; inside a phase the relevant subgraph is sparsified so that
``T'``-hop neighborhoods have size ``2^{Θ(T')} ≤ n^δ`` and can be collected
with ``O(log T')`` rounds of graph exponentiation, after which the phase is
finished locally.

Our baseline reproduces this *round structure* faithfully while computing the
same peeling layers as the LOCAL process:

* the peeling is executed phase by phase, ``T'`` LOCAL iterations per phase;
* each phase charges ``⌈log2 T'⌉ + c`` MPC rounds (the exponentiation that
  collects the ``T'``-hop sparsified neighborhoods, plus constant overhead),
  instead of the ``T'`` rounds the direct simulation would pay;
* the output orientation is identical to the LOCAL peeling's.

The resulting round count grows like ``√log n · log log n`` — the ``Θ̃(√log n)``
curve that experiment E3 plots against our poly(log log n) pipeline.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress

from repro.core.parameters import log_n
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation
from repro.local.peeling import peeling_threshold
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig


@dataclass
class GLM19Result:
    """Result of the sparsification-based orientation baseline."""

    orientation: Orientation
    partition: HPartition
    max_outdegree: int
    rounds: int
    phases: int
    local_rounds_simulated: int
    phase_length: int
    cluster: MPCCluster


def phase_length_for(num_vertices: int) -> int:
    """The phase length ``T' = ⌈√(log2 n)⌉`` of the sparsification approach."""
    return max(int(math.ceil(math.sqrt(log_n(num_vertices)))), 1)


def glm19_orientation(
    graph: Graph,
    arboricity: int,
    epsilon: float = 0.5,
    delta: float = 0.5,
    cluster: MPCCluster | None = None,
    max_local_rounds: int | None = None,
) -> GLM19Result:
    """Orient ``graph`` with the GLM19-style phase/sparsification round structure."""
    if arboricity < 0:
        raise ParameterError("arboricity must be non-negative")
    n = graph.num_vertices
    if cluster is None:
        cluster = MPCCluster(MPCConfig.for_graph(graph, delta=delta))
    threshold = peeling_threshold(arboricity, epsilon)
    if max_local_rounds is None:
        max_local_rounds = 4 * max(int(math.ceil(math.log2(max(n, 2)))), 1) + 8
    phase_length = phase_length_for(n)

    degree = list(graph.degrees)
    removed = [False] * n
    layer_of = [0] * n
    local_rounds = 0
    phases = 0
    remaining = n

    while remaining > 0 and local_rounds < max_local_rounds:
        phases += 1
        # One phase: T' LOCAL peeling iterations, realised in MPC by collecting
        # the sparsified T'-hop neighborhoods via exponentiation.
        exponentiation_rounds = max(int(math.ceil(math.log2(max(phase_length, 2)))), 1) + 2
        cluster.charge_rounds(exponentiation_rounds, label="glm19:exponentiation")
        # The data shipped per phase is proportional to the sparsified
        # neighborhoods; we charge one explicit round carrying one word per
        # remaining incident edge as a conservative stand-in.
        edge_u, edge_v = graph.edge_endpoints
        alive = [not (removed[u] or removed[v]) for u, v in zip(edge_u, edge_v)]
        cluster.communication_round(
            array("l", compress(edge_u, alive)),
            array("l", compress(edge_v, alive)),
            1,
            label="glm19:sparsified-gather",
        )
        for _ in range(phase_length):
            if remaining == 0 or local_rounds >= max_local_rounds:
                break
            peel = [v for v in range(n) if not removed[v] and degree[v] <= threshold]
            local_rounds += 1
            if not peel:
                break
            for v in peel:
                removed[v] = True
                layer_of[v] = local_rounds
            remaining -= len(peel)
            for v in peel:
                for w in graph.neighbors(v):
                    if not removed[w]:
                        degree[w] -= 1

    if remaining > 0:
        local_rounds += 1
        for v in range(n):
            if not removed[v]:
                layer_of[v] = local_rounds

    partition = HPartition(graph, layer_of)
    orientation = partition.to_orientation()
    return GLM19Result(
        orientation=orientation,
        partition=partition,
        max_outdegree=orientation.max_outdegree(),
        rounds=cluster.stats.num_rounds,
        phases=phases,
        local_rounds_simulated=local_rounds,
        phase_length=phase_length,
        cluster=cluster,
    )

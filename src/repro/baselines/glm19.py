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

from repro import kernels
from repro.core.parameters import log2_ceil, log_n, peeling_round_cap
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
    """Orient ``graph`` with the GLM19-style phase/sparsification round structure.

    The LOCAL rounds are those of the shared frontier kernel
    :meth:`~repro.graph.graph.Graph.peel_layers`, capped at
    ``max_local_rounds`` (default
    :func:`~repro.core.parameters.peeling_round_cap`); the phases are
    replayed over its layer column.  A phase runs ``T'`` rounds but ends
    early after an empty one, so a run that gets stuck spends one empty
    round per phase until the cap, and its survivors go one layer past it.
    """
    if arboricity < 0:
        raise ParameterError("arboricity must be non-negative")
    n = graph.num_vertices
    if cluster is None:
        cluster = MPCCluster(MPCConfig.for_graph(graph, delta=delta))
    threshold = peeling_threshold(arboricity, epsilon)
    if max_local_rounds is None:
        max_local_rounds = peeling_round_cap(n)
    phase_length = phase_length_for(n)

    layers, rounds_used = graph.peel_layers(threshold, max_local_rounds)
    finished = 0 not in layers
    # The LOCAL rounds the phases run: the peeling ones, then, when the peel
    # is stuck, empty ones up to the cap.
    phase_rounds = rounds_used if finished else max(max_local_rounds, 0)
    survivors = phase_rounds + 1
    layer_of = array("l", [layer or survivors for layer in layers])
    # A phase that starts after round ``done`` still has the edges whose lower
    # endpoint layer is past ``done``.  Ordered by that layer, highest first,
    # they are a prefix: ``present[done]`` edges long.
    edge_u, edge_v = graph.edge_endpoints
    lowest = kernels.edge_minimum(edge_u, edge_v, layer_of)
    groups = kernels.split_by_part(lowest, survivors + 1, (edge_u, edge_v))
    present_u, present_v = array("l"), array("l")
    present = [0] * survivors
    for layer in range(survivors, 0, -1):
        group_u, group_v = groups[layer]
        present_u.extend(group_u)
        present_v.extend(group_v)
        present[layer - 1] = len(present_u)
    exponentiation_rounds = log2_ceil(max(phase_length, 2)) + 2

    done = 0
    phases = 0
    while done < phase_rounds:
        phases += 1
        # One phase: T' LOCAL peeling iterations, realised in MPC by collecting
        # the sparsified T'-hop neighborhoods via exponentiation.
        cluster.charge_rounds(exponentiation_rounds, label="glm19:exponentiation")
        # The data shipped per phase is proportional to the sparsified
        # neighborhoods; we charge one explicit round carrying one word per
        # remaining incident edge as a conservative stand-in.
        cluster.communication_round(
            present_u[: present[done]],
            present_v[: present[done]],
            1,
            label="glm19:sparsified-gather",
        )
        # T' rounds, ending early after the first empty one (past rounds_used).
        done = min(done + phase_length, max(done, rounds_used) + 1, phase_rounds)

    partition = HPartition(graph, layer_of)
    orientation = partition.to_orientation()
    return GLM19Result(
        orientation=orientation,
        partition=partition,
        max_outdegree=orientation.max_outdegree(),
        rounds=cluster.stats.num_rounds,
        phases=phases,
        local_rounds_simulated=phase_rounds if finished else survivors,
        phase_length=phase_length,
        cluster=cluster,
    )

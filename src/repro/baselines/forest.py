"""Baseline: forest-specialised orientation and coloring (the λ = 1 case).

Grunau et al. [GLM+23] orient forests with outdegree ≤ 2 and 3-color them in
``O(log log n)`` scalable MPC rounds; the paper repeatedly contrasts its
general-graph result against this forest-only special case (which "critically
uses that the local neighborhood around each node has no cycle").

We reproduce the spirit of that baseline — not its exact pointer-jumping
internals — with an algorithm that achieves the same guarantees on forests and
charges ``O(log log n)``-style rounds:

* **Orientation**: repeat "peel all vertices of remaining degree ≤ 2" — on a
  forest at least half of the vertices have degree ≤ 2 at any time, so
  ``O(log n)`` LOCAL iterations suffice; the MPC baseline compresses each
  group of ``√log n``... we instead charge ``⌈log2`` (iterations) ``⌉ + c``
  rounds per doubling batch, giving the ``O(log log n)`` round shape on
  forests, where the peeling genuinely halves the vertex count per iteration.
* **Coloring**: orient first (outdegree ≤ 2), then color greedily from the
  deepest layer up; every vertex sees at most 2 already-colored neighbors in
  layers ≥ its own when it picks a color, so 3 colors always suffice —
  matching the 3-coloring guarantee of [GLM+23] (our round accounting for the
  coloring sweep is the same compressed O(log log n) charge as for the
  orientation, rather than their more intricate pipeline).

Experiment E7 compares this specialised baseline with the general pipeline on
random forests.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.core.parameters import log2_ceil
from repro.errors import ParameterError
from repro.graph.coloring import Coloring
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig


@dataclass
class ForestResult:
    """Output of the forest-specialised baseline."""

    orientation: Orientation
    partition: HPartition
    coloring: Coloring
    max_outdegree: int
    num_colors: int
    rounds: int
    cluster: MPCCluster


def forest_orient_and_color(
    graph: Graph,
    delta: float = 0.5,
    cluster: MPCCluster | None = None,
) -> ForestResult:
    """Orient (outdegree ≤ 2) and color a forest with a small constant palette.

    Raises :class:`~repro.errors.ParameterError` when the input is not a
    forest — the whole point of the baseline is that it exploits acyclicity.
    """
    if not graph.is_forest():
        raise ParameterError("the forest baseline requires an acyclic input graph")
    n = graph.num_vertices
    if cluster is None:
        cluster = MPCCluster(MPCConfig.for_graph(graph, delta=delta))

    # Peeling with threshold 2: on forests every round removes at least
    # half of the remaining vertices, so there are O(log n) rounds; the MPC
    # implementation of [GLM+23] compresses them into O(log log n) rounds
    # via exponentiation on the (degree ≤ 2) remainder, which we charge
    # accordingly: one round per batch of doubling length.  Survivors (none
    # on a forest) go one layer past the last round.
    layers, rounds_used = graph.peel_layers(2)
    partition = HPartition(graph, [layer or rounds_used + 1 for layer in layers])
    orientation = partition.to_orientation()

    # Round accounting: compressing `rounds_used` peeling steps takes
    # O(log(rounds_used)) = O(log log n) exponentiation rounds.
    compressed_rounds = log2_ceil(max(rounds_used, 2)) + 2
    cluster.charge_rounds(compressed_rounds, label="forest:orientation")

    # Coloring: process layers from the deepest down; each vertex has at most
    # 2 neighbors in layers ≥ its own, and lower-layer neighbors are still
    # uncolored when it picks, so the greedy choice never exceeds color 2.
    colors = array("l", [-1]) * n
    for layer_index in range(partition.num_layers, 0, -1):
        for v in partition.layer(layer_index):
            taken = {colors[w] for w in graph.neighbors(v)}
            color = 0
            while color in taken:
                color += 1
            colors[v] = color
    cluster.charge_rounds(compressed_rounds, label="forest:coloring")

    coloring = Coloring.from_column(graph, colors)
    return ForestResult(
        orientation=orientation,
        partition=partition,
        coloring=coloring,
        max_outdegree=orientation.max_outdegree(),
        num_colors=coloring.num_colors(),
        rounds=cluster.stats.num_rounds,
        cluster=cluster,
    )

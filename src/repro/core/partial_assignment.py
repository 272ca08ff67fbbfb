"""Algorithm 4 — ``PartialLayerAssignment`` — and the Lemma 3.13 driver.

Algorithm 4 composes the previous pieces: run Algorithm 2 to give every vertex
a pruned tree view, run Algorithm 3 on every tree, and assign every graph
vertex the minimum layer it receives from *any* occurrence in *any* tree.

Guarantees reproduced and tested:

* **Claim 3.12** — the resulting partial assignment has out-degree at most
  ``(s + 1)·k``.
* **Lemma 3.9** — vertices with few strictly-increasing incoming paths
  (``NumPathsIn ≤ √B`` w.r.t. any valid reference assignment) are assigned a
  layer no larger than their reference layer; combined with Lemma 2.4 this
  yields the geometric-decay property of **Lemma 3.13**.
* **Claim 3.11** — ``O(s)`` MPC rounds, ``O(n^δ + B)`` local memory and
  ``O(nB + m)`` global memory; enforced by the cluster when one is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assign_tree import partial_layer_assignment_tree
from repro.core.exponentiate import ExponentiationResult, exponentiate_and_local_prune
from repro.core.layering import UNASSIGNED, PartialLayerAssignment
from repro.core.parameters import Parameters, layers_and_steps
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.primitives import aggregate_by_key


@dataclass
class PartialAssignmentResult:
    """Output of Algorithm 4 plus the intermediate exponentiation result."""

    assignment: PartialLayerAssignment
    exponentiation: ExponentiationResult
    params: Parameters


def partial_layer_assignment(
    graph: Graph,
    params: Parameters,
    cluster: MPCCluster | None = None,
) -> PartialAssignmentResult:
    """Run Algorithm 4 with explicit parameters ``(B, k, L, s)``.

    Every vertex ends up with either a finite layer in ``1..params.num_layers``
    or ``∞``; the declared out-degree of the returned assignment is
    ``(s + 1)·k`` per Claim 3.12.
    """
    expo = exponentiate_and_local_prune(graph, params, cluster=cluster)

    a = params.layer_out_degree
    best_layer = [UNASSIGNED] * graph.num_vertices
    contributions: list[tuple[int, float]] = []
    for v in graph.vertices:
        tree_assignment = partial_layer_assignment_tree(
            graph, expo.tree(v), out_degree_parameter=a, num_layers=params.num_layers
        )
        for vertex, layer in tree_assignment.vertex_layers().items():
            contributions.append((vertex, layer))
            if layer < best_layer[vertex]:
                best_layer[vertex] = layer

    if cluster is not None:
        # Combining per-tree layers into the global minimum is an
        # aggregate-by-key over (vertex, layer) pairs: constant MPC rounds.
        aggregate_by_key(cluster, contributions, min, label="assignment:min-combine")

    assignment = PartialLayerAssignment(
        graph=graph,
        layer_of=best_layer,
        num_layers=params.num_layers,
        out_degree=a,
    )
    return PartialAssignmentResult(assignment=assignment, exponentiation=expo, params=params)


@dataclass
class DecayingAssignmentResult:
    """Output of the Lemma 3.13 driver."""

    assignment: PartialLayerAssignment
    params: Parameters
    rounds_charged: int


def partial_assignment_with_decay(
    graph: Graph,
    k: int,
    budget: int,
    cluster: MPCCluster | None = None,
    num_layers: int | None = None,
) -> DecayingAssignmentResult:
    """Lemma 3.13: one shot of Algorithm 4 with parameters giving geometric decay.

    Parameters mirror the lemma: ``L = ⌈c_L · log_k(B)⌉`` layers (unless
    ``num_layers`` is given) and the least ``s > log2 L`` steps
    (:func:`~repro.core.parameters.layers_and_steps`), producing a partial
    assignment with out-degree at most ``O(k log log n)`` and
    ``|{v : ℓ(v) ≥ j}| ≤ 0.5^{j-1}·|V|`` — the decay is validated
    empirically by the E5 benchmark rather than assumed.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    if budget < 4:
        raise ParameterError("budget B must be at least 4")
    num_layers, steps = layers_and_steps(k, budget, num_layers)
    params = Parameters(k=k, budget=budget, steps=steps, num_layers=num_layers)

    before = cluster.stats.num_rounds if cluster is not None else 0
    result = partial_layer_assignment(graph, params, cluster=cluster)
    after = cluster.stats.num_rounds if cluster is not None else 0
    return DecayingAssignmentResult(
        assignment=result.assignment,
        params=params,
        rounds_charged=after - before,
    )

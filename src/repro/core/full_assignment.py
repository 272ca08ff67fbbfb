"""Lemma 3.14 and Lemma 3.15 — from partial to complete layer assignments.

* **Lemma 3.14** (:func:`iterated_partial_assignment`) iterates the Lemma 3.13
  procedure on the still-unassigned residue ``O(log k)`` times, offsetting the
  layers of each round so the final layering is consistent, and keeps the
  geometric decay.

* **Lemma 3.15** (:func:`complete_layer_assignment`) first peels the graph for
  ``O(log k)`` rounds (removing vertices of degree ≤ k — each such round
  removes at least half the remaining vertices because ``k ≥ 2λ``), then runs
  one Lemma 3.14 call on the survivors.  The paper repeats Lemma 3.14 phases
  with *budget boosting* (``B ← min(B², n^δ·c)``) until every vertex is
  assigned; here that loop would never reach a second phase, because
  :func:`iterated_partial_assignment` ends with a catch-all layer that takes
  every vertex its iterations left, so its column is always complete.  The
  outcome is a complete layer assignment — the H-partition used by Theorems
  1.1 and 1.2 — with out-degree ``O(k·log log n)`` and layer decay
  ``|{v : ℓ(v) ≥ j}| ≤ 0.5^{j-1}·n``.

The functions below work on *induced subgraphs* of the original input; layers
are always reported in terms of the original vertex ids, as one flat
``array('l')`` per-vertex column with ``0`` for vertices without a layer.  The
column comes straight out of the peel kernel and is updated in place: the
unassigned scan (:func:`repro.kernels.unassigned_positions`) and the write-back
of a subgraph's layers (:func:`repro.kernels.scatter_layers`) are kernel
dispatches, so a part that the Stage 1 peel finishes costs no Python pass over
its vertices.  A Lemma 3.13 result keeps the Definition 2.1 float column
(``UNASSIGNED`` = ``∞``) and is converted once, where it is scattered.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

from repro import kernels
from repro.core.layering import UNASSIGNED
from repro.core.parameters import log2_ceil, refuse_bools
from repro.core.partial_assignment import partial_assignment_with_decay
from repro.errors import InvalidLayeringError, ParameterError
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import check_delta, local_memory


@dataclass
class LayerAssignmentRun:
    """A complete (or partial) layer assignment over the original vertex ids.

    ``layer_of`` is an ``array('l')`` column: ``layer_of[v]`` is the layer
    (``≥ 1``) of vertex ``v``, or ``0`` when ``v`` is unassigned.
    """

    graph: Graph
    layer_of: array
    out_degree_bound: int
    num_layers_used: int
    phases: int
    rounds_charged: int
    phase_log: list[dict[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = self.graph.num_vertices
        column = self.layer_of
        if len(column) != n or any(column[v] for v in kernels.unassigned_positions(column)):
            raise InvalidLayeringError(
                f"a layer column needs {n} entries, each ≥ 1 or 0 (unassigned)"
            )

    def is_complete(self) -> bool:
        """Whether every vertex received a layer."""
        return not kernels.unassigned_positions(self.layer_of)

    def layer_column(self) -> array:
        """A copy of the layer column (requires completeness)."""
        missing = len(kernels.unassigned_positions(self.layer_of))
        if missing:
            raise ParameterError(f"assignment is not complete: {missing} unassigned vertices")
        return self.layer_of[:]

    def to_hpartition(self) -> HPartition:
        """Convert to an :class:`HPartition` (requires completeness)."""
        return HPartition(self.graph, self.layer_column())


# --------------------------------------------------------------------------- #
# Lemma 3.14
# --------------------------------------------------------------------------- #


def iterated_partial_assignment(
    graph: Graph,
    k: int,
    budget: int,
    cluster: MPCCluster | None = None,
) -> LayerAssignmentRun:
    """Lemma 3.14: iterate the Lemma 3.13 partial assignment on the residue.

    Each iteration runs on the subgraph induced by the still-unassigned
    vertices, and the layers produced by iteration ``i`` are offset by the
    total number of layers used by iterations ``1..i-1``.  The number of
    iterations needed is ``O(log k)``; we cap it at ``2·⌈log2 k⌉ + 4`` and
    then force the (typically empty) remainder into one final layer, so the
    returned column is always complete over the vertices passed in.
    """
    max_iterations = 2 * log2_ceil(max(k, 2)) + 4
    layer_of = array("l", [0]) * graph.num_vertices
    unassigned = kernels.unassigned_positions(layer_of)
    offset = 0
    out_degree_bound = 0
    rounds_before = cluster.stats.num_rounds if cluster is not None else 0
    phase_log: list[dict[str, float]] = []
    phases = 0

    while unassigned and phases < max_iterations:
        phases += 1
        subgraph = graph.induced_subgraph(unassigned)
        result = partial_assignment_with_decay(subgraph, k=k, budget=budget, cluster=cluster)
        assignment = result.assignment
        out_degree_bound = max(out_degree_bound, assignment.out_degree)
        newly_assigned = kernels.scatter_layers(
            layer_of, subgraph.parent_ids, _integer_column(assignment.layer_of), offset
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
        unassigned = kernels.unassigned_positions(layer_of)
        if newly_assigned == 0:
            # The procedure is stuck (can only happen when k is far below the
            # true arboricity); avoid an infinite loop and let the catch-all
            # layer below take the rest.
            break

    if unassigned:
        # Final catch-all layer: the paper never reaches this branch because
        # its parameters guarantee progress; with scaled-down constants we
        # keep the output well-defined and let the validators report the
        # (possibly larger) out-degree honestly.
        offset += 1
        for v in unassigned:
            layer_of[v] = offset

    rounds_after = cluster.stats.num_rounds if cluster is not None else 0
    return LayerAssignmentRun(
        graph=graph,
        layer_of=layer_of,
        out_degree_bound=out_degree_bound,
        num_layers_used=int(offset),
        phases=phases,
        rounds_charged=rounds_after - rounds_before,
        phase_log=phase_log,
    )


# --------------------------------------------------------------------------- #
# Lemma 3.15
# --------------------------------------------------------------------------- #


def _integer_column(layer_of) -> array:
    """A Definition 2.1 column (``∞`` = unassigned) as an ``array('l')`` (``0``)."""
    return array("l", [0 if layer == UNASSIGNED else int(layer) for layer in layer_of])


def _peel_low_degree(
    graph: Graph,
    k: int,
    rounds: int,
    cluster: MPCCluster | None = None,
) -> tuple[array, array, int]:
    """Stage 1 of Lemma 3.15: peel vertices of degree ≤ k for ``rounds`` rounds.

    Returns the peel kernel's layer column (1-based layers, ``0`` for
    survivors), the surviving vertices, and the number of peeling rounds
    actually used.  Each peeling round is one MPC round (degree
    recomputation is an aggregate-by-key, charged as part of the same round).
    """
    layer_of, used_rounds = graph.peel_layers(k, max_rounds=rounds)
    survivors = kernels.unassigned_positions(layer_of)
    if cluster is not None and used_rounds:
        cluster.charge_rounds(used_rounds, label="peel:low-degree")
    return layer_of, survivors, used_rounds


def complete_layer_assignment(
    graph: Graph,
    k: int,
    delta: float = 0.5,
    cluster: MPCCluster | None = None,
) -> LayerAssignmentRun:
    """Lemma 3.15: compute a complete layer assignment (H-partition).

    Parameters
    ----------
    graph:
        Input graph.
    k:
        Arboricity proxy; the lemma requires ``k ≥ c·λ(G)`` (the paper uses
        ``c = 100``; we default to the caller's choice, typically ``2λ``).
    delta:
        Memory exponent; a positive finite number.  The tree-view budget is
        ``B = max(min(k², max(⌈4·n^δ⌉, 64)), 64)``.
    cluster:
        Optional MPC cluster for round/memory accounting.

    Stage 1 peels vertices of degree ≤ ``k``; Stage 2 is one
    :func:`iterated_partial_assignment` call on the survivors, if any.  The
    paper's budget boosting between repeated Stage 2 phases is unnecessary
    here: that call's catch-all layer already assigns every survivor, so a
    second phase would never start.  ``phases`` is therefore 0 or 1.

    Returns a :class:`LayerAssignmentRun` whose ``layer_of`` is complete.
    """
    refuse_bools(k=k)
    check_delta(delta)
    if k < 1:
        raise ParameterError("k must be at least 1")
    n = max(graph.num_vertices, 2)
    budget = max(min(k * k, max(int(math.ceil(local_memory(n, delta, 4))), 64)), 64)

    rounds_before = cluster.stats.num_rounds if cluster is not None else 0

    # Stage 1: initial peeling for O(log k) rounds.
    peel_rounds = log2_ceil(max(k, 2)) + 2
    layer_of, survivors, used_peel_rounds = _peel_low_degree(
        graph, k, peel_rounds, cluster=cluster
    )
    offset = used_peel_rounds
    out_degree_bound = k  # the peeled prefix has out-degree ≤ k by construction
    phase_log: list[dict[str, float]] = [
        {
            "phase": 0.0,
            "assigned": float(graph.num_vertices - len(survivors)),
            "remaining": float(len(survivors)),
            "layers_in_phase": float(used_peel_rounds),
        }
    ]

    # Stage 2: one Lemma 3.14 call, which assigns every survivor.
    phases = 0
    if survivors:
        phases = 1
        subgraph = graph.induced_subgraph(survivors)
        run = iterated_partial_assignment(subgraph, k=k, budget=budget, cluster=cluster)
        out_degree_bound = max(out_degree_bound, run.out_degree_bound)
        kernels.scatter_layers(layer_of, subgraph.parent_ids, run.layer_of, offset)
        offset += run.num_layers_used
        phase_log.append(
            {
                "phase": 1.0,
                "assigned": float(len(survivors)),
                "remaining": 0.0,
                "layers_in_phase": float(run.num_layers_used),
            }
        )

    rounds_after = cluster.stats.num_rounds if cluster is not None else 0
    return LayerAssignmentRun(
        graph=graph,
        layer_of=layer_of,
        out_degree_bound=out_degree_bound,
        num_layers_used=int(offset),
        phases=phases,
        rounds_charged=rounds_after - rounds_before,
        phase_log=phase_log,
    )

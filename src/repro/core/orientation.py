"""Theorem 1.1 — the density-dependent orientation algorithm.

Pipeline (see the proof of Theorem 1.1):

1. Obtain an arboricity proxy ``k`` and pick the branch: the job skeleton
   shared with Theorem 1.2 (:mod:`repro.core._job`).
2. If ``k ≤ 4·log n``, run the Lemma 3.15 complete layer assignment directly
   and orient every edge toward the strictly higher layer (ties toward the
   higher id).
3. Otherwise apply Lemma 2.1: randomly partition the edges into
   ``⌈k / log n⌉`` parts, orient each part with the layering pipeline (each
   part has arboricity ``O(log n)`` w.h.p.) in the skeleton's fan-out, and
   merge the orientations.

Each part task carries its part, a pickled pair of edge columns, and
returns only its heads column.  The part columns combine in a single L-way
merge — concatenated, ordered once by edge key and compared with the input
graph's own columns, which is the exact coverage check of Lemma 2.1 — and
the outdegrees are tallied once.  The model's merge is a balanced
aggregation tree, so it is still charged ``⌈log2 L⌉`` rounds (label
``merge-orientations``, one round per tree level).

The output's maximum outdegree is ``O(λ · log log n)`` — experiment E1
measures the realised constant.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

from repro import kernels
from repro.core._job import fan_out, set_up_job
from repro.core.full_assignment import LayerAssignmentRun, complete_layer_assignment
from repro.core.parameters import density_bound
from repro.core.partitioning import random_edge_partition
from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation
from repro.mpc.cluster import MPCCluster


@dataclass
class OrientationRun:
    """Full output of the Theorem 1.1 pipeline, with measurements."""

    orientation: Orientation
    max_outdegree: int
    arboricity_proxy: int
    rounds: int
    used_edge_partitioning: bool
    num_parts: int
    partition_runs: list[LayerAssignmentRun] = field(default_factory=list)
    hpartition: HPartition | None = None
    cluster: MPCCluster | None = None

    def outdegree_to_arboricity_ratio(self) -> float:
        """``max_outdegree / max(arboricity_proxy, 1)`` — the quality measure of E1."""
        return self.max_outdegree / max(self.arboricity_proxy, 1)


def _orient_part_task(
    part: Graph, k: int, delta: float, ledger: MPCCluster
) -> tuple[LayerAssignmentRun, array, object]:
    """Orient one Lemma 2.1 part against its own sub-ledger.

    Module-level so process workers can unpickle it by reference.  Returns
    the part's heads column (toward the strictly higher layer, ties toward
    the higher id) and the sub-ledger's stats rather than the cluster —
    that is all the parent's merge and fold need.
    """
    run = complete_layer_assignment(part, k=k, delta=delta, cluster=ledger)
    edge_u, edge_v = part.edge_endpoints
    heads = kernels.orient_by_rank(edge_u, edge_v, run.layer_column())
    return run, heads, ledger.stats


def _merge_part_heads(
    num_vertices: int, parts: list[Graph], heads: list[array], cluster: MPCCluster
) -> tuple[array, array, array] | None:
    """Combine the parts' heads columns in one L-way merge.

    In the model the parts merge as a balanced aggregation tree, disjoint
    pairs per level at one round each, so ``L`` parts are charged
    ``⌈log2 L⌉`` rounds.  On the host the columns are concatenated and
    ordered once by edge key; the result is the union of the (edge-disjoint)
    part maps whatever the merge shape.  Returns ``None`` for no parts.
    """
    for _level in range((len(parts) - 1).bit_length() if parts else 0):
        cluster.charge_rounds(1, label="merge-orientations")
    if not parts:
        return None
    return kernels.merge_part_columns(
        num_vertices,
        [(*part.edge_endpoints, part_heads) for part, part_heads in zip(parts, heads)],
    )


def _check_merged_covers(
    graph: Graph, merged: tuple[array, array, array] | None
) -> Orientation:
    """Lemma 2.1 invariant: the oriented parts cover every input edge exactly once.

    ``merged`` is the key-ordered ``(edge_u, edge_v, heads)`` columns of all
    parts (``None`` when there were none).  They must equal the input graph's
    own edge columns: an edge in no part, in two parts or not in the graph
    at all breaks the equality, and we fail loudly with the invariant that
    broke instead of orienting a subgraph.  The parts come from the module's
    partition RNG contract (one ``randrange``-equivalent draw per edge, see
    :mod:`repro.core.partitioning`), so a correct partition always passes.
    """
    if merged is None:
        if graph.num_edges == 0:
            return Orientation(graph, {})
        raise GraphError(
            f"edge partition produced no oriented parts although the graph has "
            f"{graph.num_edges} edges"
        )
    edge_u, edge_v, heads = merged
    graph_u, graph_v = graph.edge_endpoints
    if edge_u != graph_u or edge_v != graph_v:
        held = list(zip(edge_u, edge_v))
        distinct = set(held)
        expected = set(graph.edges)
        raise GraphError(
            f"edge partition does not cover the input graph exactly: of "
            f"{graph.num_edges} edges, {len(expected - distinct)} are in no part "
            f"and {len(held) - len(distinct)} are in more than one part; "
            f"{len(distinct - expected)} part edges are not in the graph"
        )
    return Orientation._from_heads(graph, heads)


def orient(
    graph: Graph,
    delta: float = 0.5,
    k: int | None = None,
    k_factor: float = 2.0,
    seed: int | None = None,
    cluster: MPCCluster | None = None,
    force_edge_partitioning: bool | None = None,
    workers: int = 1,
    tracer=None,
) -> OrientationRun:
    """Compute an ``O(λ log log n)``-outdegree orientation (Theorem 1.1).

    Parameters
    ----------
    graph:
        Input graph.
    delta:
        Local-memory exponent of the simulated cluster.
    k:
        Optional explicit arboricity proxy; computed from the degeneracy when
        omitted (charging one extra guess round, mirroring the paper's
        parallel-guess trick).
    k_factor:
        Multiplier applied to the arboricity estimate (paper: 100–200; we
        default to 2).
    seed:
        Seed for the random edge partitioning (only used in the large-λ branch).
    cluster:
        Optional pre-built cluster; a fresh one sized for ``graph`` is created
        when omitted so every run reports round/memory statistics.
    force_edge_partitioning:
        Override the automatic branch selection (used by tests/ablations).
    workers:
        Host-side parallelism for the large-λ branch: the Lemma 2.1 parts
        fan out through a :class:`~repro.engine.WorkerPool` with this many
        workers (1 = serial; the round accounting is max-over-parts either
        way).  Must be at least 1.  Results are identical for any worker
        count.
    tracer:
        Optional :class:`repro.obs.Tracer`: records kernel-level wall-clock
        spans (layer assignment, part fan-out, merge) carrying the
        ledger delta each charged.  Observation only — results and round
        counts are byte-identical with tracing on or off.
    """
    job = set_up_job(
        graph, delta, k, k_factor, seed, cluster, force_edge_partitioning, workers, tracer
    )
    if job is None:
        return OrientationRun(
            orientation=Orientation(graph, {}),
            max_outdegree=0,
            arboricity_proxy=0,
            rounds=0,
            used_edge_partitioning=False,
            num_parts=1,
        )
    cluster, tracer = job.cluster, job.tracer

    if not job.large_lambda:
        with tracer.span("orient:layers", cat="kernel", cluster=cluster):
            run = complete_layer_assignment(graph, k=job.k, delta=delta, cluster=cluster)
            hpartition = run.to_hpartition()
            orientation = hpartition.to_orientation()
        return OrientationRun(
            orientation=orientation,
            max_outdegree=orientation.max_outdegree(),
            arboricity_proxy=job.arboricity_proxy,
            rounds=cluster.stats.num_rounds,
            used_edge_partitioning=False,
            num_parts=1,
            partition_runs=[run],
            hpartition=hpartition,
            cluster=cluster,
        )

    # Large-λ branch: Lemma 2.1 edge partitioning, orient all parts in
    # parallel supersteps (each on its own sub-ledger), one L-way merge.
    edge_partition = random_edge_partition(graph, arboricity_bound=job.k, rng=job.rng)
    cluster.charge_rounds(1, label="edge-partition")
    # Empty parts happen whenever the part count exceeds the edge count;
    # they contribute nothing and are simply skipped.
    parts = [part for part in edge_partition.parts if part.num_edges]
    results = fan_out(
        "orient",
        _orient_part_task,
        [(part, job.per_part_k, delta, cluster.fork()) for part in parts],
        total_work=sum(part.num_edges for part in parts),
        job=job,
    )
    with tracer.span("orient:merge", cat="kernel", cluster=cluster):
        cluster.merge_parallel([stats for _run, _heads, stats in results])
        merged = _merge_part_heads(
            graph.num_vertices, parts, [heads for _run, heads, _stats in results], cluster
        )
        merged = _check_merged_covers(graph, merged)

    return OrientationRun(
        orientation=merged,
        max_outdegree=merged.max_outdegree(),
        arboricity_proxy=job.arboricity_proxy,
        rounds=cluster.stats.num_rounds,
        used_edge_partitioning=True,
        num_parts=edge_partition.num_parts,
        partition_runs=[run for run, _heads, _stats in results],
        cluster=cluster,
    )


def orientation_outdegree_bound(
    arboricity: int, num_vertices: int, constant: float = 8.0
) -> int:
    """The Theorem 1.1 target bound ``O(λ · log log n)`` with an explicit constant.

    Used by tests and the E1 benchmark to check the *shape* of the guarantee:
    ``max_outdegree ≤ ⌈constant · max(λ, 1) · max(log2 log2 n, 1)⌉``.
    """
    return int(math.ceil(density_bound(arboricity, num_vertices, constant)))

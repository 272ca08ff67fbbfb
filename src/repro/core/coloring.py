"""Theorem 1.2 — the density-dependent coloring algorithm.

Pipeline (see Section 4 of the paper):

1. **Random vertex partitioning (if needed).**  When the arboricity proxy
   ``k`` exceeds ``Θ(log n)``, apply Lemma 2.2: split the vertices into
   ``⌈k / log n⌉`` random parts, color every induced part with its own
   disjoint palette, and return the union.  Each part has arboricity
   ``O(log n)`` w.h.p., so the per-part palette has ``O(log n · log log n)``
   colors and the total is ``O(λ · log log n)``.

2. **Layering.**  Compute the complete layer assignment (H-partition) of
   Lemma 3.15 with out-degree ``d = O(λ log log n)``.

3. **Layer-by-layer coloring, batched with directed exponentiation.**  Color
   layers from the highest down.  Within each batch of layers, every vertex
   only needs the colors of vertices reachable along directed paths (edges
   point toward higher layers; intra-layer edges are bidirectional), so a
   whole batch can be resolved after one directed-exponentiation gather
   (Lemma 4.1).  Inside a layer the conflict is resolved by the degree+1
   list-coloring subroutine (:mod:`repro.local.list_coloring`), using the
   palette ``{0, ..., 3d-1}`` minus the colors of higher-layer neighbors.

The number of colors is at most ``3·d = O(λ log log n)`` per part, and the
coloring is proper by construction (validated, not assumed).

**Parallel execution.**  The arboricity guess, the ``k > 4·log n`` branch
rule and the fan-out of the Lemma 2.2 parts are the job skeleton Theorem 1.1
shares (:mod:`repro.core._job`).  Both branches run one layer-and-color
body.  The per-part colorings combine with a disjoint color-offset scheme:
part ``i``'s colors are shifted by the sum of the palette sizes of parts
``0..i-1`` (a prefix-sum broadcast, charged as one ``palette-offsets``
round).  Each part draws only from its own seed stream
(:func:`repro.engine.derive_seed` by part position) and the offsets depend
only on the fixed part order, so results are byte-identical for any worker
count.  Each task carries its part (a pickled pair of edge columns plus the
parent-id map), and the result ships back as flat ``array('l')``
color/layer columns.

The output's color count is ``O(λ · log log n)`` — experiment E2 measures
the realised constant.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from itertools import chain

from repro import kernels
from repro.core._job import fan_out, set_up_job
from repro.core.directed_expo import directed_reachability
from repro.core.full_assignment import complete_layer_assignment
from repro.core.parameters import density_bound, log_n, loglog
from repro.core.partitioning import random_vertex_partition
from repro.engine import seed_stream
from repro.errors import ParameterError
from repro.graph.coloring import Coloring
from repro.graph.graph import Graph, InducedSubgraph
from repro.graph.hpartition import HPartition
from repro.local.list_coloring import random_list_coloring
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import local_memory


@dataclass
class ColoringRun:
    """Output of the Theorem 1.2 pipeline, with measurements.

    ``part_rounds`` records, for every (non-empty) Lemma 2.2 part, the rounds
    the part charged on its own sub-ledger; ``rounds`` folds them as their
    max, not their sum.
    """

    coloring: Coloring
    num_colors: int
    palette_size: int
    arboricity_proxy: int
    rounds: int
    used_vertex_partitioning: bool
    num_parts: int
    local_subroutine_rounds: int
    hpartitions: list[HPartition] = field(default_factory=list)
    cluster: MPCCluster | None = None
    part_rounds: list[int] = field(default_factory=list)

    def colors_to_arboricity_ratio(self) -> float:
        """``num_colors / max(arboricity_proxy, 1)`` — the quality measure of E2."""
        return self.num_colors / max(self.arboricity_proxy, 1)


def _color_layered_graph(
    graph: Graph,
    hpartition: HPartition,
    palette_size: int,
    cluster: MPCCluster,
    rng: random.Random,
    delta: float,
) -> tuple[array, int]:
    """Color a single (low-arboricity) graph given its H-partition.

    Layers are processed from the deepest to the shallowest in batches whose
    directed-reachability sets stay below the local-memory proxy ``n^δ``.
    Returns the per-vertex color column (colors in ``0 .. palette_size-1``)
    and the total number of LOCAL subroutine rounds consumed.
    """
    layer_of = hpartition.layer_of
    out_csr = hpartition.out_csr()
    colors = array("l", [-1]) * graph.num_vertices
    local_rounds = 0

    n = max(graph.num_vertices, 2)
    set_size_limit = max(int(math.ceil(local_memory(n, delta, 4))), 16)
    # Batch size in layers: the paper uses Θ(δ log n / log^{2.67} log n).  The
    # batch size is fixed: each batch's vertices walk the directed out-CSR in
    # one reachability kernel call, whose count columns (set sizes, and how
    # many sets hold each vertex, truncated at the local-memory proxy) only
    # feed the Lemma 4.1 gather's ledger charge; they are not used to shrink
    # a batch.
    default_batch = max(int(math.ceil(log_n(n) / (loglog(n) ** 2))), 1)

    highest_uncolored = hpartition.num_layers
    while highest_uncolored >= 1:
        batch = min(default_batch, highest_uncolored)
        lowest_in_batch = highest_uncolored - batch + 1
        batch_vertices = sorted(
            chain.from_iterable(hpartition.layers[lowest_in_batch - 1 : highest_uncolored])
        )
        if batch_vertices:
            directed_reachability(
                graph,
                layer_of,
                batch_vertices,
                max_distance=batch * 4,
                cluster=cluster,
                set_size_limit=set_size_limit,
                out_csr=out_csr,
            )

        # Color the batch layer by layer (highest first); each layer is a
        # degree+1 list coloring on the graph induced by that layer.  A
        # member's out-CSR row is exactly its neighbors in layers ≥ its own,
        # so its palette is the full one minus the colors on that row.
        for layer_index in range(highest_uncolored, lowest_in_batch - 1, -1):
            members = hpartition.layer(layer_index)
            if not members:
                continue
            induced = graph.induced_subgraph(members)
            palettes = kernels.layer_palettes(
                induced.parent_ids, *out_csr, colors, 0, palette_size
            )
            result = random_list_coloring(induced, palettes, rng=rng)
            local_rounds += result.rounds
            for local_v, color in result.colors.items():
                colors[induced.to_parent(local_v)] = color
        highest_uncolored = lowest_in_batch - 1

    return colors, local_rounds


def _layer_and_color(
    graph: Graph,
    k: int,
    delta: float,
    palette_slack: int,
    cluster: MPCCluster,
    rng: random.Random,
) -> tuple[HPartition, array, int, int]:
    """Layer ``graph`` (Lemma 3.15) and color it layer by layer (Lemma 4.1).

    The palette is ``palette_slack · d`` colors, ``d`` the H-partition's
    out-degree.  Returns the H-partition, the color column, the palette size
    and the LOCAL subroutine rounds.
    """
    run = complete_layer_assignment(graph, k=k, delta=delta, cluster=cluster)
    hpartition = run.to_hpartition()
    palette_size = palette_slack * max(hpartition.max_out_degree(), 1)
    colors, local_rounds = _color_layered_graph(
        graph, hpartition, palette_size, cluster=cluster, rng=rng, delta=delta
    )
    return hpartition, colors, palette_size, local_rounds


def _color_part_task(
    part: InducedSubgraph,
    k: int,
    delta: float,
    palette_slack: int,
    seed: int,
    ledger: MPCCluster,
) -> tuple[array, array, int, int, object]:
    """Layer and color one Lemma 2.2 part against its own sub-ledger.

    Module-level so process workers can unpickle it by reference.  The part
    is colored with a palette-local base of 0 — the parent applies the
    disjoint offset when folding — and the result travels as two flat
    ``array('l')`` columns (color and layer per local vertex id) plus the
    sub-ledger's stats; the parent rebuilds the HPartition from the layer
    column.
    """
    hpartition, part_colors, palette_size, local_rounds = _layer_and_color(
        part, k, delta, palette_slack, ledger, random.Random(seed)
    )
    return part_colors, hpartition.layer_of, palette_size, local_rounds, ledger.stats


def color(
    graph: Graph,
    delta: float = 0.5,
    k: int | None = None,
    k_factor: float = 2.0,
    seed: int | None = None,
    cluster: MPCCluster | None = None,
    palette_slack: int = 3,
    force_vertex_partitioning: bool | None = None,
    workers: int = 1,
    tracer=None,
) -> ColoringRun:
    """Compute an ``O(λ log log n)``-coloring of ``graph`` (Theorem 1.2).

    Parameters mirror :func:`repro.core.orientation.orient`; ``palette_slack``
    is the constant in the per-part palette size ``palette_slack · d`` (the
    paper uses 3d).  ``workers`` fans the Lemma 2.2 vertex-partition parts of
    the large-λ branch out through a :class:`~repro.engine.WorkerPool` (1 =
    serial; must be at least 1; the round accounting is max-over-parts
    either way).  Results are byte-identical for any worker count.
    ``tracer`` records kernel-level wall-clock spans (layer+color, fan-out,
    palette union) with their ledger deltas — observation only, results are
    identical with tracing on or off.
    """
    if palette_slack < 2:
        raise ParameterError("palette_slack must be at least 2 for a degree+1 list coloring")
    job = set_up_job(
        graph, delta, k, k_factor, seed, cluster, force_vertex_partitioning, workers, tracer
    )
    if job is None:
        return ColoringRun(
            coloring=Coloring(graph, {}),
            num_colors=0,
            palette_size=0,
            arboricity_proxy=0,
            rounds=0,
            used_vertex_partitioning=False,
            num_parts=1,
            local_subroutine_rounds=0,
        )
    cluster, tracer = job.cluster, job.tracer

    if not job.large_lambda:
        # Small-λ branch: one part, colored in place on the parent ledger.
        with tracer.span("color:layers", cat="kernel", cluster=cluster):
            hpartition, colors, palette_size, local_rounds = _layer_and_color(
                graph, job.k, delta, palette_slack, cluster, job.rng
            )
        coloring = Coloring.from_column(graph, colors)
        return ColoringRun(
            coloring=coloring,
            num_colors=coloring.num_colors(),
            palette_size=palette_size,
            arboricity_proxy=job.arboricity_proxy,
            rounds=cluster.stats.num_rounds,
            used_vertex_partitioning=False,
            num_parts=1,
            local_subroutine_rounds=local_rounds,
            hpartitions=[hpartition],
            cluster=cluster,
        )

    # Large-λ branch: Lemma 2.2 vertex partitioning, layer and color all
    # parts in parallel supersteps (each on its own sub-ledger), then union
    # the per-part colorings under disjoint palette offsets.
    vertex_partition = random_vertex_partition(graph, arboricity_bound=job.k, rng=job.rng)
    cluster.charge_rounds(1, label="vertex-partition")
    num_parts = vertex_partition.num_parts
    # Per-part seeds are derived from the *part position*, so any worker
    # count (and the serial loop) replays identical randomness; empty parts
    # contribute nothing but keep their seed-stream slot so the part count
    # alone fixes every stream.
    part_seeds = seed_stream(seed, num_parts)
    nonempty = [
        (index, part)
        for index, part in enumerate(vertex_partition.parts)
        if part.num_vertices
    ]
    results = fan_out(
        "color",
        _color_part_task,
        [
            (part, job.per_part_k, delta, palette_slack, part_seeds[index], cluster.fork())
            for index, part in nonempty
        ],
        total_work=vertex_partition.total_edges + graph.num_vertices,
        job=job,
    )

    with tracer.span("color:merge", cat="kernel", cluster=cluster):
        cluster.merge_parallel([stats for *_rest, stats in results])
        # Disjoint palette offsets: part i's colors shift by the total palette
        # size of the parts before it.  The prefix sums are one broadcast.
        cluster.charge_rounds(1, label="palette-offsets")

        # The prefix-sum offsets and the shifted per-part color scatters run
        # as one kernel pass over the flat columns.
        column, offsets = kernels.assemble_color_columns(
            graph.num_vertices,
            [
                (part.parent_ids, result[0], result[2])
                for (_index, part), result in zip(nonempty, results)
            ],
        )
        hpartitions: list[HPartition] = []
        local_rounds = 0
        part_rounds: list[int] = []
        for (_index, part), result in zip(nonempty, results):
            _color_column, layer_column, _palette_size, part_local_rounds, stats = result
            hpartitions.append(HPartition(part, layer_column))
            local_rounds += part_local_rounds
            part_rounds.append(stats.num_rounds)

    coloring = Coloring.from_column(graph, column)
    return ColoringRun(
        coloring=coloring,
        num_colors=coloring.num_colors(),
        palette_size=offsets[-1],
        arboricity_proxy=job.arboricity_proxy,
        rounds=cluster.stats.num_rounds,
        used_vertex_partitioning=True,
        num_parts=num_parts,
        local_subroutine_rounds=local_rounds,
        hpartitions=hpartitions,
        cluster=cluster,
        part_rounds=part_rounds,
    )


def coloring_palette_bound(arboricity: int, num_vertices: int, constant: float = 24.0) -> int:
    """The Theorem 1.2 target bound ``O(λ · log log n)`` with an explicit constant.

    Used by tests and the E2 benchmark: ``num_colors ≤ ⌈constant · max(λ, 1) ·
    max(log2 log2 n, 1)⌉``.
    """
    return int(math.ceil(density_bound(arboricity, num_vertices, constant)))

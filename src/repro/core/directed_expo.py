"""Lemma 4.1 — directed graph exponentiation along outgoing edges.

In Theorem 1.2's coloring algorithm, edges across layers are directed toward
the higher layer and edges inside a layer are bidirectional.  The color of a
vertex in layer ``j'..j-1`` depends only on vertices reachable from it along
*directed* paths of bounded length, so a batch of layers can be colored after
every vertex in the batch learns its directed reachability set (with the
colors of the already-colored, higher-layer vertices in it).

:func:`directed_reachability` walks the directed out-CSR
(:meth:`repro.graph.hpartition.HPartition.out_csr`) from every start vertex
with one kernel call, :func:`repro.kernels.directed_reach`, and gets the
reachability sets back as two pair columns: ``requesters[i]`` reached
``owners[i]``.  Those columns are exactly the Lemma 4.1 interest lists, so
they go to :func:`~repro.mpc.primitives.gather_bundles` unchanged.  The MPC
charge is ``O(log(max_distance))`` rounds of doubling plus the gather.  Each
set is truncated at ``set_size_limit + 1`` vertices, so the caller sees a
set over the local-memory bound ``n^δ`` in ``max_set_size`` instead of
paying for all of it.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro import kernels
from repro.core.parameters import refuse_bools
from repro.errors import GraphError, ParameterError
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.primitives import gather_bundles


@dataclass
class ReachabilityResult:
    """Directed-reachability sets for a batch of start vertices.

    ``owners`` and ``requesters`` are the pair columns: ``requesters[i]``
    reached ``owners[i]``.  The pairs come grouped by start, in the order the
    starts were first given, and each start's vertices in BFS order with the
    start first.
    """

    owners: array
    requesters: array
    max_set_size: int
    rounds_charged: int

    @cached_property
    def reachable(self) -> dict[int, set[int]]:
        """``{start: its reachability set}``, built from the pair columns on first read."""
        reachable: dict[int, set[int]] = {}
        for start, vertex in zip(self.requesters, self.owners):
            reachable.setdefault(start, set()).add(vertex)
        return reachable


def directed_reachability(
    graph: Graph,
    layer_of: Sequence[int],
    start_vertices: Iterable[int],
    max_distance: int,
    cluster: MPCCluster | None = None,
    set_size_limit: int | None = None,
    out_csr: tuple[Sequence[int], Sequence[int]] | None = None,
) -> ReachabilityResult:
    """Vertices reachable from each start vertex along ≤ ``max_distance`` directed steps.

    Parameters
    ----------
    graph, layer_of:
        The graph and its per-vertex layer column defining edge directions.
        A column whose length is not ``graph.num_vertices`` raises
        :class:`~repro.errors.GraphError`.
    start_vertices:
        The batch of vertices that need to learn their reachability sets.
        A repeated start is walked and gathered once; a start outside
        ``0..n-1`` raises :class:`~repro.errors.GraphError`.
    max_distance:
        Maximum number of directed steps (an int ``≥ 0``).
    cluster:
        Optional MPC cluster; when given, ``⌈log2(max_distance)⌉ + 1`` doubling
        rounds plus one Lemma 4.1 gather are charged, and every vertex of a
        start's set is one one-word message to that start.
        ``rounds_charged`` reports every round charged, including the
        delivery's oversized-split rounds.
    set_size_limit:
        When given (an int ``≥ 1``), each reachability set is truncated at
        ``set_size_limit + 1`` vertices in BFS order, so a set over the
        limit shows as ``max_set_size`` exceeding it, and the gather charge
        stays within the local-memory proxy.  ``color()`` passes that
        proxy here but does not read ``max_set_size``: its batch size is fixed
        (the ``j - j' = O(δ log n / log^{2.67} log n)`` condition), not
        shrunk when a set overflows.
    out_csr:
        The directed out-CSR of ``(graph, layer_of)`` when the caller holds
        it already (:meth:`~repro.graph.hpartition.HPartition.out_csr`);
        built from ``layer_of`` when omitted.
    """
    refuse_bools(max_distance=max_distance, set_size_limit=set_size_limit)
    if max_distance < 0:
        raise ParameterError(f"max_distance must be at least 0, got {max_distance}")
    if set_size_limit is not None and set_size_limit < 1:
        raise ParameterError(f"set_size_limit must be at least 1, got {set_size_limit}")
    n = graph.num_vertices
    if len(layer_of) != n:
        raise GraphError(f"layer column has {len(layer_of)} entries for {n} vertices")
    starts = array("l", dict.fromkeys(start_vertices))
    if starts and not 0 <= min(starts) <= max(starts) < n:
        offender = next(v for v in starts if not 0 <= v < n)
        raise GraphError(f"start vertex {offender} is outside 0..{n - 1}")
    if out_csr is None:
        out_csr = kernels.directed_out_csr(n, graph.csr_indptr, graph.csr_indices, layer_of)
    owners, requesters, sizes = kernels.directed_reach(
        *out_csr, starts, max_distance, set_size_limit
    )

    rounds = 0
    if cluster is not None:
        doubling_rounds = max(max_distance.bit_length(), 1)
        cluster.charge_rounds(doubling_rounds, label="directed-expo:doubling")
        # Every vertex's bundle is one word; start ``s`` requests the bundle
        # of each vertex in its reachability set.
        rounds = doubling_rounds + gather_bundles(
            cluster, owners, requesters, 1, label="directed-expo:gather"
        )
    return ReachabilityResult(
        owners=owners,
        requesters=requesters,
        max_set_size=max(sizes, default=0),
        rounds_charged=rounds,
    )

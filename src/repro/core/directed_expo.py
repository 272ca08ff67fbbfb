"""Lemma 4.1 — directed graph exponentiation along outgoing edges.

In Theorem 1.2's coloring algorithm, edges across layers are directed toward
the higher layer and edges inside a layer are bidirectional.  The color of a
vertex in layer ``j'..j-1`` depends only on vertices reachable from it along
*directed* paths of bounded length, so a batch of layers can be colored after
every vertex in the batch learns its directed reachability set (with the
colors of the already-colored, higher-layer vertices in it).

:func:`directed_reachability` walks the directed out-CSR
(:meth:`repro.graph.hpartition.HPartition.out_csr`) from every start vertex
with one kernel call, :func:`repro.kernels.reach_counts`, and gets the
reachability sets back as two count columns: the size of each start's set,
and per vertex the number of sets it is in.  Those are exactly the two sides
of the Lemma 4.1 delivery — vertex ``v`` sends its one-word bundle once per
set it is in, start ``s`` receives one word per vertex of its set — so they
go to :func:`~repro.mpc.primitives.gather_bundles` as per-key volumes and no
(owner, requester) pair is ever listed.  The MPC charge is
``O(log(max_distance))`` rounds of doubling plus the gather.  Each set is
truncated at ``set_size_limit + 1`` vertices in BFS order, so a set over the
local-memory bound ``n^δ`` shows in ``max_set_size`` and its charge stops at
the truncation.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro import kernels
from repro.core.parameters import refuse_bools
from repro.errors import GraphError, ParameterError
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.primitives import gather_bundles


@dataclass
class ReachabilityResult:
    """Directed-reachability counts for a batch of start vertices.

    ``starts`` lists each start once, in the order first given, and
    ``sizes[j]`` is the size of the truncated reachability set of
    ``starts[j]`` (the start included).  ``hits[v]`` is the number of those
    sets that contain vertex ``v``, one entry per vertex of the graph.
    """

    starts: array
    sizes: array
    hits: array
    max_set_size: int
    rounds_charged: int


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
        rounds plus one Lemma 4.1 gather are charged.  The gather delivers one
        word per vertex of each start's set: vertex ``v`` sends ``hits[v]``
        words and start ``s`` receives its set's size.
        ``rounds_charged`` reports every round charged, including the
        delivery's oversized-split rounds.
    set_size_limit:
        When given (an int ``≥ 1``), each reachability set is truncated at
        ``set_size_limit + 1`` vertices in BFS order, so a set over the
        limit shows as ``max_set_size`` exceeding it, and both its count and
        its gather charge stop at the truncation.  ``color()`` passes the
        local-memory proxy here and reads nothing back: its batch size is
        fixed (the ``j - j' = O(δ log n / log^{2.67} log n)`` condition),
        not shrunk when a set overflows.
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
    sizes, hits = kernels.reach_counts(*out_csr, starts, max_distance, set_size_limit)

    rounds = 0
    if cluster is not None:
        doubling_rounds = max(max_distance.bit_length(), 1)
        cluster.charge_rounds(doubling_rounds, label="directed-expo:doubling")
        # Every vertex's bundle is one word: vertex ``v`` sends it once per
        # set it is in, and each start receives one word per vertex of its set.
        rounds = doubling_rounds + gather_bundles(
            cluster, (range(n), hits), (starts, sizes), label="directed-expo:gather"
        )
    return ReachabilityResult(
        starts=starts,
        sizes=sizes,
        hits=hits,
        max_set_size=max(sizes, default=0),
        rounds_charged=rounds,
    )

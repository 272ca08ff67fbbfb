"""Lemma 4.1 — directed graph exponentiation along outgoing edges.

In Theorem 1.2's coloring algorithm, edges across layers are directed toward
the higher layer and edges inside a layer are bidirectional.  The color of a
vertex in layer ``j'..j-1`` depends only on vertices reachable from it along
*directed* paths of bounded length, so a batch of layers can be colored after
every vertex in the batch learns its directed reachability set (with the
colors of the already-colored, higher-layer vertices in it).

:func:`directed_reachability` computes, for every start vertex in a given set,
the set of vertices reachable along directed paths of length ≤ ``max_distance``
— centrally, but the MPC wrapper charges ``O(log(max_distance))`` rounds of
doubling plus the Lemma 4.1 gather, with per-vertex set sizes reported so the
local-memory condition (|reachable set| ≤ n^δ) is checked by the caller rather
than assumed.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.primitives import gather_bundles


@dataclass
class ReachabilityResult:
    """Directed-reachability sets for a batch of start vertices."""

    reachable: dict[int, set[int]]
    max_set_size: int
    rounds_charged: int


def out_neighbors_by_layer(
    graph: Graph, layer_of: Sequence[int]
) -> dict[int, list[int]]:
    """The directed out-neighborhood used by the coloring algorithm.

    Edges inside a layer are bidirectional; edges across layers point toward
    the strictly higher layer.
    """
    out: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for (u, v) in graph.edges:
        if layer_of[u] == layer_of[v]:
            out[u].append(v)
            out[v].append(u)
        elif layer_of[u] < layer_of[v]:
            out[u].append(v)
        else:
            out[v].append(u)
    return out


def directed_reachability(
    graph: Graph,
    layer_of: Sequence[int],
    start_vertices: Iterable[int],
    max_distance: int,
    cluster: MPCCluster | None = None,
    set_size_limit: int | None = None,
) -> ReachabilityResult:
    """Vertices reachable from each start vertex along ≤ ``max_distance`` directed steps.

    Parameters
    ----------
    graph, layer_of:
        The graph and its per-vertex layer column defining edge directions.
    start_vertices:
        The batch of vertices that need to learn their reachability sets.
    max_distance:
        Maximum number of directed steps.
    cluster:
        Optional MPC cluster; when given, ``⌈log2(max_distance)⌉ + 1`` doubling
        rounds plus one Lemma 4.1 gather are charged, and every vertex of a
        start's set is one one-word message to that start.
        ``rounds_charged`` reports every round charged, including the
        delivery's oversized-split rounds.
    set_size_limit:
        When given, reachability sets are truncated at this size and the
        truncation is reported through ``max_set_size`` exceeding the limit —
        callers use this to detect that a batch was too ambitious for the
        local-memory constraint (and must shrink the batch), mirroring the
        ``j - j' = O(δ log n / log^{2.67} log n)`` batch-size condition.
    """
    starts = list(start_vertices)
    out = out_neighbors_by_layer(graph, layer_of)

    reachable: dict[int, set[int]] = {}
    max_size = 0
    for start in starts:
        seen = {start}
        frontier = [start]
        distance = 0
        while frontier and distance < max_distance:
            next_frontier: list[int] = []
            for u in frontier:
                for w in out[u]:
                    if w not in seen:
                        seen.add(w)
                        next_frontier.append(w)
                        if set_size_limit is not None and len(seen) > set_size_limit:
                            break
                if set_size_limit is not None and len(seen) > set_size_limit:
                    break
            frontier = next_frontier
            distance += 1
            if set_size_limit is not None and len(seen) > set_size_limit:
                break
        reachable[start] = seen
        max_size = max(max_size, len(seen))

    rounds = 0
    if cluster is not None:
        doubling_rounds = max(max_distance.bit_length(), 1)
        cluster.charge_rounds(doubling_rounds, label="directed-expo:doubling")
        # Every vertex's bundle is one word; start ``s`` requests the bundle
        # of each vertex in its reachability set.
        owners = array("l")
        requesters = array("l")
        for start, seen in reachable.items():
            owners.extend(seen)
            requesters.extend(array("l", [start]) * len(seen))
        rounds = doubling_rounds + gather_bundles(
            cluster, owners, requesters, 1, label="directed-expo:gather"
        )
    return ReachabilityResult(reachable=reachable, max_set_size=max_size, rounds_charged=rounds)

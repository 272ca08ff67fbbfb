"""Dinic's maximum-flow algorithm.

This is a substrate module: the paper's algorithms never compute max-flow, but
our *evaluation* needs the exact maximum subgraph density ``α(G) = max_S
|E(S)|/|S|`` to report the ratio between achieved outdegree and the densest
subgraph density (Theorems 1.1/1.2 are stated relative to the arboricity λ,
and ``α ≤ λ ≤ α + 1``).  Exact densest subgraph is computed by Goldberg's
classic reduction: binary search over the guess ``g`` combined with a min-cut
on a bipartite-style flow network.  We implement Dinic's algorithm from
scratch rather than depending on networkx so that the library stands alone.

The implementation is iterative (explicit stacks) and uses adjacency arrays of
edge indices so it copes with the graph sizes used in the benchmarks
(thousands of vertices, tens of thousands of edges) in well under a second.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class FlowNetwork:
    """A directed flow network supporting Dinic's max-flow.

    Edges are added in pairs (forward edge with the given capacity and a
    residual back edge with capacity 0).  Capacities are floats so the network
    can be reused by the densest-subgraph binary search, which needs
    fractional capacities.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self._head: list[list[int]] = [[] for _ in range(num_nodes)]
        self._to: list[int] = []
        self._cap: list[float] = []

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed edge ``u -> v``; returns the edge index."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        index = len(self._to)
        self._to.append(v)
        self._cap.append(float(capacity))
        self._head[u].append(index)
        # residual edge
        self._to.append(u)
        self._cap.append(0.0)
        self._head[v].append(index + 1)
        return index

    # ------------------------------------------------------------------ #
    # Dinic
    # ------------------------------------------------------------------ #

    def _bfs_levels(self, source: int, sink: int, eps: float) -> Optional[list[int]]:
        levels = [-1] * self.num_nodes
        levels[source] = 0
        queue: deque[int] = deque([source])
        while queue:
            u = queue.popleft()
            for edge_index in self._head[u]:
                v = self._to[edge_index]
                if levels[v] < 0 and self._cap[edge_index] > eps:
                    levels[v] = levels[u] + 1
                    queue.append(v)
        if levels[sink] < 0:
            return None
        return levels

    def _dfs_blocking_flow(
        self, source: int, sink: int, levels: list[int], eps: float
    ) -> float:
        total = 0.0
        iter_index = [0] * self.num_nodes
        while True:
            # Find an augmenting path with an iterative DFS.
            path_edges: list[int] = []
            u = source
            found = False
            while True:
                if u == sink:
                    found = True
                    break
                advanced = False
                while iter_index[u] < len(self._head[u]):
                    edge_index = self._head[u][iter_index[u]]
                    v = self._to[edge_index]
                    if self._cap[edge_index] > eps and levels[v] == levels[u] + 1:
                        path_edges.append(edge_index)
                        u = v
                        advanced = True
                        break
                    iter_index[u] += 1
                if advanced:
                    continue
                # dead end: retreat
                if u == source:
                    break
                levels[u] = -1
                last_edge = path_edges.pop()
                u = self._to[last_edge ^ 1]
                iter_index[u] += 1
            if not found:
                break
            bottleneck = min(self._cap[e] for e in path_edges)
            for e in path_edges:
                self._cap[e] -= bottleneck
                self._cap[e ^ 1] += bottleneck
            total += bottleneck
        return total

    def max_flow(self, source: int, sink: int, eps: float = 1e-12) -> float:
        """Compute the maximum flow from ``source`` to ``sink``."""
        if source == sink:
            raise ValueError("source and sink must differ")
        flow = 0.0
        while True:
            levels = self._bfs_levels(source, sink, eps)
            if levels is None:
                return flow
            flow += self._dfs_blocking_flow(source, sink, list(levels), eps)

    def min_cut_source_side(self, source: int, eps: float = 1e-12) -> set[int]:
        """Vertices reachable from ``source`` in the residual network.

        Must be called after :meth:`max_flow`; the returned set is the source
        side of a minimum cut.
        """
        reachable = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for edge_index in self._head[u]:
                v = self._to[edge_index]
                if v not in reachable and self._cap[edge_index] > eps:
                    reachable.add(v)
                    stack.append(v)
        return reachable

"""Incremental repair of a proper coloring under edge churn.

The static pipeline (Theorem 1.2) colors from scratch with ``O(λ log log n)``
colors.  Under a stream of updates only insertions can break properness, and
only at the two endpoints of the inserted edge — so the maintainer repairs
exactly the vertices whose palette was invalidated:

* **Insertion** ``{u, v}`` with ``color[u] == color[v]``: recolor the endpoint
  with the smaller degree, giving it the smallest color not used in its
  (current, dynamic) neighborhood.  One vertex, O(deg) work.
* **Deletion** never invalidates a proper coloring; nothing to do.

Greedy repair keeps the coloring proper at all times but lets the palette
drift above the density-dependent target as the graph churns.  Whenever the
orientation maintainer performs a full rebuild — or a caller invokes
:meth:`IncrementalColoring.refresh` — the coloring is recomputed in reverse
degeneracy order (≤ ``degeneracy + 1 ≤ 2λ`` colors), which re-compresses the
palette at O(n + m) amortised cost.
"""

from __future__ import annotations

from array import array
from collections import Counter

from repro import kernels
from repro.baselines.greedy import degeneracy_order_coloring
from repro.errors import GraphError
from repro.graph.coloring import Coloring
from repro.graph.graph import Graph
from repro.stream.dynamic_graph import DynamicGraph


class IncrementalColoring:
    """Maintains a proper coloring of a :class:`DynamicGraph` under churn."""

    def __init__(self, dynamic: DynamicGraph) -> None:
        self._dynamic = dynamic
        self._colors: array = array("l", [0]) * dynamic.num_vertices
        self.recolors = 0
        self.refreshes = 0
        snapshot = dynamic.snapshot()
        if snapshot.num_edges:
            self._install(degeneracy_order_coloring(snapshot))
        self._count_colors()

    def _install(self, coloring: Coloring) -> None:
        colors = self._colors
        for v, c in coloring.as_dict().items():
            colors[v] = c

    def _count_colors(self) -> None:
        """Derive the running color histogram (color -> vertices) from the
        column.  It is not checkpointed; :meth:`handle_insert` keeps it
        current, and only colors in use have an entry."""
        self._color_counts = Counter(self._colors)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def color(self, v: int) -> int:
        """Current color of vertex ``v``."""
        return self._colors[v]

    def num_colors(self) -> int:
        """Number of distinct colors currently in use (running state, O(1))."""
        return len(self._color_counts)

    def is_proper(self) -> bool:
        """Whether no live edge is monochromatic (one kernel scan over a
        snapshot's edge columns — the snapshot cache makes repeated checks
        between mutations O(1) in graph work)."""
        edge_u, edge_v = self._dynamic.snapshot().edge_endpoints
        return kernels.first_monochrome(self._colors, edge_u, edge_v) < 0

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def handle_insert(self, u: int, v: int) -> bool:
        """Repair the coloring after inserting ``{u, v}``; returns whether a
        vertex was recolored."""
        colors = self._colors
        if colors[u] != colors[v]:
            return False
        dynamic = self._dynamic
        victim = u if dynamic.degree(u) <= dynamic.degree(v) else v
        taken = {colors[w] for w in dynamic.neighbors(victim)}
        fresh = 0
        while fresh in taken:
            fresh += 1
        counts = self._color_counts
        stale = colors[victim]
        if counts[stale] == 1:
            del counts[stale]
        else:
            counts[stale] -= 1
        counts[fresh] += 1
        colors[victim] = fresh
        self.recolors += 1
        return True

    def handle_insert_batch(self, us, vs) -> int:
        """Repair after a column of insertions; returns vertices recolored.

        One loop over the insert columns, calling :meth:`handle_insert` for
        each monochromatic edge in order, so each edge is examined exactly
        once against the colors as of its turn.  A batch recolors a few
        vertices, so a kernel scan per recolor costs more than the loop.
        """
        before = self.recolors
        colors = self._colors
        for u, v in zip(us, vs):
            if colors[u] == colors[v]:
                self.handle_insert(u, v)
        return self.recolors - before

    def refresh(self, snapshot: Graph | None = None) -> None:
        """Recolor from scratch in reverse degeneracy order (palette reset)."""
        if snapshot is None:
            snapshot = self._dynamic.snapshot()
        if snapshot.num_vertices != self._dynamic.num_vertices:
            raise GraphError("refresh snapshot must cover the full vertex set")
        self._colors = array("l", [0]) * self._dynamic.num_vertices
        if snapshot.num_edges:
            self._install(degeneracy_order_coloring(snapshot))
        self._count_colors()
        self.refreshes += 1

    # ------------------------------------------------------------------ #
    # Checkpoint seam
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """The color column plus counters, JSON-serializable."""
        return {
            "colors": list(self._colors),
            "recolors": self.recolors,
            "refreshes": self.refreshes,
        }

    @classmethod
    def from_state(cls, state: dict, dynamic: DynamicGraph) -> "IncrementalColoring":
        """Rebuild from :meth:`state_dict` output without recoloring."""
        coloring = object.__new__(cls)
        coloring._dynamic = dynamic
        coloring._colors = array("l", state["colors"])
        coloring._count_colors()
        coloring.recolors = state["recolors"]
        coloring.refreshes = state["refreshes"]
        return coloring

    def __repr__(self) -> str:
        return f"IncrementalColoring(colors={self.num_colors()}, recolors={self.recolors})"

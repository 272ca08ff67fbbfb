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

    def _install(self, coloring: Coloring) -> None:
        colors = self._colors
        for v, c in coloring.as_dict().items():
            colors[v] = c

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def color(self, v: int) -> int:
        """Current color of vertex ``v``."""
        return self._colors[v]

    def num_colors(self) -> int:
        """Number of distinct colors currently in use."""
        return kernels.count_distinct(self._colors)

    def max_color(self) -> int:
        """Largest color index in use (palette-size proxy)."""
        return kernels.max_value(self._colors)

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
        colors[victim] = fresh
        self.recolors += 1
        return True

    def handle_insert_batch(self, us, vs) -> int:
        """Repair after a column of insertions; returns vertices recolored.

        Equivalent to calling :meth:`handle_insert` per edge in order: the
        kernel scan finds the next monochromatic edge, the repair runs in
        python (it mutates colors, which later comparisons must see), and
        the scan resumes just past it — so each edge is still examined
        exactly once against the colors as of its turn.
        """
        before = self.recolors
        start = 0
        colors = self._colors
        while True:
            i = kernels.first_monochrome(colors, us, vs, start)
            if i < 0:
                break
            self.handle_insert(us[i], vs[i])
            start = i + 1
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
        coloring.recolors = state["recolors"]
        coloring.refreshes = state["refreshes"]
        return coloring

    def __repr__(self) -> str:
        return f"IncrementalColoring(colors={self.num_colors()}, recolors={self.recolors})"

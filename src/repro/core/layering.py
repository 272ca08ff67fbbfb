"""Partial layer assignments, their combination and path counts.

Implements Section 2.1 of the paper:

* Definition 2.1 — a *partial layer assignment* ``ℓ : V -> [L] ∪ {∞}`` with
  out-degree ``d``: every assigned vertex has at most ``d`` neighbors in the
  same or a higher layer (unassigned = ``∞`` counts as higher).
* Claim 2.3 — the pointwise minimum of two partial layer assignments with the
  same ``L`` and ``d`` is again a partial layer assignment with those
  parameters.
* Definition 2.2 / Lemma 2.4 — strictly increasing paths and the per-vertex
  path counts ``NumPathsIn`` / ``NumPathsOut``; the total is at most
  ``n · d^L`` for a complete assignment with out-degree ``d``.

Storage layout: ``layer_of`` is a flat per-vertex list of floats (``∞`` =
:data:`UNASSIGNED`) indexed by vertex id and aligned with the graph's CSR
arrays.  It stays a float list, unlike the integer ``array('l')`` columns of
:class:`~repro.graph.hpartition.HPartition` and
:class:`~repro.core.full_assignment.LayerAssignmentRun` (``0`` = unassigned),
because Definition 2.1's comparisons rely on ``∞`` ranking above every
layer; Lemma 3.14 converts it once, where it scatters a result into its
integer column.  The peeling constructor delegates to the shared frontier
kernel :meth:`repro.graph.graph.Graph.peel_layers`, and the path-count DPs
are single passes over a layer-sorted vertex array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InvalidLayeringError
from repro.graph.graph import Graph

UNASSIGNED = math.inf
"""Sentinel layer value for unassigned vertices (the paper's ``∞``)."""


@dataclass(frozen=True)
class PartialLayerAssignment:
    """A partial layer assignment ``ℓ : V(G) -> [L] ∪ {∞}`` (Definition 2.1).

    ``layer_of[v]`` is either an integer in ``1..num_layers`` or
    :data:`UNASSIGNED`.  The declared ``out_degree`` is the bound ``d`` the
    assignment promises; :meth:`validate` checks the promise.  ``layer_of``
    is any per-vertex sequence; it is stored as a list.
    """

    graph: Graph
    layer_of: list[float]
    num_layers: int
    out_degree: int

    def __post_init__(self) -> None:
        values = list(self.layer_of)
        n = self.graph.num_vertices
        if len(values) != n:
            raise InvalidLayeringError(
                f"layer column has {len(values)} entries for {n} vertices"
            )
        allowed = {UNASSIGNED, *range(1, self.num_layers + 1)}
        if not allowed.issuperset(values):
            v = next(v for v, value in enumerate(values) if value not in allowed)
            raise InvalidLayeringError(
                f"vertex {v} has layer {values[v]!r}, not an integer in "
                f"1..{self.num_layers} or UNASSIGNED"
            )
        object.__setattr__(self, "layer_of", values)

    # ------------------------------------------------------------------ #

    def layer(self, v: int) -> float:
        """Layer of ``v`` (``UNASSIGNED`` if not assigned)."""
        return self.layer_of[v]

    def is_assigned(self, v: int) -> bool:
        """Whether ``v`` has a finite layer."""
        return self.layer_of[v] != UNASSIGNED

    def assigned_vertices(self) -> list[int]:
        """All vertices with a finite layer."""
        return [v for v, value in enumerate(self.layer_of) if value != UNASSIGNED]

    def unassigned_vertices(self) -> list[int]:
        """All vertices with layer ``∞``."""
        return [v for v, value in enumerate(self.layer_of) if value == UNASSIGNED]

    def higher_or_equal_neighbors(self, v: int) -> list[int]:
        """Neighbors ``u`` of ``v`` with ``ℓ(u) ≥ ℓ(v)`` (the out-degree set)."""
        values = self.layer_of
        mine = values[v]
        return [u for u in self.graph.neighbors(v) if values[u] >= mine]

    def observed_out_degree(self, v: int) -> int:
        """``|{u ∈ N(v) : ℓ(u) ≥ ℓ(v)}|`` for an assigned vertex ``v``."""
        return len(self.higher_or_equal_neighbors(v))

    def _observed_out_degrees(self):
        """Yield ``(v, ℓ(v), observed out-degree)`` for every assigned vertex.

        One pass over the CSR adjacency; shared by :meth:`validate` and
        :meth:`max_observed_out_degree`.
        """
        values = self.layer_of
        indptr = self.graph.csr_indptr
        indices = self.graph.csr_indices
        for v, mine in enumerate(values):
            if mine == UNASSIGNED:
                continue
            observed = 0
            for j in range(indptr[v], indptr[v + 1]):
                if values[indices[j]] >= mine:
                    observed += 1
            yield v, mine, observed

    def max_observed_out_degree(self) -> int:
        """Maximum out-degree over assigned vertices (0 if nothing is assigned)."""
        return max(
            (observed for _v, _mine, observed in self._observed_out_degrees()),
            default=0,
        )

    def validate(self) -> None:
        """Raise unless every assigned vertex respects the declared out-degree bound.

        This is exactly Definition 2.1's condition; checked in one pass over
        the CSR adjacency.
        """
        bound = self.out_degree
        for v, mine, observed in self._observed_out_degrees():
            if observed > bound:
                raise InvalidLayeringError(
                    f"vertex {v} (layer {mine}) has {observed} neighbors in "
                    f"layers ≥ its own, exceeding the declared bound {bound}"
                )

    def fraction_assigned(self) -> float:
        """Fraction of vertices with a finite layer."""
        n = self.graph.num_vertices
        if n == 0:
            return 1.0
        return len(self.assigned_vertices()) / n

    # ------------------------------------------------------------------ #
    # Claim 2.3
    # ------------------------------------------------------------------ #

    def combine_min(self, other: "PartialLayerAssignment") -> "PartialLayerAssignment":
        """Pointwise minimum of two partial layer assignments (Claim 2.3).

        Both assignments must be over the same graph and declare the same
        ``L`` and ``d``; the result declares the same parameters and is again
        valid (Claim 2.3's statement, verified by the property tests).
        """
        if other.graph is not self.graph and other.graph != self.graph:
            raise InvalidLayeringError("cannot combine assignments over different graphs")
        if other.num_layers != self.num_layers or other.out_degree != self.out_degree:
            raise InvalidLayeringError(
                "cannot combine assignments with different (L, d) parameters"
            )
        combined = [a if a <= b else b for a, b in zip(self.layer_of, other.layer_of)]
        return PartialLayerAssignment(
            graph=self.graph,
            layer_of=combined,
            num_layers=self.num_layers,
            out_degree=self.out_degree,
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def fully_unassigned(cls, graph: Graph, num_layers: int, out_degree: int) -> "PartialLayerAssignment":
        """The trivial assignment mapping every vertex to ``∞``."""
        return cls(
            graph=graph,
            layer_of=[UNASSIGNED] * graph.num_vertices,
            num_layers=num_layers,
            out_degree=out_degree,
        )

    @classmethod
    def from_peeling(cls, graph: Graph, threshold: int, num_layers: int | None = None) -> "PartialLayerAssignment":
        """The auxiliary complete assignment ``ℓ_G`` of Lemma 3.13.

        Peel vertices of remaining degree ≤ ``threshold`` iteratively; the
        iteration index is the layer.  Any vertices that survive all
        iterations (possible only when the threshold is below 2λ) stay ``∞``.

        When ``num_layers`` is omitted, the declared layer count is exactly
        the deepest assigned layer (at least 1), so ``num_layers`` never
        overstates the layering depth that round bounds are derived from.
        """
        layers, rounds_used = graph.peel_layers(threshold, max_rounds=num_layers)
        layer_of = [float(layer) if layer else UNASSIGNED for layer in layers]
        declared = rounds_used if num_layers is None else num_layers
        return cls(
            graph=graph,
            layer_of=layer_of,
            num_layers=max(declared, 1),
            out_degree=threshold,
        )


# --------------------------------------------------------------------------- #
# Definition 2.2 / Lemma 2.4: strictly increasing path counts
# --------------------------------------------------------------------------- #


def num_paths_in(assignment: PartialLayerAssignment) -> dict[int, int]:
    """``NumPathsIn(v)``: strictly increasing paths (w.r.t. ℓ) ending at ``v``.

    A path ``(v_1, ..., v_k)`` is strictly increasing if
    ``ℓ(v_1) < ℓ(v_2) < ... < ℓ(v_k) < ∞``; the single-vertex path counts, so
    every assigned vertex has ``NumPathsIn ≥ 1`` and unassigned vertices have 0.

    Computed by a single dynamic-programming pass over the vertices sorted by
    increasing layer: ``NumPathsIn(v) = 1 + Σ_{u ∈ N(v), ℓ(u) < ℓ(v)} NumPathsIn(u)``.
    """
    graph = assignment.graph
    values = assignment.layer_of
    n = graph.num_vertices
    indptr = graph.csr_indptr
    indices = graph.csr_indices
    counts = [0] * n
    order = sorted(
        (v for v in range(n) if values[v] != UNASSIGNED), key=values.__getitem__
    )
    for v in order:
        mine = values[v]
        total = 1
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            if values[u] < mine:
                total += counts[u]
        counts[v] = total
    return {v: counts[v] for v in range(n)}


def num_paths_out(assignment: PartialLayerAssignment) -> dict[int, int]:
    """``NumPathsOut(v)``: strictly increasing paths (w.r.t. ℓ) starting at ``v``."""
    graph = assignment.graph
    values = assignment.layer_of
    n = graph.num_vertices
    indptr = graph.csr_indptr
    indices = graph.csr_indices
    counts = [0] * n
    order = sorted(
        (v for v in range(n) if values[v] != UNASSIGNED),
        key=values.__getitem__,
        reverse=True,
    )
    for v in order:
        mine = values[v]
        total = 1
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            # Unassigned neighbors compare greater but contribute count 0.
            if values[u] > mine:
                total += counts[u]
        counts[v] = total
    return {v: counts[v] for v in range(n)}


def lemma_2_4_upper_bound(assignment: PartialLayerAssignment) -> int:
    """The right-hand side ``|V| · Σ_{j<L} d^j ≤ |V| · d^L`` of Lemma 2.4."""
    d = max(assignment.out_degree, 2)
    total_per_vertex = sum(d**j for j in range(assignment.num_layers))
    return assignment.graph.num_vertices * total_per_vertex


def enumerate_strictly_increasing_paths(
    assignment: PartialLayerAssignment, start: int, limit: int = 1_000_000
) -> list[list[int]]:
    """Explicitly enumerate strictly increasing paths starting at ``start``.

    Exponential in the worst case — used only by tests on small graphs to
    cross-check the dynamic programs above.
    """
    graph = assignment.graph
    if not assignment.is_assigned(start):
        return []
    paths: list[list[int]] = []
    stack: list[list[int]] = [[start]]
    while stack and len(paths) < limit:
        path = stack.pop()
        paths.append(path)
        tail = path[-1]
        for u in graph.neighbors(tail):
            if assignment.is_assigned(u) and assignment.layer(u) > assignment.layer(tail):
                stack.append(path + [u])
    return paths

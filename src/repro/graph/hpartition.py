"""H-partitions (complete layer assignments) and their validation.

An H-partition [BE08, GLM+23] splits the vertex set into layers
``H_1 ⊔ H_2 ⊔ ... ⊔ H_L`` such that every vertex in layer ``i`` has at most
``d`` neighbors in layers ``≥ i``.  The deterministic part of Theorem 1.1
computes exactly such a partition with ``d = O(λ log log n)`` and additionally
guarantees geometric decay of the layer sizes, ``|H_i| ≤ n · exp(-Θ(i))``
(in our Lemma 3.15 driver: ``|{v : ℓ(v) ≥ j}| ≤ 0.5^{j-1} n``).

This module holds the *value object* describing the result; the algorithms
computing H-partitions live in :mod:`repro.core`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro import kernels
from repro.errors import InvalidLayeringError
from repro.graph.graph import Graph
from repro.graph.orientation import Orientation


@dataclass(frozen=True)
class HPartition:
    """A complete layer assignment ``ℓ : V -> {1, ..., L}``.

    Attributes
    ----------
    graph:
        The underlying graph.
    layer_of:
        Per-vertex layer column: ``layer_of[v]`` is the (1-based) layer of
        vertex ``v``.  Any iterable of ``n`` integers is accepted; it is
        stored as an ``array('l')``.
    """

    graph: Graph
    layer_of: array
    _layers: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False, default=())
    _out_csr: tuple[array, array] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        n = self.graph.num_vertices
        try:
            column = array("l", self.layer_of)
        except TypeError as exc:
            raise InvalidLayeringError(f"layers must be integers ({exc})") from None
        if len(column) != n:
            raise InvalidLayeringError(f"layer column has {len(column)} entries for {n} vertices")
        if min(column, default=1) < 1:
            bad = [v for v, layer in enumerate(column) if layer < 1]
            raise InvalidLayeringError(f"layers must be ≥ 1 (offenders: {bad[:5]})")
        layers: list[list[int]] = [[] for _ in range(max(column, default=0))]
        for v, layer in enumerate(column):
            layers[layer - 1].append(v)
        object.__setattr__(self, "layer_of", column)
        object.__setattr__(self, "_layers", tuple(map(tuple, layers)))

    # ------------------------------------------------------------------ #

    @property
    def num_layers(self) -> int:
        """Number of layers ``L`` (index of the deepest non-empty layer)."""
        return len(self._layers)

    def layer(self, index: int) -> tuple[int, ...]:
        """Vertices in layer ``index`` (1-based)."""
        if not 1 <= index <= len(self._layers):
            raise InvalidLayeringError(
                f"layer {index} is outside 1..{len(self._layers)}"
            )
        return self._layers[index - 1]

    @property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """All layers, ``layers[i]`` being layer ``i+1``."""
        return self._layers

    def layer_sizes(self) -> list[int]:
        """``[|H_1|, |H_2|, ..., |H_L|]``."""
        return [len(layer) for layer in self._layers]

    def suffix_sizes(self) -> list[int]:
        """``[|{v : ℓ(v) ≥ j}|]`` for ``j = 1..L`` (the decay quantity of Lemma 3.15)."""
        sizes = self.layer_sizes()
        suffix: list[int] = []
        total = 0
        for size in reversed(sizes):
            total += size
            suffix.append(total)
        return list(reversed(suffix))

    def out_degree_of(self, v: int) -> int:
        """Number of neighbors of ``v`` in the same or a higher layer."""
        mine = self.layer_of[v]
        return sum(1 for w in self.graph.neighbors(v) if self.layer_of[w] >= mine)

    def out_csr(self) -> tuple[array, array]:
        """The directed out-CSR ``(out_indptr, out_indices)``, built once.

        Row ``v`` lists, ascending, the neighbors of ``v`` in layers
        ``≥ ℓ(v)``: same-layer edges point both ways, cross-layer edges
        toward the higher layer (the directions of Lemma 4.1).
        """
        if self._out_csr is None:
            graph = self.graph
            csr = kernels.directed_out_csr(
                graph.num_vertices, graph.csr_indptr, graph.csr_indices, self.layer_of
            )
            object.__setattr__(self, "_out_csr", csr)
        return self._out_csr

    def out_degrees(self) -> array:
        """Per-vertex out-degree column: the row lengths of :meth:`out_csr`."""
        return kernels.row_lengths(self.out_csr()[0])

    def max_out_degree(self) -> int:
        """``max_v |{u ∈ N(v) : ℓ(u) ≥ ℓ(v)}|`` — the H-partition's out-degree."""
        return max(self.out_degrees(), default=0)

    def to_orientation(self) -> Orientation:
        """Orient every edge toward the strictly higher layer (ties toward larger id)."""
        return Orientation.from_vertex_order(self.graph, self.layer_of)

    # ------------------------------------------------------------------ #
    # Validation helpers used by tests and the experiment harness
    # ------------------------------------------------------------------ #

    def validate_out_degree(self, bound: int) -> None:
        """Raise unless every vertex has ≤ ``bound`` neighbors in layers ≥ its own."""
        degrees = self.out_degrees()
        worst = max(degrees, default=0)
        if worst > bound:
            offenders = [v for v, degree in enumerate(degrees) if degree > bound]
            raise InvalidLayeringError(
                f"H-partition out-degree {worst} exceeds bound {bound} "
                f"({len(offenders)} offenders, e.g. {offenders[:5]})"
            )

    def validate_decay(self, ratio: float = 0.5, slack: float = 1.0) -> None:
        """Check the geometric decay property of Lemma 3.15.

        Requires ``|{v : ℓ(v) ≥ j}| ≤ slack · ratio^{j-1} · n`` for every
        layer ``j``.  ``slack`` allows a multiplicative constant when checking
        randomized runs on small graphs.
        """
        n = self.graph.num_vertices
        for j, suffix in enumerate(self.suffix_sizes(), start=1):
            allowed = slack * (ratio ** (j - 1)) * n
            if suffix > allowed + 1e-9:
                raise InvalidLayeringError(
                    f"layer decay violated at layer {j}: "
                    f"{suffix} vertices remain but only {allowed:.2f} allowed"
                )

    @classmethod
    def from_layers(cls, graph: Graph, layers: Iterable[Iterable[int]]) -> "HPartition":
        """Build from an explicit list of layers (layer 1 first).

        A vertex missing from every layer keeps layer 0, which the
        constructor rejects.
        """
        n = graph.num_vertices
        layer_of = array("l", [0]) * n
        for index, layer in enumerate(layers, start=1):
            for v in layer:
                if not 0 <= v < n:
                    raise InvalidLayeringError(f"vertex {v} is not a vertex of the graph")
                if layer_of[v]:
                    raise InvalidLayeringError(f"vertex {v} appears in more than one layer")
                layer_of[v] = index
        return cls(graph, layer_of)

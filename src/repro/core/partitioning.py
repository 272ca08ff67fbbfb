"""Lemma 2.1 (edge partitioning) and Lemma 2.2 (vertex partitioning).

Both lemmas reduce the effective arboricity: partitioning the edges (resp.
vertices) of a graph with arboricity λ uniformly at random into
``L = ⌈k / log n⌉`` parts yields parts whose arboricity is ``O(log n)`` with
high probability.  Theorem 1.1 uses the edge version (orient each part
separately and merge); Theorem 1.2 uses the vertex version (color each induced
part with its own palette).

**RNG contract.**  Both partitions draw one part per item (edge in canonical
order, resp. vertex in id order) and consume the caller's ``random.Random``
exactly as ``[rng.randrange(L) for _ in items]`` does: the same parts and the
same final ``rng.getstate()``.  :func:`draw_parts` gets there in bulk.
CPython's ``randrange(L)`` takes 32-bit Mersenne-Twister words, shifts each
right by ``32 − L.bit_length()`` and rejects values ``≥ L``; and
``getrandbits(32·w)`` returns the next ``w`` of those words, little-endian.
So the helper pulls words in bulk, shifts and rejects them as a column
(``kernels.draws_below``), and pulls again for exactly the shortfall, which
never takes a word the per-item loop would not.  One word per candidate caps
``L`` at ``2³² − 1``; a larger part count is refused.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from dataclasses import dataclass

from repro import kernels
from repro.core.parameters import log_n, refuse_bools
from repro.errors import ParameterError
from repro.graph.graph import Graph, InducedSubgraph


def number_of_parts(arboricity_bound: int, num_vertices: int) -> int:
    """The paper's part count ``L = ⌈k / log n⌉`` (at least 1)."""
    if arboricity_bound < 0:
        raise ParameterError("arboricity_bound must be non-negative")
    return max(1, int(math.ceil(arboricity_bound / log_n(num_vertices))))


#: Largest part count one 32-bit draw word can serve (``L.bit_length() ≤ 32``).
MAX_PARTS = 2**32 - 1


def _parts_count(num_parts, arboricity_bound: int, num_vertices: int) -> int:
    """The requested or the paper's part count, checked to be in ``1..MAX_PARTS``."""
    if num_parts is None:
        count = number_of_parts(arboricity_bound, num_vertices)
    else:
        refuse_bools(num_parts=num_parts)
        try:
            count = operator.index(num_parts)
        except TypeError:
            raise ParameterError(
                f"num_parts must be an integer, not {num_parts!r}"
            ) from None
    if count < 1:
        raise ParameterError("num_parts must be at least 1")
    if count > MAX_PARTS:
        raise ParameterError(
            f"num_parts must be at most {MAX_PARTS} (one 32-bit draw per item), "
            f"got {count}"
        )
    return count


def draw_parts(rng: random.Random, num_parts: int, count: int) -> array:
    """``count`` uniform parts in ``0..num_parts-1``, as ``randrange`` would draw them.

    Returns an ``array('l')`` equal to ``[rng.randrange(num_parts) for _ in
    range(count)]`` and leaves ``rng`` in the same state (see the module's
    RNG contract).  ``num_parts`` must be in ``1..MAX_PARTS``.
    """
    if not 1 <= num_parts <= MAX_PARTS:
        raise ParameterError(f"num_parts must be in 1..{MAX_PARTS}, got {num_parts}")
    shift = 32 - num_parts.bit_length()
    draws = array("l")
    while len(draws) < count:
        need = count - len(draws)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        draws.extend(kernels.draws_below(words, shift, num_parts))
    return draws


@dataclass
class EdgePartition:
    """Result of Lemma 2.1: edge-disjoint subgraphs covering all edges."""

    parts: list[Graph]

    @property
    def num_parts(self) -> int:
        """Number of parts ``L``."""
        return len(self.parts)

    def covers(self, graph: Graph) -> bool:
        """Whether the parts partition the original edge set exactly."""
        seen: set = set()
        for part in self.parts:
            for edge in part.edges:
                if edge in seen:
                    return False
                seen.add(edge)
        return seen == set(graph.edges)


def random_edge_partition(
    graph: Graph,
    arboricity_bound: int,
    rng: random.Random | None = None,
    seed: int | None = None,
    num_parts: int | None = None,
) -> EdgePartition:
    """Lemma 2.1: partition the edges into ``⌈k / log n⌉`` parts uniformly at random.

    Every part keeps the full vertex set; with high probability each part has
    arboricity ``O(log n)`` (checked empirically by experiment E4).  One part
    is drawn per edge in canonical order (the module's RNG contract), and
    each part is a stable slice of the parent's edge columns, so it is
    canonical sorted and goes straight to ``Graph._from_columns``.
    """
    rng = rng if rng is not None else random.Random(seed)
    parts_count = _parts_count(num_parts, arboricity_bound, graph.num_vertices)
    edge_u, edge_v = graph.edge_endpoints
    labels = draw_parts(rng, parts_count, len(edge_u))
    parts = [
        Graph._from_columns(graph.num_vertices, part_u, part_v)
        for part_u, part_v in kernels.split_by_part(labels, parts_count, (edge_u, edge_v))
    ]
    return EdgePartition(parts=parts)


@dataclass
class VertexPartition:
    """Result of Lemma 2.2: vertex-disjoint induced subgraphs."""

    parts: list[InducedSubgraph]

    @property
    def num_parts(self) -> int:
        """Number of parts ``L``."""
        return len(self.parts)

    @property
    def total_edges(self) -> int:
        """Total edges across all parts (the work hint for the engine fan-out).

        Cross-part edges vanish in the induced subgraphs, so this is at most
        the original edge count.
        """
        return sum(part.num_edges for part in self.parts)

    def covers(self, graph: Graph) -> bool:
        """Whether the parts partition the original vertex set exactly."""
        seen: set[int] = set()
        for part in self.parts:
            for parent_id in part.parent_ids:
                if parent_id in seen:
                    return False
                seen.add(parent_id)
        return seen == set(graph.vertices)


def random_vertex_partition(
    graph: Graph,
    arboricity_bound: int,
    rng: random.Random | None = None,
    seed: int | None = None,
    num_parts: int | None = None,
) -> VertexPartition:
    """Lemma 2.2: partition the vertices into ``⌈k / log n⌉`` parts uniformly at random.

    Each part is the subgraph induced by its vertices; with high probability
    each part has arboricity ``O(log n)``.
    """
    rng = rng if rng is not None else random.Random(seed)
    parts_count = _parts_count(num_parts, arboricity_bound, graph.num_vertices)
    # One draw per vertex in vertex order (the module's RNG contract, which
    # the engine-backed coloring pipeline relies on for worker-count
    # determinism), then one stable group-by of the vertex ids.
    labels = draw_parts(rng, parts_count, graph.num_vertices)
    vertex_ids = array("l", graph.vertices)
    parts = [
        graph.induced_subgraph(bucket)
        for (bucket,) in kernels.split_by_part(labels, parts_count, (vertex_ids,))
    ]
    return VertexPartition(parts=parts)

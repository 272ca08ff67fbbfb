"""Edge orientations and their validation.

An :class:`Orientation` assigns a direction to every edge of a graph.  The
paper's Theorem 1.1 computes orientations with maximum outdegree
``O(λ · log log n)``; the baselines compute ``(2+ε)λ`` orientations.  Both are
represented by this class, so the validators and benchmark reporting treat
them uniformly.

Internally the chosen heads are stored as a flat ``array('l')`` indexed by the
graph's canonical edge index (see :attr:`repro.graph.graph.Graph.edge_ids`);
the public ``direction`` attribute is a read-only :class:`Mapping` view over
that array, so existing callers that treat it as a dict keep working while
``merge_with`` and the constructors avoid materialising per-edge dicts.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro import kernels
from repro.errors import InvalidOrientationError
from repro.graph.graph import Edge, Graph, normalize_edge


class _EdgeHeadView(Mapping):
    """Read-only ``canonical edge -> head vertex`` view over a heads array."""

    __slots__ = ("_graph", "_heads")

    def __init__(self, graph: Graph, heads: array) -> None:
        self._graph = graph
        self._heads = heads

    def __getitem__(self, edge: Edge) -> int:
        index = self._graph.edge_ids.get(edge)
        if index is None:
            raise KeyError(edge)
        return self._heads[index]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._graph.edges)

    def __len__(self) -> int:
        return len(self._heads)

    def __contains__(self, edge: object) -> bool:
        return edge in self._graph.edge_ids

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _EdgeHeadView):
            return (
                self._heads == other._heads
                and self._graph.edges == other._graph.edges
            )
        if isinstance(other, Mapping):
            if len(other) != len(self._heads):
                return False
            try:
                return all(
                    other[e] == h for e, h in zip(self._graph.edges, self._heads)
                )
            except KeyError:
                return False
        return NotImplemented

    __hash__ = None  # mutable-adjacent view; mirrors dict's unhashability

    def __repr__(self) -> str:
        return repr(dict(zip(self._graph.edges, self._heads)))


@dataclass(frozen=True)
class Orientation:
    """A complete orientation of the edges of ``graph``.

    ``direction`` maps each canonical edge ``(u, v)`` with ``u < v`` to the
    chosen head: the edge is oriented ``u -> head`` where ``head`` is either
    ``u`` or ``v`` — i.e. ``direction[(u, v)] == v`` means the edge points from
    ``u`` to ``v``.
    """

    graph: Graph
    direction: Mapping[Edge, int]
    _outdegree: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        graph = self.graph
        m = graph.num_edges
        edge_ids = graph.edge_ids
        heads = array("l", [0]) * m
        covered = 0
        extra = 0
        for e, head in self.direction.items():
            index = edge_ids.get(e)
            if index is None:
                extra += 1
                continue
            heads[index] = head
            covered += 1
        if extra or covered != m:
            raise InvalidOrientationError(
                f"orientation does not cover the edge set exactly "
                f"(missing {m - covered}, extra {extra})"
            )
        object.__setattr__(self, "direction", _EdgeHeadView(graph, heads))
        object.__setattr__(self, "_outdegree", _tally_outdegrees(graph, heads))

    # ------------------------------------------------------------------ #

    @property
    def _heads(self) -> array:
        return self.direction._heads

    def head(self, u: int, v: int) -> int:
        """The head (target) of the edge ``{u, v}``."""
        return self._heads[self.graph.edge_ids[normalize_edge(u, v)]]

    def tail(self, u: int, v: int) -> int:
        """The tail (source) of the edge ``{u, v}``."""
        e = normalize_edge(u, v)
        head = self._heads[self.graph.edge_ids[e]]
        return e[0] if head == e[1] else e[1]

    def is_oriented_from(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is oriented from ``u`` to ``v``."""
        return self.head(u, v) == v

    def out_neighbors(self, v: int) -> list[int]:
        """Vertices ``w`` such that the edge ``{v, w}`` is oriented ``v -> w``."""
        return [w for w in self.graph.neighbors(v) if self.is_oriented_from(v, w)]

    def in_neighbors(self, v: int) -> list[int]:
        """Vertices ``w`` such that the edge ``{w, v}`` is oriented ``w -> v``."""
        return [w for w in self.graph.neighbors(v) if self.is_oriented_from(w, v)]

    def iter_directed_edges(self) -> Iterator[tuple[int, int]]:
        """Yield every edge as an ordered ``(tail, head)`` pair.

        One linear pass over the edge columns — the efficient public way to
        consume the whole orientation (the ``direction`` mapping view costs a
        hash lookup per edge).  Order matches :attr:`Graph.edges`.
        """
        edge_u, edge_v = self.graph.edge_endpoints
        for u, v, head in zip(edge_u, edge_v, self._heads):
            yield (u, head) if head == v else (v, head)

    def outdegree(self, v: int) -> int:
        """Outdegree of vertex ``v``."""
        return self._outdegree[v]

    @property
    def outdegrees(self) -> tuple[int, ...]:
        """Outdegree of every vertex, indexed by vertex id."""
        return self._outdegree

    def max_outdegree(self) -> int:
        """Maximum outdegree over all vertices (the paper's quality measure)."""
        return max(self._outdegree, default=0)

    def is_acyclic(self) -> bool:
        """Whether the oriented graph is a DAG.

        Orientations produced from a layering (orient toward the strictly
        higher layer, ties broken by id) are always acyclic; orientations from
        arbitrary tie-breaking may contain cycles inside a layer.  The
        property is used by the scheduling example and by tests.
        """
        graph = self.graph
        n = graph.num_vertices
        heads = self._heads
        edge_u, edge_v = graph.edge_endpoints
        out_adjacency: list[list[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        for i in range(len(heads)):
            head = heads[i]
            tail = edge_u[i] if head == edge_v[i] else edge_v[i]
            out_adjacency[tail].append(head)
            indegree[head] += 1
        queue = [v for v in range(n) if indegree[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in out_adjacency[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    queue.append(w)
        return seen == n

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_heads(
        cls, graph: Graph, heads: array, outdegree: tuple[int, ...] | None = None
    ) -> "Orientation":
        """Internal fast path: ``heads[i]`` is the head of edge ``i``.

        Coverage is guaranteed by construction; endpoint validity is checked
        by the outdegree tally unless the caller supplies an already-verified
        ``outdegree`` tuple (e.g. the sum of two merged parts' tallies).
        """
        self = object.__new__(cls)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "direction", _EdgeHeadView(graph, heads))
        if outdegree is None:
            outdegree = _tally_outdegrees(graph, heads)
        object.__setattr__(self, "_outdegree", outdegree)
        return self

    @classmethod
    def from_vertex_order(cls, graph: Graph, rank: Sequence[int]) -> "Orientation":
        """Orient every edge from the lower-ranked endpoint to the higher-ranked one.

        ``rank`` is a per-vertex sequence: ``rank[v]`` is the rank of vertex
        ``v``.  Ties are broken toward the larger vertex id, matching the
        paper's "break ties by identifier" convention.  Theorem 1.1 turns an
        H-partition into an orientation this way, with the layer column as
        the rank.  The head flips run through :mod:`repro.kernels` — one
        vectorized ``np.where`` over the edge columns on the numpy backend,
        the reference loop on ``pure`` — with identical heads either way.
        """
        edge_u, edge_v = graph.edge_endpoints
        heads = kernels.orient_by_rank(edge_u, edge_v, rank)
        return cls._from_heads(graph, heads)

    def __reduce__(self):
        # Ship only the graph (itself reduced to its edge columns) and the
        # flat heads array; the outdegree tally is recomputed on unpickle —
        # one O(m) pass, far cheaper than pickling an n-tuple of ints.
        return (_rebuild_orientation, (self.graph, self._heads))

    def merge_with(self, other: "Orientation") -> "Orientation":
        """Union of two orientations of edge-disjoint graphs on the same vertex set.

        The merge is a linear pass over the union's edge index — no per-edge
        dicts are built.  (Theorem 1.1's large-λ branch does not merge pairs:
        it combines all its part columns in one L-way merge.)
        """
        if other.graph.num_vertices != self.graph.num_vertices:
            raise InvalidOrientationError("cannot merge orientations over different vertex sets")
        # Both canonical edge lists are sorted, so edges and heads merge
        # without hash lookups: a two-pointer walk on the pure backend, a
        # searchsorted permutation scatter on numpy; overlapping edges are
        # detected before any result is assembled.
        a_u, a_v = self.graph.edge_endpoints
        b_u, b_v = other.graph.edge_endpoints
        edge_u, edge_v, heads, overlap = kernels.merge_oriented_columns(
            self.graph.num_vertices, a_u, a_v, self._heads, b_u, b_v, other._heads
        )
        if overlap:
            raise InvalidOrientationError(
                f"cannot merge orientations sharing {overlap} edges"
            )
        merged_graph = Graph._from_columns(self.graph.num_vertices, edge_u, edge_v)
        # Edge-disjoint union: the merged outdegrees are the per-vertex sums
        # of the (already endpoint-checked) part tallies.
        outdegree = kernels.sum_counts(self._outdegree, other._outdegree)
        return Orientation._from_heads(merged_graph, heads, outdegree=outdegree)


def _rebuild_orientation(graph: Graph, heads: array) -> "Orientation":
    """Unpickle helper for :class:`Orientation` (module-level for pickle)."""
    return Orientation._from_heads(graph, heads)


def _tally_outdegrees(graph: Graph, heads: array) -> tuple[int, ...]:
    """Outdegree per vertex + endpoint check (kernel-dispatched, one pass)."""
    edge_u, edge_v = graph.edge_endpoints
    return kernels.tally_outdegrees(graph.num_vertices, edge_u, edge_v, heads)


def validate_outdegree_bound(orientation: Orientation, bound: int) -> None:
    """Raise :class:`InvalidOrientationError` unless every outdegree ≤ ``bound``."""
    worst = orientation.max_outdegree()
    if worst > bound:
        offenders = [
            v for v in orientation.graph.vertices if orientation.outdegree(v) > bound
        ]
        raise InvalidOrientationError(
            f"max outdegree {worst} exceeds bound {bound} "
            f"({len(offenders)} offending vertices, e.g. {offenders[:5]})"
        )

"""Immutable undirected graph stored in compressed sparse row (CSR) form.

The MPC and LOCAL simulators, the core algorithms of the paper, and the
baselines all consume the same :class:`Graph` type defined here.  Vertices are
integers ``0 .. n-1``.  Internally the graph is array-backed:

* ``_edge_u`` / ``_edge_v`` — the canonical ``(min, max)`` edge list as two
  parallel ``array('l')`` columns, sorted lexicographically.  Edge ``i`` of
  the graph is ``(_edge_u[i], _edge_v[i])``; orientations and the MPC loaders
  address edges by this index.  Built once at construction, never mutated.
* ``_indptr`` / ``_indices`` — flat ``array('l')`` CSR adjacency: the
  neighbors of ``v`` are ``_indices[_indptr[v] : _indptr[v+1]]``, sorted
  ascending.  Materialised lazily on first adjacency access and then frozen —
  derived graphs (partition parts, merged orientation graphs) often only need
  the edge columns.
* ``_edge_index`` — hash map from canonical edge to its index, giving O(1)
  edge membership (``in``) and O(1) edge-id lookup; also built lazily.

**Construction.**  ``Graph(n, edges)`` and ``Graph.from_columns(n, us, vs)``
are the public, validating constructors, and both build the columns with
one kernel, ``kernels.canonical_edge_columns``.  Vertex ids are read with
``int()`` (floats truncate toward zero, so ``(-0.5, 1)`` is ``(0, 1)``).
The first offending edge in input order raises :class:`GraphError`, and
each edge is checked for range, then self loop, then duplicate (a reversed
pair is a duplicate).  ``_from_columns`` and ``_from_canonical_sorted`` are
the trusted internal paths for columns derived from an existing graph.

All public accessors are source-compatible with the original tuple-of-tuples
representation (``edges`` and ``neighbors`` still return tuples; both are
materialised lazily and memoised).  Hot paths — induced/edge subgraphs, the
peeling kernel, connected components — walk the flat arrays directly instead
of scanning Python object structures, which is what lets the layering and
orientation pipelines scale to 10^5-vertex inputs.

**Zero-copy numpy views.**  Because every column is a flat ``array('l')``
(int64 on the supported platforms), the optional numpy kernel backend
(:mod:`repro.kernels`) wraps them with ``np.frombuffer`` without copying.
The rules: views alias the column buffer and must be treated as read-only
(the columns are frozen by the immutability contract above); a view is valid
exactly as long as the graph is alive; and any column a kernel *produces*
crosses back as a real ``array('l')`` (one ``tobytes`` memcpy), so pickling,
``__reduce__`` and byte-level identity checks never see numpy types.

The graph is immutable, which keeps the simulators honest — an algorithm
cannot "cheat" by editing the input in place; it must produce explicit outputs
(orientations, colorings, layerings).  Iteration order everywhere is
deterministic, which matters for reproducibility of the randomized algorithms
(they consume randomness only through explicitly passed generators).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter
from typing import Optional

from repro import kernels
from repro.errors import GraphError

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (smaller, larger) representation of an edge.

    Raises :class:`GraphError` for self loops, which none of the algorithms in
    the paper support (a self loop has no meaningful orientation).
    """
    if u == v:
        raise GraphError(f"self loop ({u}, {v}) is not allowed")
    if u < v:
        return (u, v)
    return (v, u)


class Graph:
    """A finite, simple, undirected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices.  Vertices are identified with ``range(num_vertices)``.
    edges:
        Iterable of ``(u, v)`` pairs.  Each pair is normalised; duplicates and
        reversed duplicates are rejected so the edge multiset is simple.
        Vertex ids are read with ``int()``, so numpy integers, numeric strings
        and floats are accepted, and floats truncate toward zero:
        ``(-0.5, 1)`` is read as ``(0, 1)``.

    Notes
    -----
    The graph is immutable.  Algorithms that need to "remove" vertices or
    edges (e.g. the peeling procedures of the paper) either track removed sets
    externally or call :meth:`induced_subgraph` / :meth:`subgraph_without_vertices`
    to obtain fresh graphs.
    """

    __slots__ = (
        "_n",
        "_indptr",
        "_indices",
        "_edge_u",
        "_edge_v",
        "_edge_index",
        "_edges_cache",
        "_neighbor_cache",
        "_degrees_cache",
    )

    def __init__(self, num_vertices: int, edges: Iterable[Edge] = ()) -> None:
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._n = int(num_vertices)
        self._init_columns(*kernels.canonical_edge_columns(self._n, edges))

    @classmethod
    def from_columns(cls, num_vertices: int, us: Sequence[int], vs: Sequence[int]) -> "Graph":
        """Build a graph from two endpoint columns: edge ``i`` is ``(us[i], vs[i])``.

        Validates exactly like the constructor (same accepted ids, same
        errors on the same first offender); the columns need not be
        canonical or sorted.  Columns of different lengths are rejected.
        """
        if len(us) != len(vs):
            raise GraphError(
                f"edge columns differ in length ({len(us)} endpoints vs {len(vs)})"
            )
        return cls(num_vertices, zip(us, vs))

    @classmethod
    def _from_canonical_sorted(cls, num_vertices: int, canonical: Iterable[Edge]) -> "Graph":
        """Internal fast path for trusted input.

        ``canonical`` must already be canonical ``(min, max)`` edges, sorted
        lexicographically, without duplicates, and within ``0..n-1``.  Used by
        subgraph extraction and edge unions, which derive their edges from an
        existing graph's canonical edge list.
        """
        self = object.__new__(cls)
        self._n = int(num_vertices)
        self._assemble(canonical if isinstance(canonical, list) else list(canonical))
        return self

    @classmethod
    def _from_columns(cls, num_vertices: int, edge_u: array, edge_v: array) -> "Graph":
        """Internal fast path from already-built canonical sorted edge columns."""
        self = object.__new__(cls)
        self._n = int(num_vertices)
        self._init_columns(edge_u, edge_v)
        return self

    def _assemble(self, canonical: list[Edge]) -> None:
        """Store the canonical edge columns; the CSR arrays build lazily."""
        self._init_columns(
            array("l", map(itemgetter(0), canonical)),
            array("l", map(itemgetter(1), canonical)),
        )

    def _init_columns(self, edge_u: array, edge_v: array) -> None:
        self._edge_u = edge_u
        self._edge_v = edge_v
        # The adjacency arrays and the edge hash index are built on first use
        # and memoised — derived graphs (subgraphs, partition parts, merged
        # orientation graphs) frequently only need the edge columns.
        self._edge_index = None
        self._indptr = None
        self._indices = None
        self._edges_cache: Optional[tuple[Edge, ...]] = None
        self._neighbor_cache: Optional[list[Optional[tuple[int, ...]]]] = None
        self._degrees_cache: Optional[tuple[int, ...]] = None

    def _build_csr(self) -> None:
        """Materialise the CSR adjacency from the edge columns (once).

        Each vertex's slice is [smaller neighbors asc | larger neighbors asc],
        which is fully ascending because edges are stored sorted.  The
        assembly itself is a kernel (``kernels.build_csr``) so the streaming
        data plane — which re-materialises adjacency after every journal
        compaction — gets the vectorized path when numpy is active.
        """
        self._indptr, self._indices = kernels.build_csr(
            self._n, self._edge_u, self._edge_v
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return len(self._edge_u)

    @property
    def vertices(self) -> range:
        """The vertex set, as a ``range`` object."""
        return range(self._n)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges in canonical ``(min, max)`` form, sorted."""
        cached = self._edges_cache
        if cached is None:
            cached = self._edges_cache = tuple(zip(self._edge_u, self._edge_v))
        return cached

    @property
    def edge_endpoints(self) -> tuple[array, array]:
        """The edge list as two parallel ``array('l')`` columns ``(u[], v[])``.

        Edge ``i`` is ``(u[i], v[i])`` with ``u[i] < v[i]``; the order matches
        :attr:`edges`.  Callers must not mutate the arrays.
        """
        return self._edge_u, self._edge_v

    @property
    def edge_ids(self) -> dict[Edge, int]:
        """Hash map from canonical edge to its index in :attr:`edges`.

        Gives O(1) edge membership and edge-id lookup; built lazily and
        memoised.  Callers must not mutate the mapping.
        """
        cached = self._edge_index
        if cached is None:
            cached = self._edge_index = {e: i for i, e in enumerate(self.edges)}
        return cached

    @property
    def csr_indptr(self) -> array:
        """CSR offsets: neighbors of ``v`` live at ``csr_indices[csr_indptr[v]:csr_indptr[v+1]]``."""
        if self._indptr is None:
            self._build_csr()
        return self._indptr

    @property
    def csr_indices(self) -> array:
        """Flat CSR neighbor array (sorted within each vertex's slice)."""
        if self._indices is None:
            self._build_csr()
        return self._indices

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted tuple of neighbors of ``v`` (materialised lazily from the CSR slice)."""
        cache = self._neighbor_cache
        if cache is None:
            cache = self._neighbor_cache = [None] * self._n
        result = cache[v]
        if result is None:
            indptr = self.csr_indptr
            result = cache[v] = tuple(self.csr_indices[indptr[v] : indptr[v + 1]])
        return result

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        indptr = self.csr_indptr
        return indptr[v + 1] - indptr[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        """Tuple of all vertex degrees, indexed by vertex id."""
        cached = self._degrees_cache
        if cached is None:
            indptr = self.csr_indptr
            cached = self._degrees_cache = tuple(
                indptr[i + 1] - indptr[i] for i in range(self._n)
            )
        return cached

    def max_degree(self) -> int:
        """Maximum degree Δ of the graph (0 for the empty graph)."""
        return max(self.degrees, default=0)

    def average_degree(self) -> float:
        """Average degree ``2m / n`` (0.0 for the empty graph)."""
        if self._n == 0:
            return 0.0
        return 2.0 * self.num_edges / self._n

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is present (O(1) hash lookup)."""
        return (u, v) in self

    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        if u > v:
            u, v = v, u
        return (u, v) in self.edge_ids

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._edge_u == other._edge_u
            and self._edge_v == other._edge_v
        )

    def __hash__(self) -> int:
        return hash((self._n, self.edges))

    def __reduce__(self):
        """Pickle only the canonical edge columns.

        The CSR arrays, the edge hash index, and the memoised tuple caches
        are all derivable (and lazily rebuilt on first use), but pickling
        them costs far more than rebuilding — they dominate the IPC payload
        when the engine ships partition parts to worker processes.  Shipping
        the two flat ``array('l')`` columns keeps a 10^5-edge part at a few
        hundred KB of raw bytes.
        """
        return (Graph._from_columns, (self._n, self._edge_u, self._edge_v))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def induced_subgraph(self, vertex_subset: Iterable[int]) -> "InducedSubgraph":
        """Return the subgraph induced by ``vertex_subset``.

        The returned :class:`InducedSubgraph` relabels the kept vertices to
        ``0 .. len(subset)-1`` but remembers the mapping back to the original
        ids, which the partitioning lemmas (Lemma 2.2) and the iterative layer
        assignment (Lemma 3.14) need.  Extraction walks only the kept
        vertices' adjacency slices — O(Σ_{v kept} deg(v)) instead of O(m).
        """
        return InducedSubgraph.from_parent(self, vertex_subset)

    def subgraph_without_vertices(self, removed: Iterable[int]) -> "InducedSubgraph":
        """Induced subgraph on the complement of ``removed``."""
        removed_set = set(removed)
        kept = [v for v in range(self._n) if v not in removed_set]
        return self.induced_subgraph(kept)

    def edge_subgraph(self, edge_subset: Iterable[Edge]) -> "Graph":
        """Return a graph on the same vertex set containing only ``edge_subset``.

        Used by the random edge partitioning of Lemma 2.1: each part keeps all
        vertices but only its share of the edges.  Membership is validated
        through the O(1) edge hash set, so the extraction is linear in the
        subset size rather than O(|subset|·Δ).
        """
        edge_index = self.edge_ids
        normalized: list[Edge] = []
        chosen: set[Edge] = set()
        missing: list[Edge] = []
        for u, v in edge_subset:
            e = normalize_edge(u, v)
            if e not in edge_index:
                missing.append(e)
                continue
            if e in chosen:
                raise GraphError(f"duplicate edge {e}")
            chosen.add(e)
            normalized.append(e)
        if missing:
            raise GraphError(f"edges {missing[:3]}... are not present in the graph")
        normalized.sort()
        return Graph._from_canonical_sorted(self._n, normalized)

    def connected_components(self) -> list[list[int]]:
        """Connected components as lists of vertex ids (BFS over the CSR arrays)."""
        indptr = self.csr_indptr
        indices = self.csr_indices
        seen = bytearray(self._n)
        components: list[list[int]] = []
        for start in range(self._n):
            if seen[start]:
                continue
            seen[start] = 1
            component = [start]
            frontier = [start]
            while frontier:
                next_frontier: list[int] = []
                for u in frontier:
                    for j in range(indptr[u], indptr[u + 1]):
                        w = indices[j]
                        if not seen[w]:
                            seen[w] = 1
                            component.append(w)
                            next_frontier.append(w)
                frontier = next_frontier
            components.append(sorted(component))
        return components

    def is_forest(self) -> bool:
        """Whether the graph is acyclic (a forest)."""
        # A graph is a forest iff m = n - (#components).
        return self.num_edges == self._n - len(self.connected_components())

    # ------------------------------------------------------------------ #
    # Peeling kernel
    # ------------------------------------------------------------------ #

    def peel_layers(self, threshold: int, max_rounds: int | None = None) -> tuple[array, int]:
        """Round-synchronous peeling kernel shared by the layering pipelines.

        In every round, all vertices whose *remaining* degree is at most
        ``threshold`` are removed simultaneously; the round index (1-based) is
        the vertex's layer.  This is the Barenboim–Elkin process underlying
        Lemma 3.13's auxiliary assignment ``ℓ_G``, the coreness guesses, and
        the Lemma 3.15 low-degree peel.

        Returns ``(layers, rounds_used)`` where ``layers`` is a flat
        ``array('l')`` with ``layers[v] == 0`` for vertices never peeled
        (possible only when the threshold is below ``2λ - 1`` or
        ``max_rounds`` cut the process short).

        The implementation is frontier-based (a bucket queue keyed by round):
        a vertex enters the next round's frontier the moment its remaining
        degree first drops to the threshold, so the total work is O(n + m)
        regardless of the number of rounds — the O(rounds · n) rescan of the
        naive formulation is gone.  The loop itself lives in
        :mod:`repro.kernels` and dispatches to the active backend: the
        ``numpy`` backend wraps the CSR columns in zero-copy
        ``np.frombuffer`` views and runs each round as one bincount-style
        frontier decrement plus a boolean-mask bucket extraction, with
        byte-identical ``(layers, rounds_used)`` output.
        """
        if threshold < 0:
            raise GraphError("threshold must be non-negative")
        return kernels.peel_layers(
            self._n,
            self.csr_indptr,
            self.csr_indices,
            threshold,
            max_rounds,
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, edges: Sequence[Edge], num_vertices: Optional[int] = None) -> "Graph":
        """Build a graph from an edge list, inferring ``n`` if not given."""
        edges = list(edges)
        if num_vertices is None:
            num_vertices = 1 + max((max(u, v) for u, v in edges), default=-1)
        return cls(num_vertices, edges)

    @classmethod
    def empty(cls, num_vertices: int) -> "Graph":
        """Graph with ``num_vertices`` vertices and no edges."""
        return cls(num_vertices, ())

    def union_edges(self, other: "Graph") -> "Graph":
        """Union of the edge sets of two graphs on the same vertex set.

        Both canonical edge lists are sorted, so the union is a linear merge.
        """
        if other.num_vertices != self._n:
            raise GraphError("union_edges requires graphs on the same vertex set")
        a = self.edges
        b = other.edges
        merged: list[Edge] = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            ea, eb = a[i], b[j]
            if ea < eb:
                merged.append(ea)
                i += 1
            elif eb < ea:
                merged.append(eb)
                j += 1
            else:
                merged.append(ea)
                i += 1
                j += 1
        if i < la:
            merged.extend(a[i:])
        if j < lb:
            merged.extend(b[j:])
        return Graph._from_canonical_sorted(self._n, merged)


class InducedSubgraph(Graph):
    """An induced subgraph that remembers the mapping back to its parent.

    ``local`` ids are ``0 .. k-1``; :meth:`to_parent` and :meth:`to_local`
    translate between local and parent vertex ids.  Without ``to_parent``
    the mapping is the identity, so the inherited constructors
    (:meth:`~Graph.empty`, :meth:`~Graph.from_edges`,
    :meth:`~Graph.from_columns`) build a subgraph of itself.
    """

    __slots__ = ("_to_parent", "_to_local")

    def __init__(
        self, num_vertices: int, edges: Iterable[Edge] = (), to_parent: Sequence[int] | None = None
    ) -> None:
        super().__init__(num_vertices, edges)
        if to_parent is None:
            to_parent = range(self._n)
        if len(to_parent) != num_vertices:
            raise GraphError("to_parent must list exactly one parent id per local vertex")
        self._to_parent: tuple[int, ...] = tuple(int(p) for p in to_parent)
        self._to_local: dict[int, int] = {p: i for i, p in enumerate(self._to_parent)}
        if len(self._to_local) != num_vertices:
            raise GraphError("to_parent contains duplicate parent ids")

    @classmethod
    def from_parent(cls, parent: Graph, vertex_subset: Iterable[int]) -> "InducedSubgraph":
        kept = sorted(set(int(v) for v in vertex_subset))
        if kept and (kept[0] < 0 or kept[-1] >= parent.num_vertices):
            offender = kept[0] if kept[0] < 0 else kept[-1]
            raise GraphError(f"vertex {offender} is not a vertex of the parent graph")
        sub = cls._from_columns(
            len(kept),
            *kernels.induced_edge_columns(
                parent.num_vertices, parent.csr_indptr, parent.csr_indices, kept
            ),
        )
        sub._to_parent = tuple(kept)
        sub._to_local = {p: i for i, p in enumerate(kept)}
        return sub

    def to_parent(self, local_vertex: int) -> int:
        """Parent id of a local vertex."""
        return self._to_parent[local_vertex]

    def to_local(self, parent_vertex: int) -> int:
        """Local id of a parent vertex (KeyError if not in the subgraph)."""
        return self._to_local[parent_vertex]

    @property
    def parent_ids(self) -> tuple[int, ...]:
        """Tuple mapping local id -> parent id."""
        return self._to_parent

    def __reduce__(self):
        # Override Graph's columns-only reduction: the parent mapping is not
        # derivable from the edge columns and must travel along.
        return (
            _rebuild_induced_subgraph,
            (self._n, self._edge_u, self._edge_v, self._to_parent),
        )

    def __repr__(self) -> str:
        return f"InducedSubgraph(n={self.num_vertices}, m={self.num_edges})"


def _rebuild_induced_subgraph(
    num_vertices: int, edge_u: array, edge_v: array, to_parent: tuple[int, ...]
) -> InducedSubgraph:
    """Unpickle helper for :class:`InducedSubgraph` (module-level for pickle)."""
    sub = InducedSubgraph.__new__(InducedSubgraph)
    sub._n = int(num_vertices)
    sub._init_columns(edge_u, edge_v)
    sub._to_parent = tuple(to_parent)
    sub._to_local = {p: i for i, p in enumerate(sub._to_parent)}
    return sub

"""Rooted tree views with valid mappings (Definitions 2.3–2.7).

During the graph-exponentiation procedure of Algorithm 2, every vertex ``v``
maintains a *rooted tree* ``T_v`` together with a mapping
``map : V(T_v) -> V(G)``.  The same graph vertex may appear many times in the
tree (once per distinct path reaching it), but the mapping must be *valid*
(Definition 2.3):

1. every tree edge maps to a graph edge, and
2. the children of any tree node map to pairwise distinct graph vertices.

The tree operations the paper needs are:

* **pruning** (Definition 2.4) — removing nodes, keeping the root;
* **attachment** (Definition 2.5) — replacing selected leaves with fresh
  copies of other trees whose roots map to the same graph vertex;
* **missing neighbors** (Definition 2.6) — graph neighbors of ``map(x)`` not
  covered by the children of ``x``;
* **strictly monotonic reachability** (Definition 2.7) — whether the layers
  along the path from a node up to the root strictly decrease toward the node
  (equivalently, strictly increase toward the root).

:class:`TreeView` stores the tree in flat arrays (parent pointers and child
lists indexed by node id) so copying, pruning and attaching are simple,
allocation-light operations; all algorithms on it are iterative so deep trees
cannot exhaust Python's recursion limit.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping, Sequence

from repro.errors import ReproError
from repro.graph.graph import Graph


class TreeViewError(ReproError):
    """Raised when a tree view is built or manipulated inconsistently."""


class TreeView:
    """A rooted tree whose nodes map to vertices of a graph.

    Node ``0`` is always the root.  ``parent[x]`` is the parent node id
    (``-1`` for the root), ``children[x]`` the list of child ids and
    ``vertex_of[x]`` the graph vertex the node maps to.
    """

    __slots__ = ("parent", "children", "vertex_of")

    def __init__(self, vertex_of: Sequence[int], parent: Sequence[int]) -> None:
        if len(vertex_of) != len(parent):
            raise TreeViewError("vertex_of and parent must have the same length")
        if not vertex_of:
            raise TreeViewError("a tree view has at least its root node")
        if parent[0] != -1:
            raise TreeViewError("node 0 must be the root (parent -1)")
        self.vertex_of: list[int] = [int(v) for v in vertex_of]
        self.parent: list[int] = [int(p) for p in parent]
        self.children: list[list[int]] = [[] for _ in range(len(parent))]
        for node, par in enumerate(self.parent):
            if node == 0:
                continue
            if not 0 <= par < len(self.parent):
                raise TreeViewError(f"node {node} has invalid parent {par}")
            self.children[par].append(node)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def single_node(cls, vertex: int) -> "TreeView":
        """The one-node tree rooted at (and mapping to) ``vertex``."""
        return cls([vertex], [-1])

    @classmethod
    def star_of_neighbors(cls, graph: Graph, vertex: int) -> "TreeView":
        """Root mapping to ``vertex`` with one child per graph neighbor.

        This is the initial tree ``T_v^{(0)}`` of Algorithm 2 for active
        vertices.
        """
        neighbors = graph.neighbors(vertex)
        vertex_of = [vertex] + list(neighbors)
        parent = [-1] + [0] * len(neighbors)
        return cls(vertex_of, parent)

    def copy(self) -> "TreeView":
        """A deep copy (fresh node ids are not needed; structure is copied)."""
        return TreeView(list(self.vertex_of), list(self.parent))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> int:
        """The root node id (always 0)."""
        return 0

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the tree."""
        return len(self.vertex_of)

    def nodes(self) -> range:
        """All node ids."""
        return range(self.num_nodes)

    def map(self, node: int) -> int:
        """Graph vertex the node maps to."""
        return self.vertex_of[node]

    def child_vertices(self, node: int) -> list[int]:
        """Graph vertices of the node's children."""
        return [self.vertex_of[c] for c in self.children[node]]

    def is_leaf(self, node: int) -> bool:
        """Whether the node has no children."""
        return not self.children[node]

    def depth(self, node: int) -> int:
        """Distance from the root to ``node``."""
        d = 0
        while node != 0:
            node = self.parent[node]
            d += 1
        return d

    def depths(self) -> list[int]:
        """Depths of all nodes (BFS order computation, O(n))."""
        depth = [0] * self.num_nodes
        order = self.bfs_order()
        for node in order:
            if node != 0:
                depth[node] = depth[self.parent[node]] + 1
        return depth

    def bfs_order(self) -> list[int]:
        """Node ids in BFS order from the root."""
        order: list[int] = []
        queue: deque[int] = deque([0])
        while queue:
            node = queue.popleft()
            order.append(node)
            queue.extend(self.children[node])
        return order

    def subtree_sizes(self) -> list[int]:
        """Size of the subtree rooted at each node (iterative, reverse BFS)."""
        sizes = [1] * self.num_nodes
        for node in reversed(self.bfs_order()):
            for child in self.children[node]:
                sizes[node] += sizes[child]
        return sizes

    def path_to_root(self, node: int) -> list[int]:
        """The node ids on the path ``node -> ... -> root`` (inclusive)."""
        path = [node]
        while node != 0:
            node = self.parent[node]
            path.append(node)
        return path

    def leaves_at_depth(self, target_depth: int) -> list[int]:
        """Leaf nodes whose distance from the root is exactly ``target_depth``."""
        depth = self.depths()
        return [
            node
            for node in self.nodes()
            if depth[node] == target_depth and self.is_leaf(node)
        ]

    # ------------------------------------------------------------------ #
    # Definition 2.3: validity of the mapping
    # ------------------------------------------------------------------ #

    def mapping_violations(self, graph: Graph) -> list[str]:
        """Human-readable list of validity violations (empty iff valid)."""
        problems: list[str] = []
        for node in self.nodes():
            if node != 0:
                u = self.vertex_of[self.parent[node]]
                v = self.vertex_of[node]
                if not graph.has_edge(u, v):
                    problems.append(
                        f"tree edge ({self.parent[node]}, {node}) maps to non-edge ({u}, {v})"
                    )
            child_vertices = self.child_vertices(node)
            if len(child_vertices) != len(set(child_vertices)):
                problems.append(f"node {node} has two children mapping to the same vertex")
        return problems

    def is_valid_mapping(self, graph: Graph) -> bool:
        """Definition 2.3: tree edges map to graph edges; sibling images are distinct."""
        return not self.mapping_violations(graph)

    # ------------------------------------------------------------------ #
    # Definition 2.6: missing neighbors
    # ------------------------------------------------------------------ #

    def missing_neighbors(self, graph: Graph, node: int) -> set[int]:
        """``Missing(x) = N_G(map(x)) \\ {map(c) : c child of x}``."""
        covered = set(self.child_vertices(node))
        return {u for u in graph.neighbors(self.vertex_of[node]) if u not in covered}

    def missing_count(self, graph: Graph, node: int) -> int:
        """``|Missing(x)|`` without materialising the set twice."""
        return len(self.missing_neighbors(graph, node))

    # ------------------------------------------------------------------ #
    # Definition 2.7: strictly monotonic reachability
    # ------------------------------------------------------------------ #

    def is_strictly_monotonically_reachable(
        self, node: int, layer_of: Sequence[float]
    ) -> bool:
        """Whether layers strictly increase along the path from ``node`` to the root.

        ``layer_of`` is the per-vertex layer column (``math.inf`` for ``∞``).
        Following Definition 2.7, we require
        ``ℓ(map(x_1)) < ℓ(map(x_2)) < ... < ℓ(map(x_k))`` where ``x_1 = node``
        and ``x_k`` is the root.  Note that an ``∞`` layer anywhere except
        possibly nowhere (since a strict ``< ∞`` chain cannot pass ∞ twice)
        makes the check fail except when only the root carries it; we follow
        the definition literally: all comparisons must be strict and finite
        values compare normally with ``∞``.
        """
        path = self.path_to_root(node)
        layers = [layer_of[self.vertex_of[x]] for x in path]
        for lower, higher in zip(layers, layers[1:]):
            if not lower < higher:
                return False
        return True

    def strictly_monotonically_reachable_nodes(
        self, layer_of: Sequence[float]
    ) -> list[int]:
        """All nodes satisfying Definition 2.7 (computed top-down in O(n))."""
        reachable: list[bool] = [True] * self.num_nodes
        result: list[int] = []
        for node in self.bfs_order():
            if node != 0:
                par = self.parent[node]
                ok = (
                    reachable[par]
                    and layer_of[self.vertex_of[node]] < layer_of[self.vertex_of[par]]
                )
                reachable[node] = ok
            if reachable[node]:
                result.append(node)
        return result

    # ------------------------------------------------------------------ #
    # Definition 2.4: pruning (subset restriction)
    # ------------------------------------------------------------------ #

    def restricted_to(self, kept_nodes: Iterable[int]) -> "TreeView":
        """The tree induced by ``kept_nodes`` (must be closed under parents, contain the root).

        Implements Definition 2.4: node ids are re-packed but the mapping is
        simply restricted.
        """
        kept = set(kept_nodes)
        if 0 not in kept:
            raise TreeViewError("the root must be kept when pruning")
        for node in kept:
            if node != 0 and self.parent[node] not in kept:
                raise TreeViewError(
                    f"kept node {node} has a removed parent; pruning must remove whole subtrees"
                )
        old_order = [node for node in self.bfs_order() if node in kept]
        new_id = {old: new for new, old in enumerate(old_order)}
        vertex_of = [self.vertex_of[old] for old in old_order]
        parent = [
            -1 if old == 0 else new_id[self.parent[old]] for old in old_order
        ]
        return TreeView(vertex_of, parent)

    # ------------------------------------------------------------------ #
    # Definition 2.5: attachment
    # ------------------------------------------------------------------ #

    def attach(self, replacements: Mapping[int, "TreeView"]) -> "TreeView":
        """Replace each leaf in ``replacements`` by a fresh copy of the given tree.

        Implements Definition 2.5: for each (leaf ``x``, tree ``T_x``) pair the
        root of ``T_x`` must map to the same graph vertex as ``x``; the leaf is
        replaced by the whole tree.  Leaves must be distinct leaves of this
        tree.
        """
        for leaf, subtree in replacements.items():
            if not self.is_leaf(leaf):
                raise TreeViewError(f"node {leaf} is not a leaf; cannot attach there")
            if subtree.vertex_of[0] != self.vertex_of[leaf]:
                raise TreeViewError(
                    f"attachment root maps to {subtree.vertex_of[0]} but leaf {leaf} maps "
                    f"to {self.vertex_of[leaf]}"
                )

        vertex_of: list[int] = []
        parent: list[int] = []

        def append_node(vertex: int, parent_id: int) -> int:
            vertex_of.append(vertex)
            parent.append(parent_id)
            return len(vertex_of) - 1

        # Copy this tree in BFS order, substituting subtrees at the chosen leaves.
        new_id_of: dict[int, int] = {}
        for node in self.bfs_order():
            parent_new = -1 if node == 0 else new_id_of[self.parent[node]]
            new_id_of[node] = append_node(self.vertex_of[node], parent_new)

        for leaf, subtree in replacements.items():
            # The leaf's new node becomes the root of the attached copy: its
            # mapping is identical, so we only need to hang the subtree's
            # descendants below it.
            sub_new_id: dict[int, int] = {0: new_id_of[leaf]}
            for sub_node in subtree.bfs_order():
                if sub_node == 0:
                    continue
                parent_new = sub_new_id[subtree.parent[sub_node]]
                sub_new_id[sub_node] = append_node(subtree.vertex_of[sub_node], parent_new)

        return TreeView(vertex_of, parent)

    # ------------------------------------------------------------------ #

    def word_size(self) -> int:
        """Number of machine words needed to describe the tree (for MPC accounting).

        Each node contributes its mapped vertex id and its parent pointer —
        two words — matching the convention that a word describes a vertex or
        an edge.
        """
        return 2 * self.num_nodes

    def __repr__(self) -> str:
        return f"TreeView(nodes={self.num_nodes}, root_vertex={self.vertex_of[0]})"

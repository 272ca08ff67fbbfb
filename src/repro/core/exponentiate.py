"""Algorithm 2 — ``ExponentiateAndLocalPrune``.

Every vertex ``v`` maintains a rooted tree view ``T_v`` with a valid mapping
whose root maps to ``v``.  The algorithm runs ``s`` steps; in each step every
vertex first prunes its tree with :func:`~repro.core.prune.local_prune`
(parameter ``k``) and is deactivated if the pruned tree exceeds ``√B`` nodes;
then every *active* vertex performs a graph-exponentiation step: the leaves at
distance exactly ``2^{i-1}`` from the root that map to active vertices are
replaced by (fresh copies of) the pruned trees of the vertices they map to.

Invariants (checked by the tests):

* **Claim 3.3** — every maintained mapping stays valid.
* **Claim 3.4** — no tree ever exceeds ``B`` nodes.
* **Claim 3.5** — the procedure takes ``O(s)`` MPC rounds with ``O(n^δ + B)``
  local and ``O(nB + m)`` global memory; the MPC wrapper routes every
  attachment through the cluster so these bounds are enforced, not assumed.
* **Claim 3.6 / Lemma 3.7** — missing-neighbor bounds for nodes close to the
  root, which downstream layer assignment relies on.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.core.parameters import Parameters
from repro.core.prune import local_prune
from repro.core.tree_view import TreeView
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster


@dataclass
class ExponentiationResult:
    """Output of Algorithm 2: one tree view per vertex, plus bookkeeping."""

    trees: dict[int, TreeView]
    active: dict[int, bool]
    steps_run: int
    max_tree_nodes: int = 0
    deactivated_at_step: dict[int, int] = field(default_factory=dict)

    def tree(self, vertex: int) -> TreeView:
        """The final tree view ``T_v^{(s)}`` of ``vertex``."""
        return self.trees[vertex]

    def num_active(self) -> int:
        """How many vertices were still active after the final step."""
        return sum(1 for flag in self.active.values() if flag)


def _initial_trees(graph: Graph, budget: int) -> tuple[dict[int, TreeView], dict[int, bool]]:
    """Initialisation of Algorithm 2.

    Vertices of degree < B start with the star of their neighborhood and are
    active; higher-degree vertices start with a single node and are inactive.
    """
    trees: dict[int, TreeView] = {}
    active: dict[int, bool] = {}
    for v in graph.vertices:
        if graph.degree(v) < budget:
            trees[v] = TreeView.star_of_neighbors(graph, v)
            active[v] = True
        else:
            trees[v] = TreeView.single_node(v)
            active[v] = False
    return trees, active


def exponentiate_and_local_prune(
    graph: Graph,
    params: Parameters,
    cluster: MPCCluster | None = None,
) -> ExponentiationResult:
    """Run Algorithm 2 with parameters ``(B, k, s)`` from ``params``.

    Parameters
    ----------
    graph:
        Input graph ``G``.
    params:
        Algorithm parameters; ``params.budget`` is ``B``, ``params.k`` is the
        pruning parameter and ``params.steps`` is ``s``.
    cluster:
        Optional MPC cluster.  When provided, each exponentiation step charges
        one communication round whose messages carry the attached subtrees
        (word sizes included), and the stored tree views are accounted against
        the owning machines' memory — giving Claim 3.5's resource profile by
        construction.  When ``None`` the procedure runs centrally (used by
        unit tests focused on the combinatorial invariants).
    """
    budget = params.budget
    k = params.k
    steps = params.steps
    sqrt_budget = params.sqrt_budget

    trees, active = _initial_trees(graph, budget)
    deactivated_at: dict[int, int] = {}
    max_tree_nodes = max((t.num_nodes for t in trees.values()), default=0)

    if cluster is not None:
        # Initial storage: the collection of star views is an O(m + n)-word
        # distributed object; the standard primitives spread it evenly.
        cluster.store_spread(
            sum(t.word_size() for t in trees.values()), tag="tree-view"
        )
        cluster.charge_rounds(1, label="exponentiate:init")

    for step in range(1, steps + 1):
        # ----------------------------------------------------------------- #
        # Local prune step (no communication).
        # ----------------------------------------------------------------- #
        pruned: dict[int, TreeView] = {}
        for v in graph.vertices:
            pruned_tree = local_prune(trees[v], k)
            pruned[v] = pruned_tree
            if pruned_tree.num_nodes > sqrt_budget and active[v]:
                active[v] = False
                deactivated_at[v] = step

        # ----------------------------------------------------------------- #
        # Exponentiation / attachment step.
        # ----------------------------------------------------------------- #
        attach_distance = 2 ** (step - 1)
        # Message columns: each attached subtree travels from the vertex it
        # maps to (its owner) to the vertex whose view grows.
        owners = array("l")
        receivers = array("l")
        sizes = array("l")
        new_trees: dict[int, TreeView] = {}
        for v in graph.vertices:
            if not active[v]:
                new_trees[v] = pruned[v]
                continue
            base = pruned[v]
            replacements: dict[int, TreeView] = {}
            for leaf in base.leaves_at_depth(attach_distance):
                target = base.map(leaf)
                if not active.get(target, False):
                    continue
                replacements[leaf] = pruned[target]
                owners.append(target)
                receivers.append(v)
                sizes.append(pruned[target].word_size())
            if replacements:
                new_trees[v] = base.attach(replacements)
            else:
                new_trees[v] = base

        if cluster is not None:
            # Replace stored views: release the old ones, run the round that
            # ships the attached subtrees, store the new ones (spread as an
            # O(nB)-word distributed object, per Claim 3.5).
            cluster.release_tag_everywhere("tree-view")
            cluster.communication_round(
                owners, receivers, sizes, label=f"exponentiate:step{step}"
            )
            cluster.store_spread(
                sum(t.word_size() for t in new_trees.values()), tag="tree-view"
            )

        trees = new_trees
        max_tree_nodes = max(
            max_tree_nodes, max((t.num_nodes for t in trees.values()), default=0)
        )

    return ExponentiationResult(
        trees=trees,
        active=active,
        steps_run=steps,
        max_tree_nodes=max_tree_nodes,
        deactivated_at_step=deactivated_at,
    )

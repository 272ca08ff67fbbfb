"""Incremental maintenance of a bounded-outdegree orientation.

This is the Brodal–Fagerberg-style dynamic counterpart of Theorem 1.1: an
orientation of a :class:`~repro.stream.dynamic_graph.DynamicGraph` whose
maximum outdegree stays ``O(λ)`` per update.  Every update goes through
:meth:`IncrementalOrientation.apply_batch` (a single update is a one-update
batch):

* **Insertion** orients the new edge out of the endpoint with the smaller
  outdegree.  If that pushes the tail past the cap ``flip_slack · λ̂`` (where
  ``λ̂`` is the maintained arboricity estimate), a BFS along *out*-edges finds
  the nearest vertex with spare out-capacity and the whole path is flipped —
  the classical argument shows such flip paths are short (O(log n) for
  ``cap ≥ 2λ``) and their total length is amortised O(log n) per insertion.
* **Deletion** drops the oriented edge (deleting an edge that is not oriented
  raises :class:`~repro.errors.GraphError`); outdegrees only decrease, so
  the invariant is preserved for free.  The freed out-slot is then used
  *proactively*, once the batch's groups have run: if some in-neighbor of
  the freed tail sits exactly at the outdegree cap, one of its in-edges is
  flipped toward the slot, draining the population of at-cap vertices
  between rebuilds (so the realised maximum outdegree tracks the current
  density down, not just the cap).
* **Fallback.** When no flip path exists (the reachable region is saturated,
  which certifies that the density outgrew the estimate) the maintainer falls
  back to the full Theorem 1.1 pipeline (:func:`repro.core.orientation.orient`)
  on a compacted snapshot, refreshing ``λ̂`` from the degeneracy.  The same
  fallback runs — amortised, via :meth:`ensure_quality` — when deletions make
  ``λ̂`` stale-high, so the cap tracks the *current* graph's arboricity in
  both directions.

Invariant (checked by tests): ``max_outdegree() ≤ outdegree_cap`` at all
times, and after a quality check the cap is at most
``2 · flip_slack · degeneracy(G)`` (≤ ``4 · flip_slack · λ(G)``), i.e. O(λ)
of the current graph, up to the Theorem 1.1 ``log log n`` factor immediately
after a fallback rebuild.

**Conflict-group repair.**  :meth:`IncrementalOrientation.apply_batch`
resolves a whole :class:`~repro.stream.updates.UpdateBatch` at once by
partitioning it into *conflict groups* — connected components of updates
sharing an endpoint (:func:`plan_conflict_groups`).  Distinct groups touch
disjoint vertices.  Groups whose updates provably never overflow the cap (no
flip path can start) mutate only their own out-sets, so in the MPC model
they resolve in one superstep; groups that may need a flip path — which can
roam anywhere along out-edges — resolve after them.  On the host there is
one path: a single replay of the tail rule in batch order sorts the groups
into cap-safe and flip-prone; all cap-safe groups are applied in one pass in
batch order (each out-set sees the same operations in the same order as a
group-order run); the flip-prone groups then run in group order, and the
proactive-flip sweep runs last, in group order.  That order is part of the
determinism contract (a flip path can reach into a later group's vertices
and change its tail choices), so it is pinned by a test.

The maintainer keeps the outdegree column, its histogram and its maximum as
running state next to the heads, so :meth:`IncrementalOrientation.max_outdegree`
is O(1) and a batch costs O(batch) outside flip searches and rebuilds.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro import kernels
from repro.errors import GraphError
from repro.graph.arboricity import arboricity_upper_bound
from repro.graph.graph import Graph, normalize_edge
from repro.graph.orientation import Orientation
from repro.stream.dynamic_graph import DynamicGraph


def plan_conflict_groups(updates: Sequence) -> list[list[int]]:
    """Partition batch updates into vertex-disjoint conflict groups.

    Two updates conflict when they share an endpoint; groups are the
    connected components of the conflict relation (union–find over the
    endpoints), so distinct groups touch disjoint vertex sets and their
    pointer work commutes.  Returns lists of update *indices*, each list in
    batch order, with groups ordered by their first update's index — a
    deterministic plan for any input.
    """
    return list(_conflict_groups(updates)[0].values())


def _conflict_groups(updates: Sequence) -> tuple[dict[int, list[int]], list[int]]:
    """:func:`plan_conflict_groups` keyed by each group's union–find root,
    plus the root of every update (its group label)."""
    parent: dict[int, int] = {}  # a vertex without an entry is a root
    up = parent.get

    def find(x: int) -> int:
        root = x
        above = up(root, root)
        while above != root:
            root = above
            above = up(root, root)
        while x != root:
            parent[x], x = root, parent[x]
        return root

    for update in updates:
        ru, rv = find(update.u), find(update.v)
        if ru != rv:
            parent[rv] = ru

    # A group's list is created at its first update, so the dict's order is
    # the groups' first-index order.
    roots = [find(update.u) for update in updates]
    groups: dict[int, list[int]] = {}
    for index, root in enumerate(roots):
        groups.setdefault(root, []).append(index)
    return groups, roots


def _choose_tail(u: int, v: int, outdeg_u: int, outdeg_v: int) -> int:
    """The insertion rule: orient out of the smaller outdegree, ``u`` on ties.

    One definition shared by the batch replay and the flip-prone group
    execution: the replay proves a group cap-safe by making the exact
    decisions the execution would make, so the rule must not be duplicated.
    """
    return u if outdeg_u <= outdeg_v else v


@dataclass(frozen=True)
class GroupedApplyReport:
    """What one conflict-group repair pass did (see ``apply_batch``).

    ``parallel_groups`` counts the cap-safe groups — the ones that resolve
    in one MPC superstep; ``serial_groups`` counts the flip-prone rest.
    """

    num_updates: int
    num_groups: int
    parallel_groups: int
    serial_groups: int
    proactive_flips: int


class IncrementalOrientation:
    """Maintains ``out[v]`` — the heads of edges oriented out of ``v``.

    Parameters
    ----------
    dynamic:
        The dynamic graph being maintained.  The maintainer does **not**
        mutate it; callers apply each update to the graph first (or use
        :class:`~repro.stream.service.StreamingService`, which sequences
        both).
    lambda_bound:
        Initial arboricity estimate ``λ̂``; computed from the degeneracy of
        the initial snapshot when omitted.
    flip_slack:
        The outdegree cap is ``flip_slack · λ̂`` (Brodal–Fagerberg need
        ``> 2λ`` for short flip paths; we default to 4).
    quality_interval:
        Floor on the number of updates between degeneracy re-estimations
        (rebuild if ``λ̂`` went stale-high).  The effective interval is
        ``max(quality_interval, m/4)``, so the O(n + m) check is amortised
        O(1) per update at every scale.
    cluster:
        Optional :class:`~repro.mpc.cluster.MPCCluster`; fallback rebuilds run
        the Theorem 1.1 pipeline against it so their rounds are accounted.

    A deletion that frees an out-slot opportunistically flips one in-edge
    of an at-cap in-neighbor toward the slot, tightening the realised
    maximum outdegree between rebuilds.  Proactive flips are counted in
    :attr:`flips` and, separately, in :attr:`opportunistic_flips`.
    """

    def __init__(
        self,
        dynamic: DynamicGraph,
        lambda_bound: int | None = None,
        flip_slack: int = 4,
        quality_interval: int = 1024,
        delta: float = 0.5,
        seed: int = 0,
        cluster=None,
    ) -> None:
        if flip_slack < 2:
            raise GraphError("flip_slack must be at least 2 for flip paths to exist")
        self._dynamic = dynamic
        self.flip_slack = flip_slack
        self.quality_interval = max(int(quality_interval), 1)
        self._delta = delta
        self._seed = seed
        self._cluster = cluster
        self._set_heads([set() for _ in range(dynamic.num_vertices)])
        self.flips = 0
        self.opportunistic_flips = 0
        self.rebuilds = 0
        # Per-reason rebuild tally ("saturated", "stale-bound").
        self.rebuild_reasons: dict[str, int] = {}
        self._updates_since_check = 0
        snapshot = dynamic.snapshot()
        if lambda_bound is None:
            lambda_bound = max(1, arboricity_upper_bound(snapshot))
        self.lambda_bound = max(1, int(lambda_bound))
        self.outdegree_cap = max(self.flip_slack * self.lambda_bound, 1)
        if snapshot.num_edges:
            self._install_full_orientation(snapshot)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def outdegree(self, v: int) -> int:
        """Current outdegree of vertex ``v``."""
        return len(self._out[v])

    def max_outdegree(self) -> int:
        """Maximum outdegree over all vertices (running state, O(1))."""
        return self._max_outdeg

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted heads of the edges oriented out of ``v``."""
        return tuple(sorted(self._out[v]))

    def head(self, u: int, v: int) -> int:
        """The head of the (live) edge ``{u, v}`` under the maintained orientation."""
        if v in self._out[u]:
            return v
        if u in self._out[v]:
            return u
        raise GraphError(f"edge {normalize_edge(u, v)} is not oriented")

    def to_orientation(self, graph: Graph | None = None) -> Orientation:
        """Freeze the maintained directions into an :class:`Orientation`.

        ``graph`` defaults to a fresh snapshot of the dynamic graph; it must
        have exactly the currently live edge set.
        """
        if graph is None:
            graph = self._dynamic.snapshot()
        return Orientation(
            graph, {(u, v): self.head(u, v) for u, v in zip(*graph.edge_endpoints)}
        )

    def oriented_edge_count(self) -> int:
        """Number of oriented edges (equals the live edge count, invariantly)."""
        return kernels.sum_sizes(self._out)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    # The shared tail-selection rule (see the module-level function for why
    # there is exactly one definition).
    _choose_tail = staticmethod(_choose_tail)

    # ------------------------------------------------------------------ #
    # Running outdegree state
    # ------------------------------------------------------------------ #

    def _set_heads(self, out: list[set[int]]) -> None:
        """Install a heads table and derive the running state from it.

        Beside ``out`` the maintainer keeps three running values, updated at
        every mutation site through :meth:`_grow`/:meth:`_shrink`: the flat
        outdegree column ``_outdeg`` (``len(out[v])``), the outdegree
        histogram ``_outdeg_hist`` (vertices per outdegree) and its maximum
        ``_max_outdeg``.  None of them is checkpointed; construction,
        rebuilds and restores derive them here at C speed.
        """
        self._out = out
        self._outdeg = outdeg = array("l", map(len, out))
        counts = Counter(outdeg)
        top = max(counts, default=0)
        hist = [0] * (top + 1)
        for degree, count in counts.items():
            hist[degree] = count
        self._outdeg_hist = hist
        self._max_outdeg = top

    def _grow(self, v: int) -> None:
        """Record that ``out[v]`` gained one head."""
        outdeg = self._outdeg
        degree = outdeg[v] + 1
        outdeg[v] = degree
        hist = self._outdeg_hist
        hist[degree - 1] -= 1
        if degree == len(hist):
            hist.append(1)
        else:
            hist[degree] += 1
        if degree > self._max_outdeg:
            self._max_outdeg = degree

    def _shrink(self, v: int) -> None:
        """Record that ``out[v]`` lost one head."""
        outdeg = self._outdeg
        degree = outdeg[v]
        outdeg[v] = degree - 1
        hist = self._outdeg_hist
        hist[degree] -= 1
        hist[degree - 1] += 1
        if degree == self._max_outdeg and not hist[degree]:
            self._max_outdeg = degree - 1

    def _proactive_flip(self, freed: int) -> None:
        """Flip one in-edge of an at-cap in-neighbor toward a freed out-slot.

        The deletion left ``freed`` with spare out-capacity; if some live
        neighbor ``w`` with the edge oriented ``w → freed`` sits at the
        outdegree cap, re-orienting that edge to ``freed → w`` drops ``w``
        strictly below the cap while keeping ``freed`` within it — a length-1
        flip path run opportunistically instead of waiting for an insertion
        at ``w`` to force a search.  Scans ``freed``'s dynamic adjacency
        (O(deg)); picks the smallest such ``w`` for determinism.
        """
        out = self._out
        cap = self.outdegree_cap
        if self._max_outdeg < cap or len(out[freed]) >= cap:
            # Below-cap maximum: no vertex sits at the cap, nothing to flip.
            return
        for w in self._dynamic.neighbors(freed):
            if freed in out[w] and len(out[w]) >= cap:
                out[w].discard(freed)
                out[freed].add(w)
                self._shrink(w)
                self._grow(freed)
                self.flips += 1
                self.opportunistic_flips += 1
                return

    # ------------------------------------------------------------------ #
    # Conflict-group repair (vertex-disjoint groups)
    # ------------------------------------------------------------------ #

    def apply_batch(self, updates: Iterable) -> GroupedApplyReport:
        """Resolve a whole update batch through conflict groups.

        The caller must have applied every update of the batch to the
        dynamic graph already (the :class:`~repro.stream.service.StreamingService`
        sequences exactly that); this method only maintains the orientation.
        The batch is split by :func:`plan_conflict_groups`, and one replay of
        the tail rule (:meth:`_replay_tails`) sorts the groups: a group is
        cap-safe iff none of its insertions passes the outdegree cap and its
        updates agree with the orientation, and flip-prone otherwise.  Then,
        on one path:

        1. every cap-safe group is applied in one pass in batch order with
           the replayed tails — groups are vertex-disjoint, so each out-set
           sees the same operations in the same order as a group-order run;
        2. the flip-prone groups run in group order through
           :meth:`_apply_group`, which repairs on overflow;
        3. the deferred proactive flips are swept in group order.

        A mid-batch Theorem 1.1 rebuild (saturated flip search in a flip-prone
        group) re-orients the *final* batch state in one stroke — the
        dynamic graph already holds it — after which the remaining updates
        are no-ops (their edges are already oriented or already gone).
        """
        updates = list(updates)
        if not updates:
            return GroupedApplyReport(0, 0, 0, 0, 0)
        groups, roots = _conflict_groups(updates)
        is_insert = [update.is_insert for update in updates]
        tails, flip_prone = self._replay_tails(updates, is_insert, roots)
        out = self._out
        for update, insert, tail, root in zip(updates, is_insert, tails, roots):
            if flip_prone and root in flip_prone:
                continue
            head = update.v if tail == update.u else update.u
            if insert:
                out[tail].add(head)
                self._grow(tail)
            else:
                out[tail].discard(head)
                self._shrink(tail)
        rebuilds_before = self.rebuilds
        # The flip-prone groups run here, in group order, after the pass.
        freed_by_group = [
            self._apply_group([updates[index] for index in group], rebuilds_before)
            if root in flip_prone
            else [tails[index] for index in group if not is_insert[index]]
            for root, group in groups.items()
        ]

        opportunistic_before = self.opportunistic_flips
        for freed_tails in freed_by_group:
            for freed in freed_tails:
                self._proactive_flip(freed)

        self._updates_since_check += len(updates)
        if self._updates_since_check >= self._quality_threshold():
            self.ensure_quality()
        return GroupedApplyReport(
            num_updates=len(updates),
            num_groups=len(groups),
            parallel_groups=len(groups) - len(flip_prone),
            serial_groups=len(flip_prone),
            proactive_flips=self.opportunistic_flips - opportunistic_before,
        )

    def _replay_tails(
        self, updates: list, is_insert: list[bool], roots: list[int]
    ) -> tuple[list[int], set[int]]:
        """Each update's tail and the roots of the flip-prone groups.

        Replays the tail rule over the batch in batch order against the
        current outdegrees plus in-batch deltas.  A vertex's replayed degree
        moves only with the updates of its own conflict group, so each
        group's replay is independent of the others.  An insertion that
        passes the cap marks its group flip-prone, and the group's later
        updates are skipped.  So does an update that disagrees with the
        orientation (a delete of an unoriented edge, an insert of an oriented
        one): the group then runs through :meth:`_apply_group`, which raises
        there.  A flip-prone group's tails are not used.
        """
        out = self._out
        cap = self.outdegree_cap
        choose_tail = self._choose_tail
        flip_prone: set[int] = set()
        degree: dict[int, int] = {}
        # edge -> tail while inserted in this batch, -1 once deleted in it
        touched: dict[tuple[int, int], int] = {}
        tails: list[int] = []
        for update, insert, root in zip(updates, is_insert, roots):
            if flip_prone and root in flip_prone:
                tails.append(-1)
                continue
            u, v = update.u, update.v
            edge = (u, v) if u < v else (v, u)
            tail = touched.get(edge)
            if insert:
                if (v in out[u] or u in out[v]) if tail is None else tail >= 0:
                    tail = -1
                else:
                    outdeg_u = degree.get(u)
                    if outdeg_u is None:
                        outdeg_u = len(out[u])
                    outdeg_v = degree.get(v)
                    if outdeg_v is None:
                        outdeg_v = len(out[v])
                    tail = choose_tail(u, v, outdeg_u, outdeg_v)
                    grown = (outdeg_u if tail == u else outdeg_v) + 1
                    if grown > cap:
                        tail = -1
                    else:
                        degree[tail] = grown
                        touched[edge] = tail
            else:
                if tail is None:
                    forward = v in out[u]
                    tail = -1 if forward == (u in out[v]) else (u if forward else v)
                if tail >= 0:
                    shrunk = degree.get(tail)
                    degree[tail] = (len(out[tail]) if shrunk is None else shrunk) - 1
                    touched[edge] = -1
            if tail < 0:
                flip_prone.add(root)
            tails.append(tail)
        return tails, flip_prone

    def _apply_group(self, group_updates: list, rebuilds_before: int) -> list[int]:
        """Apply one flip-prone group's updates; returns freed tails in order.

        An insertion that passes the cap starts a flip search
        (:meth:`_repair`).  Proactive flips are deferred to the caller's
        final sweep because they touch neighbors outside the group.  Inserts
        of already-oriented edges and deletes of already-unoriented ones are
        legal only after a mid-batch rebuild fast-forwarded the orientation
        to the batch-final state (``self.rebuilds > rebuilds_before``);
        without one they mean the orientation drifted from the live edge
        set, and they raise :class:`~repro.errors.GraphError`.
        """
        freed: list[int] = []
        for update in group_updates:
            out = self._out  # re-read: a repair may have rebuilt the table
            u, v = update.u, update.v
            if update.is_insert:
                if v in out[u] or u in out[v]:
                    if self.rebuilds == rebuilds_before:
                        raise GraphError(
                            f"insert of already-oriented edge {normalize_edge(u, v)} "
                            f"without a mid-batch rebuild: orientation drifted from "
                            f"the live edge set"
                        )
                    continue
                tail = self._choose_tail(u, v, len(out[u]), len(out[v]))
                head = v if tail == u else u
                out[tail].add(head)
                self._grow(tail)
                if len(out[tail]) > self.outdegree_cap:
                    self._repair(tail)
            else:
                if v in out[u]:
                    out[u].discard(v)
                    self._shrink(u)
                    freed.append(u)
                elif u in out[v]:
                    out[v].discard(u)
                    self._shrink(v)
                    freed.append(v)
                elif self.rebuilds == rebuilds_before:
                    raise GraphError(
                        f"edge {normalize_edge(u, v)} is not oriented"
                    )
        return freed

    def _repair(self, overloaded: int) -> None:
        """BFS along out-edges for spare capacity; flip the path, else rebuild."""
        cap = self.outdegree_cap
        out = self._out
        parent: dict[int, int] = {overloaded: overloaded}
        frontier = deque([overloaded])
        target = -1
        while frontier:
            x = frontier.popleft()
            # Sorted walk: the raw sets iterate in insertion-history order,
            # which a checkpoint/restore cycle cannot reproduce.  Canonical
            # neighbor order makes the repair path a pure function of the
            # (heads, outdeg) state, which the byte-identical restore
            # contract depends on.
            for w in sorted(out[x]):
                if w in parent:
                    continue
                parent[w] = x
                if len(out[w]) < cap:
                    target = w
                    frontier.clear()
                    break
                frontier.append(w)
        if target < 0:
            # Every vertex reachable along out-edges is saturated, so the
            # reachable region has density ≥ cap: the graph outgrew λ̂.  Fall
            # back to the full static pipeline with a strictly larger estimate
            # (the fresh degeneracy is ≥ the old cap here, so no thrashing).
            fresh = max(1, arboricity_upper_bound(self._dynamic.snapshot()))
            self._rebuild(reason="saturated", lambda_bound=max(fresh, self.lambda_bound + 1))
            return
        length = 0
        x = target
        while x != overloaded:
            p = parent[x]
            out[p].discard(x)
            out[x].add(p)
            self._shrink(p)
            self._grow(x)
            x = p
            length += 1
        self.flips += length

    def _quality_threshold(self) -> int:
        """Updates between quality checks: Θ(m), floored by ``quality_interval``."""
        return max(self.quality_interval, self._dynamic.num_edges // 4)

    # ------------------------------------------------------------------ #
    # Quality fallback
    # ------------------------------------------------------------------ #

    def ensure_quality(self, force: bool = False) -> bool:
        """Refresh ``λ̂`` from the current degeneracy; rebuild if stale-high.

        Deletions never violate the cap, but they can leave ``λ̂`` (and hence
        the cap) far above what the *current* graph needs.  A rebuild is
        triggered when the estimate exceeds twice the fresh degeneracy — the
        comparison is against ``λ̂`` rather than the cap so that a cap widened
        by a fallback rebuild's realised outdegree cannot cause a rebuild loop
        that would never lower it.  Returns whether a rebuild happened.
        Called automatically every ``max(quality_interval, m/4)`` updates;
        ``force=True`` runs it now.
        """
        if not force and self._updates_since_check < self._quality_threshold():
            return False
        self._updates_since_check = 0
        fresh = max(1, arboricity_upper_bound(self._dynamic.snapshot()))
        if self.lambda_bound > 2 * fresh:
            self._rebuild(reason="stale-bound", lambda_bound=fresh)
            return True
        return False

    def _rebuild(self, reason: str, lambda_bound: int | None = None) -> None:
        """Full Theorem 1.1 rebuild on a compacted snapshot (quality fallback)."""
        snapshot = self._dynamic.compact()
        if lambda_bound is None:
            lambda_bound = max(1, arboricity_upper_bound(snapshot))
        self.lambda_bound = lambda_bound
        self.outdegree_cap = max(self.flip_slack * self.lambda_bound, 1)
        self._install_full_orientation(snapshot)
        self.rebuilds += 1
        self.rebuild_reasons[reason] = self.rebuild_reasons.get(reason, 0) + 1
        if self._cluster is not None:
            self._cluster.charge_rounds(1, label=f"stream:rebuild:{reason}")

    def _install_full_orientation(self, snapshot: Graph) -> None:
        from repro.core.orientation import orient  # deferred: core imports stream-free

        run = orient(
            snapshot,
            delta=self._delta,
            k=max(2, 2 * self.lambda_bound),
            seed=self._seed,
            cluster=self._cluster,
        )
        out: list[set[int]] = [set() for _ in range(self._dynamic.num_vertices)]
        for tail, head in run.orientation.iter_directed_edges():
            out[tail].add(head)
        self._set_heads(out)
        # The static pipeline guarantees O(λ log log n), which can exceed the
        # flip cap on small graphs; widen the cap so the invariant holds.
        self.outdegree_cap = max(self.outdegree_cap, run.max_outdegree)

    # ------------------------------------------------------------------ #
    # Checkpoint seam
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Heads as CSR columns + λ̂/cap/counters, JSON-serializable.

        Per-vertex head lists are stored sorted; combined with the sorted
        repair walk in :meth:`_repair` this makes the restored orientation
        behave byte-identically to the original (set iteration order is the
        only thing a rebuilt ``_out`` cannot reproduce).
        """
        indptr = [0]
        heads: list[int] = []
        for out in self._out:
            heads.extend(sorted(out))
            indptr.append(len(heads))
        return {
            "indptr": indptr,
            "heads": heads,
            "lambda_bound": self.lambda_bound,
            "outdegree_cap": self.outdegree_cap,
            "flip_slack": self.flip_slack,
            "quality_interval": self.quality_interval,
            "delta": self._delta,
            "seed": self._seed,
            "flips": self.flips,
            "opportunistic_flips": self.opportunistic_flips,
            "rebuilds": self.rebuilds,
            "rebuild_reasons": dict(self.rebuild_reasons),
            "updates_since_check": self._updates_since_check,
        }

    @classmethod
    def from_state(
        cls, state: dict, dynamic: DynamicGraph, cluster=None
    ) -> "IncrementalOrientation":
        """Rebuild from :meth:`state_dict` output without re-running
        ``orient()`` (which would charge phantom rounds to the ledger)."""
        orientation = object.__new__(cls)
        orientation._dynamic = dynamic
        orientation.flip_slack = state["flip_slack"]
        orientation.quality_interval = state["quality_interval"]
        orientation._delta = state["delta"]
        orientation._seed = state["seed"]
        orientation._cluster = cluster
        indptr = state["indptr"]
        heads = state["heads"]
        orientation._set_heads([
            set(heads[indptr[v] : indptr[v + 1]])
            for v in range(dynamic.num_vertices)
        ])
        orientation.flips = state["flips"]
        orientation.opportunistic_flips = state["opportunistic_flips"]
        orientation.rebuilds = state["rebuilds"]
        orientation.rebuild_reasons = {
            str(reason): count for reason, count in state["rebuild_reasons"].items()
        }
        orientation._updates_since_check = state["updates_since_check"]
        orientation.lambda_bound = state["lambda_bound"]
        orientation.outdegree_cap = state["outdegree_cap"]
        return orientation

    def __repr__(self) -> str:
        return (
            f"IncrementalOrientation(lambda={self.lambda_bound}, cap={self.outdegree_cap}, "
            f"flips={self.flips}, rebuilds={self.rebuilds})"
        )

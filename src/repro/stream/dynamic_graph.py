"""A mutable edge-churn overlay over the immutable CSR :class:`Graph`.

The CSR :class:`~repro.graph.graph.Graph` is deliberately immutable — the
simulators rely on algorithms producing explicit outputs rather than editing
their input.  Streaming workloads still need mutation, so
:class:`DynamicGraph` layers an overlay on top of a frozen base graph.  The
overlay is recorded once:

* the added-edge and tombstone **sets** — the O(1) membership index behind
  ``has_edge`` — next to the delta adjacency and delta degrees that back
  ``degree``/``neighbors`` in O(overlay) extra work;
* the same additions and tombstones as two **sorted key columns**
  (``u * max(n, 1) + v``), kept sorted by a bisect insert or delete at
  every overlay change.  Batch validation reads them (and the base graph's
  key column) without sorting anything, and snapshot builds and compaction
  merge them into the base edge columns with
  :func:`repro.kernels.compact_journal` (vectorized on the numpy backend).

Every write goes through :meth:`DynamicGraph.apply_ops`, one loop over the
op columns (:meth:`~DynamicGraph.add_edge` and
:meth:`~DynamicGraph.remove_edge` are one-op batches), so an update costs
O(log overlay) index work plus its share of compaction.

Reads that need a full CSR go through :meth:`snapshot`, which is backed by
a **generation-tagged cache**: every mutation bumps an internal version,
and a snapshot is rebuilt from the overlay only when the version moved —
repeated snapshot consumers between compactions (quality checks, properness
scans, exports) share one build.  ``journal_length`` is the running length
of the op journal the overlay stands for (one entry per update, reset when
the overlay cancels out, cut back to one entry per overlay key once it
exceeds ``2 · overlay + min_compaction_journal``); every snapshot build adds
it to ``journal_replay_ops``, which the snapshot-cache microbench in
``benchmarks/bench_stream_hotpaths.py`` pins and the checkpoint fingerprint
records.

Once the overlay grows past ``compaction_fraction · m`` (at least
``min_compaction_journal`` entries), it is **compacted**: the surviving
edge set becomes the new frozen base (reusing a fresh cached snapshot when
one exists) and the overlay resets.  Compaction is therefore amortised O(1)
words of CSR rebuild per update, and every existing read-path kernel
(``peel_layers``, ``induced_subgraph``, degeneracy, orientation merge, the
MPC loaders) keeps working unchanged on the compacted :meth:`snapshot`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from collections.abc import Iterator
from itertools import chain

from repro import kernels
from repro.errors import GraphError
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.obs.tracer import NULL_TRACER


def _has_key(keys: array, key: int) -> bool:
    """Membership of ``key`` in a sorted key column (one C-level bisect)."""
    i = bisect_left(keys, key)
    return i < len(keys) and keys[i] == key


def _drop_key(keys: array, key: int) -> None:
    """Delete ``key`` (known to be present) from a sorted key column."""
    del keys[bisect_left(keys, key)]


class DynamicGraph:
    """A graph on a fixed vertex set ``0..n-1`` under edge insertions/deletions.

    Parameters
    ----------
    base:
        Initial (immutable) graph; the vertex universe is fixed to its size.
    compaction_fraction:
        Compact once the overlay exceeds this fraction of the current edge
        count (amortises the CSR rebuild over the updates that caused it);
        a finite positive number.
    min_compaction_journal:
        Never compact before the overlay has more than this many entries
        (avoids thrashing on tiny graphs); an integer ≥ 1.
    snapshot_caching:
        Keep the generation-tagged snapshot cache (default).  Disabling it
        forces every :meth:`snapshot` call to rebuild from the overlay — the
        baseline the snapshot-cache microbench measures against.
    """

    __slots__ = (
        "_base",
        "_n",
        "_added",
        "_added_adj",
        "_removed",
        "_delta_degree",
        "_num_edges",
        "_version",
        "_snapshot_cache",
        "_snapshot_version",
        "_base_keys",
        "_added_keys",
        "_removed_keys",
        "_tracer",
        "snapshot_caching",
        "compaction_fraction",
        "min_compaction_journal",
        "num_compactions",
        "total_updates",
        "journal_length",
        "journal_replay_ops",
        "snapshot_hits",
        "snapshot_builds",
    )

    def __init__(
        self,
        base: Graph,
        compaction_fraction: float = 0.25,
        min_compaction_journal: int = 64,
        snapshot_caching: bool = True,
    ) -> None:
        if (
            not isinstance(compaction_fraction, (int, float))
            or isinstance(compaction_fraction, bool)
            or not 0 < compaction_fraction < math.inf
        ):
            raise GraphError(
                f"compaction_fraction must be a finite positive number, "
                f"got {compaction_fraction!r}"
            )
        if (
            not isinstance(min_compaction_journal, int)
            or isinstance(min_compaction_journal, bool)
            or min_compaction_journal < 1
        ):
            raise GraphError(
                f"min_compaction_journal must be an integer >= 1, "
                f"got {min_compaction_journal!r}"
            )
        self._base = base
        self._n = base.num_vertices
        self._added: set[Edge] = set()
        self._added_adj: dict[int, set[int]] = {}
        self._removed: set[Edge] = set()
        self._delta_degree: dict[int, int] = {}
        self._num_edges = base.num_edges
        self._version = 0
        self._snapshot_cache: Graph | None = None
        self._snapshot_version = -1
        self._base_keys: array | None = None
        # The overlay's additions and tombstones as sorted key columns, kept
        # sorted at every overlay change (bisect insert/delete).
        self._added_keys = array("l")
        self._removed_keys = array("l")
        self._tracer = NULL_TRACER
        self.snapshot_caching = snapshot_caching
        self.compaction_fraction = compaction_fraction
        self.min_compaction_journal = min_compaction_journal
        self.num_compactions = 0
        self.total_updates = 0
        # The op-journal length the overlay stands for (see the module
        # docstring): what a snapshot build adds to journal_replay_ops.
        self.journal_length = 0
        self.journal_replay_ops = 0
        self.snapshot_hits = 0
        self.snapshot_builds = 0

    @classmethod
    def empty(cls, num_vertices: int, **kwargs) -> "DynamicGraph":
        """A dynamic graph with ``num_vertices`` vertices and no edges."""
        return cls(Graph.empty(num_vertices), **kwargs)

    def instrument(self, tracer) -> None:
        """Attach a tracer: compaction and overlay-read (snapshot build) spans
        carry the journal length and overlay delta size in their args.
        Observation only — results are byte-identical with it on or off."""
        self._tracer = NULL_TRACER if tracer is None else tracer

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n`` (fixed at construction)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of currently live edges."""
        return self._num_edges

    @property
    def vertices(self) -> range:
        """The vertex set, as a ``range`` object."""
        return range(self._n)

    @property
    def base(self) -> Graph:
        """The frozen CSR graph beneath the overlay (advances on compaction)."""
        return self._base

    @property
    def journal_size(self) -> int:
        """Number of overlay entries (added edges + tombstones).

        This is the *net* delta the overlay holds — the quantity compaction
        thresholds and batch reports use — not the running op-journal
        length (:attr:`journal_length`).
        """
        return len(self._added) + len(self._removed)

    def _base_has(self, e: Edge) -> bool:
        """Base-edge membership via bisect on the cached key column.

        Deliberately avoids ``e in self._base``: that would force the base
        graph's ``edge_ids`` hash map, an O(m) dict build the tick hot path
        would re-pay after every compaction.  The sorted key column is
        already maintained for batch validation, so membership is one
        C-level bisect.
        """
        return _has_key(self.base_edge_keys(), e[0] * max(self._n, 1) + e[1])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is currently live."""
        e = normalize_edge(u, v)
        if e in self._added:
            return True
        if e in self._removed:
            return False
        return self._base_has(e)

    def degree(self, v: int) -> int:
        """Current degree of vertex ``v`` (base degree plus overlay delta)."""
        return self._base.degree(v) + self._delta_degree.get(v, 0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted tuple of the current neighbors of ``v``."""
        removed = self._removed
        if removed:
            base_part = [
                w for w in self._base.neighbors(v)
                if ((v, w) if v < w else (w, v)) not in removed
            ]
        else:
            base_part = list(self._base.neighbors(v))
        extra = self._added_adj.get(v)
        if extra:
            base_part.extend(extra)
            base_part.sort()
        return tuple(base_part)

    def edges(self) -> Iterator[Edge]:
        """Iterate over the live edges in canonical sorted order."""
        added = sorted(self._added)
        removed = self._removed
        edge_u, edge_v = self._base.edge_endpoints
        i = 0
        la = len(added)
        for e in zip(edge_u, edge_v):
            if e in removed:
                continue
            while i < la and added[i] < e:
                yield added[i]
                i += 1
            yield e
        while i < la:
            yield added[i]
            i += 1

    # ------------------------------------------------------------------ #
    # Key columns (batch-validation inputs)
    # ------------------------------------------------------------------ #

    def base_edge_keys(self) -> array:
        """The base graph's edges as a sorted key column (cached per base).

        Keys use the shared :func:`repro.kernels.encode_edge_keys` convention
        (``u * max(n, 1) + v``); compaction invalidates the cache.
        """
        if self._base_keys is None:
            edge_u, edge_v = self._base.edge_endpoints
            self._base_keys = kernels.encode_edge_keys(self._n, edge_u, edge_v)
        return self._base_keys

    def overlay_edge_keys(self) -> tuple[array, array]:
        """``(added_keys, removed_keys)`` as sorted key columns.

        The columns are maintained sorted as the overlay changes, so a read
        is one copy of each (the copies stay valid, and hold no buffer of
        the live columns, after the graph moves on).
        """
        return self._added_keys[:], self._removed_keys[:]

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def _check_vertex_range(self, u: int, v: int) -> None:
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphError(f"edge ({u}, {v}) references a vertex outside 0..{self._n - 1}")

    def add_edge(self, u: int, v: int) -> None:
        """Insert the edge ``{u, v}``; raises :class:`GraphError` if already live."""
        self.apply_ops((1,), (u,), (v,))

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the edge ``{u, v}``; raises :class:`GraphError` if not live."""
        self.apply_ops((0,), (u,), (v,))

    def apply_ops(self, ops, us, vs) -> None:
        """Absorb a columnar op batch (op 1 = insert, 0 = delete), in order.

        The one write path: :meth:`add_edge` and :meth:`remove_edge` are
        one-op batches.  Each op is checked (vertex range, self loop, insert
        of a live edge, delete of a dead one; an offending op raises
        :class:`GraphError` with the ops before it applied), updates the
        overlay sets and sorted key columns, advances :attr:`journal_length`,
        and is followed by the compaction-threshold check, which the
        deterministic round accounting pins per op.  The service feeds
        pre-validated batch columns through here.
        """
        n = self._n
        stride = max(n, 1)
        added = self._added
        added_adj = self._added_adj
        removed = self._removed
        added_keys = self._added_keys
        removed_keys = self._removed_keys
        delta_degree = self._delta_degree
        min_journal = self.min_compaction_journal
        fraction = self.compaction_fraction
        for op, u, v in zip(ops, us, vs):
            if not (0 <= u < n and 0 <= v < n):
                self._check_vertex_range(u, v)
            e = (u, v) if u < v else normalize_edge(u, v)
            a, b = e
            key = a * stride + b
            if op:
                step = 1
                if e in removed:
                    removed.discard(e)
                    _drop_key(removed_keys, key)
                elif e in added or _has_key(self.base_edge_keys(), key):
                    raise GraphError(f"edge {e} is already present")
                else:
                    added.add(e)
                    for x, y in ((a, b), (b, a)):
                        adjacent = added_adj.get(x)
                        if adjacent is None:
                            added_adj[x] = {y}
                        else:
                            adjacent.add(y)
                    insort(added_keys, key)
            else:
                step = -1
                if e in added:
                    added.discard(e)
                    added_adj[a].discard(b)
                    added_adj[b].discard(a)
                    _drop_key(added_keys, key)
                elif e not in removed and _has_key(self.base_edge_keys(), key):
                    removed.add(e)
                    insort(removed_keys, key)
                else:
                    raise GraphError(f"edge {e} is not present")
            for x in e:
                degree = delta_degree.get(x, 0) + step
                if degree:
                    delta_degree[x] = degree
                else:
                    del delta_degree[x]
            self._num_edges += step
            self._version += 1
            self.total_updates += 1
            overlay = len(added) + len(removed)
            length = self.journal_length + 1
            if overlay == 0:
                # The overlay cancelled out: the state *is* the base again.
                length = 0
            elif length > 2 * overlay + min_journal:
                # Cut back to one entry per overlay key, so cancelling churn
                # below the compaction threshold cannot grow it unboundedly.
                length = overlay
            self.journal_length = length
            # Compact once the overlay exceeds max(min_journal, fraction · m),
            # a float compare: a huge fraction means "never", not an
            # overflow after the op landed.
            if overlay > min_journal and overlay > fraction * max(self._num_edges, 1):
                self.compact()

    # ------------------------------------------------------------------ #
    # Compaction / snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Graph:
        """The current edge set as an immutable CSR :class:`Graph`.

        When the overlay is empty this is the base graph itself (O(1)).
        Otherwise the cached snapshot is returned while the graph hasn't
        moved since it was built; a stale (or disabled) cache rebuilds via
        the ``compact_journal`` kernel — one merge of the sorted overlay key
        columns over the base edge columns.
        """
        if not self._added and not self._removed:
            return self._base
        if (
            self.snapshot_caching
            and self._snapshot_cache is not None
            and self._snapshot_version == self._version
        ):
            self.snapshot_hits += 1
            return self._snapshot_cache
        graph = self._build_snapshot()
        if self.snapshot_caching:
            self._snapshot_cache = graph
            self._snapshot_version = self._version
        return graph

    def _build_snapshot(self) -> Graph:
        """Merge the overlay key columns into the base (the cache-miss path)."""
        with self._tracer.span(
            "overlay-read",
            cat="stream",
            journal=self.journal_length,
            delta=self.journal_size,
        ):
            base_u, base_v = self._base.edge_endpoints
            edge_u, edge_v = kernels.compact_journal(
                self._n, base_u, base_v, self._added_keys, self._removed_keys
            )
        self.journal_replay_ops += self.journal_length
        self.snapshot_builds += 1
        metrics = self._tracer.metrics
        if metrics.enabled:
            metrics.inc("stream.journal_replay_ops", self.journal_length)
            metrics.inc("stream.snapshot_builds")
        return Graph._from_columns(self._n, edge_u, edge_v)

    def compact(self) -> Graph:
        """Fold the overlay into a fresh CSR base graph and reset it.

        A fresh cached snapshot is promoted to base as-is (no second replay);
        with no overlay the call is a no-op, so back-to-back compactions
        never advance the base or the generation spuriously.
        """
        if self._added or self._removed:
            with self._tracer.span(
                "compaction",
                cat="stream",
                journal=self.journal_length,
                delta=self.journal_size,
            ):
                self._base = self.snapshot()
            self._added.clear()
            self._added_adj.clear()
            self._removed.clear()
            self._delta_degree.clear()
            self.journal_length = 0
            self._snapshot_cache = None
            self._snapshot_version = -1
            self._base_keys = None
            del self._added_keys[:], self._removed_keys[:]
            self.num_compactions += 1
            metrics = self._tracer.metrics
            if metrics.enabled:
                metrics.inc("stream.graph_compactions")
        return self._base

    # ------------------------------------------------------------------ #
    # Checkpoint seam
    # ------------------------------------------------------------------ #

    def state_columns(self) -> dict:
        """The complete mutable state as JSON-serializable columns.

        Base edge columns + the two sorted overlay key columns are sufficient
        to rebuild the overlay indexes exactly (see :meth:`from_state`); the
        journal length and the counters ride along so restored telemetry
        continues where it left off.
        """
        base_u, base_v = self._base.edge_endpoints
        return {
            "num_vertices": self._n,
            "base_u": list(base_u),
            "base_v": list(base_v),
            "added_keys": list(self._added_keys),
            "removed_keys": list(self._removed_keys),
            "journal_length": self.journal_length,
            "compaction_fraction": self.compaction_fraction,
            "min_compaction_journal": self.min_compaction_journal,
            "snapshot_caching": bool(self.snapshot_caching),
            "num_compactions": self.num_compactions,
            "total_updates": self.total_updates,
            "journal_replay_ops": self.journal_replay_ops,
            "snapshot_hits": self.snapshot_hits,
            "snapshot_builds": self.snapshot_builds,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DynamicGraph":
        """Rebuild a graph from :meth:`state_columns` output, byte-identically.

        The overlay sets, delta adjacency and delta degrees are rebuilt from
        the two key columns, which must be strictly ascending keys of
        canonical in-range edges — additions absent from the base,
        tombstones present in it; anything else raises :class:`GraphError`
        (a checkpoint fingerprint cannot catch an unsorted column).
        """
        base = Graph._from_columns(
            state["num_vertices"],
            array("l", state["base_u"]),
            array("l", state["base_v"]),
        )
        graph = cls(
            base,
            compaction_fraction=state["compaction_fraction"],
            min_compaction_journal=state["min_compaction_journal"],
            snapshot_caching=state["snapshot_caching"],
        )
        n = graph._n
        stride = max(n, 1)
        # Bisect the base columns directly (tail run, then head within it):
        # the cached key column would cost a kernel call that the restored
        # graph may never need.
        base_u, base_v = base.edge_endpoints
        for name, in_base, overlay in (
            ("added_keys", False, graph._added),
            ("removed_keys", True, graph._removed),
        ):
            previous = -1
            for key in state[name]:
                u, v = divmod(key, stride)
                lo = bisect_left(base_u, u)
                hi = bisect_right(base_u, u, lo)
                i = bisect_left(base_v, v, lo, hi)
                is_base = i < hi and base_v[i] == v
                if key <= previous or not 0 <= u < v < n or is_base != in_base:
                    raise GraphError(
                        f"overlay column {name} is not strictly ascending keys "
                        f"of {'base' if in_base else 'non-base'} edges: {key!r}"
                    )
                previous = key
                overlay.add((u, v))
        degree = Counter(chain.from_iterable(graph._added))
        degree.subtract(Counter(chain.from_iterable(graph._removed)))
        graph._delta_degree = {x: d for x, d in degree.items() if d}
        for u, v in graph._added:
            graph._added_adj.setdefault(u, set()).add(v)
            graph._added_adj.setdefault(v, set()).add(u)
        graph._num_edges += len(graph._added) - len(graph._removed)
        graph._added_keys = array("l", state["added_keys"])
        graph._removed_keys = array("l", state["removed_keys"])
        graph.journal_length = state["journal_length"]
        graph.num_compactions = state["num_compactions"]
        graph.total_updates = state["total_updates"]
        graph.journal_replay_ops = state["journal_replay_ops"]
        graph.snapshot_hits = state["snapshot_hits"]
        graph.snapshot_builds = state["snapshot_builds"]
        return graph

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(n={self._n}, m={self._num_edges}, "
            f"journal={self.journal_size}, compactions={self.num_compactions})"
        )

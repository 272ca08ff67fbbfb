"""The streaming service API: batched updates with MPC round accounting.

:class:`StreamingService` is the dynamic counterpart of the one-shot
``orient()``/``color()`` entry points.  It owns the full maintained state —
a :class:`~repro.stream.dynamic_graph.DynamicGraph`, an
:class:`~repro.stream.orientation.IncrementalOrientation` and an
:class:`~repro.stream.coloring.IncrementalColoring` — and accepts
:class:`~repro.stream.updates.UpdateBatch` objects.

MPC accounting (see :mod:`repro.mpc.cluster` for the model):

* delivering a batch is one communication round — every update ``{u, v}`` is
  a 2-word message from the machine owning ``u`` to the machine owning ``v``
  (oversized batches split into ⌈volume/S⌉ rounds as usual);
* flip-path repair and recoloring are each charged one aggregation round per
  batch in which they occur (the flips/recolors of a batch are independent
  pointer updates, resolvable by one constant-round primitive).  On the host
  the batch is split into vertex-disjoint conflict groups
  (:func:`repro.stream.orientation.plan_conflict_groups`) that run
  in-process, one after another, in a fixed order (cap-safe groups first),
  so the outcome is a pure function of the input;
* a quality-fallback rebuild runs the full Theorem 1.1 pipeline *against the
  service's cluster*, so its rounds land in the same ledger (labels
  ``stream:rebuild:*``);
* compaction is a sorting primitive over the journal, one round per
  occurrence;
* the live graph itself is stored as an evenly spread distributed object
  (tag ``stream-graph``, 1 word per vertex + 2 per edge), re-registered at
  every batch boundary — so growth under insertions shows up in the memory
  peaks and can trip the ``n^δ``/global-budget checks like any static load.

Batches are **atomic**: the whole batch is validated against the current
graph (net of in-batch effects) before any state or ledger is touched, so an
illegal update raises :class:`~repro.errors.GraphError` and leaves the
service exactly as it was.

Per-batch costs and structure quality are returned as
:class:`~repro.stream.updates.BatchReport` rows.
"""

from __future__ import annotations

import time
from dataclasses import fields

from repro import kernels
from repro.errors import GraphError
from repro.obs.tracer import NULL_TRACER
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.stream.coloring import IncrementalColoring
from repro.stream.dynamic_graph import DynamicGraph
from repro.stream.orientation import IncrementalOrientation
from repro.stream.updates import BatchReport, StreamSummary, UpdateBatch


def graph_memory_words(num_vertices: int, num_edges: int) -> int:
    """Ledger words of a live graph: 1 per vertex + 2 per edge.

    The single source of truth for the storage model shared by batch-boundary
    registration (:meth:`StreamingService._account_graph_storage`), quota
    projection (:meth:`StreamingService.projected_memory_words`), and the
    engine's registration-time quota admission — these three must agree or
    quota checks drift from the ledger they cap.
    """
    return num_vertices + 2 * num_edges


def _report_state(report: BatchReport) -> dict:
    """One :class:`BatchReport` as a field-name-keyed dict (checkpoint rows)."""
    return {f.name: getattr(report, f.name) for f in fields(BatchReport)}


def _restore_report(state: dict) -> BatchReport:
    """Inverse of :func:`_report_state`; unknown/missing keys raise upstream."""
    return BatchReport(**state)


class StreamingService:
    """Applies update batches while maintaining orientation + coloring.

    Parameters
    ----------
    initial:
        The graph at stream start (may be empty).
    delta:
        Memory exponent for the simulated cluster (when none is supplied).
    seed:
        Forwarded to :class:`IncrementalOrientation` (the seed of its
        Theorem 1.1 builds).  The orientation keeps its default cap
        (``4 · λ̂``, λ̂ the initial degeneracy) and quality interval.
    cluster:
        Optional pre-built cluster; a fresh one sized for ``initial`` is
        created (and loaded) when omitted.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When given, each batch is
        wrapped in host wall-clock spans (batch → repair/recolor/quality)
        carrying the ledger delta charged inside them, and the cluster is
        instrumented for metrics.  Tracing is observation
        only — results are byte-identical with it on or off.
    """

    def __init__(
        self,
        initial: Graph,
        delta: float = 0.5,
        seed: int = 0,
        cluster: MPCCluster | None = None,
        tracer=None,
    ) -> None:
        if cluster is None:
            cluster = MPCCluster(MPCConfig.for_graph(initial, delta=delta))
        self.cluster = cluster
        self.tracer = NULL_TRACER if tracer is None else tracer
        if tracer is not None:
            cluster.instrument(tracer)
        self.dynamic = DynamicGraph(initial)
        if tracer is not None:
            self.dynamic.instrument(tracer)
        self._account_graph_storage()
        self.orientation = IncrementalOrientation(
            self.dynamic, delta=delta, seed=seed, cluster=cluster
        )
        self.coloring = IncrementalColoring(self.dynamic)
        self.summary = StreamSummary()

    # ------------------------------------------------------------------ #
    # Batch application
    # ------------------------------------------------------------------ #

    def _account_graph_storage(self) -> None:
        """Register the live graph's words in the cluster's memory ledger.

        The dynamic graph is one distributed object of ``n + 2m`` words; the
        standard primitives keep such objects evenly spread, so each batch
        boundary re-registers the current size under one tag.  Growth under
        insertions therefore raises the observed peaks (and the enforcement
        checks) exactly like a static load of the same graph would.
        """
        words = graph_memory_words(self.dynamic.num_vertices, self.dynamic.num_edges)
        self.cluster.restore_spread(words, tag="stream-graph")

    def _validate_batch(self, batch: UpdateBatch) -> None:
        """Reject the whole batch (before any mutation) if any update is illegal.

        Runs as one ``validate_batch`` kernel call over the batch's columns
        and the dynamic graph's key columns — the base edges (cached per
        base) and the overlay additions and tombstones (kept sorted as the
        overlay changes, so reading them is a copy, not a sort) — with
        endpoint range, duplicate-insert and dead-delete checks vectorized
        on the numpy backend, and the exact first-offender order and
        messages of the reference loop.
        """
        ops, us, vs = batch.columns()
        added_keys, removed_keys = self.dynamic.overlay_edge_keys()
        kernels.validate_batch(
            self.dynamic.num_vertices,
            ops,
            us,
            vs,
            self.dynamic.base_edge_keys(),
            added_keys,
            removed_keys,
        )

    def apply(self, batch: UpdateBatch) -> BatchReport:
        """Apply one batch atomically; returns the per-batch metric report.

        ``report.wall_clock_s`` is always populated (monotonic host time,
        tracing or not); with a tracer attached the batch additionally
        records a ``batch`` span (with nested repair/recolor/quality spans)
        carrying the ledger delta charged while it was open.
        """
        started = time.perf_counter()
        with self.tracer.span(
            "batch",
            cat="stream",
            cluster=self.cluster,
            batch=self.summary.num_batches,
            updates=len(batch),
        ) as span:
            report = self._apply_batch(batch)
            span.annotate(
                flips=report.flips,
                recolors=report.recolors,
                rebuilds=report.rebuilds,
                compactions=report.compactions,
            )
        report.wall_clock_s = time.perf_counter() - started
        metrics = self.tracer.metrics
        if metrics.enabled:
            metrics.inc("stream.batches")
            metrics.inc("stream.flips", report.flips)
            metrics.inc("stream.recolors", report.recolors)
            metrics.inc("stream.rebuilds", report.rebuilds)
            metrics.inc("stream.compactions", report.compactions)
        self.summary.add(report)
        return report

    def _apply_batch(self, batch: UpdateBatch) -> BatchReport:
        """The :meth:`apply` body; returns the report *before* aggregation."""
        self._validate_batch(batch)
        orientation = self.orientation
        coloring = self.coloring
        dynamic = self.dynamic
        cluster = self.cluster

        flips_before = orientation.flips
        rebuilds_before = orientation.rebuilds
        recolors_before = coloring.recolors
        compactions_before = dynamic.num_compactions
        rounds_before = cluster.stats.num_rounds

        # One communication round delivers the whole batch: each update is a
        # 2-word message routed between the machines owning its endpoints.
        ops, us, vs = batch.columns()
        if len(batch):
            cluster.communication_round(us, vs, 2, label="stream:batch")

        # Superstep order: the graph absorbs the whole batch first (so a
        # mid-batch fallback rebuild sees the batch-final snapshot), then the
        # orientation resolves the batch as conflict groups, then the
        # coloring repairs its invalidated endpoints.
        dynamic.apply_ops(ops, us, vs)

        with self.tracer.span("repair", cat="stream", cluster=cluster):
            grouped = orientation.apply_batch(batch.updates)

        with self.tracer.span("recolor", cat="stream", cluster=cluster):
            # Deletions never invalidate properness, so the scan covers just
            # the insert columns (kernel-dispatched; see handle_insert_batch
            # for the byte-identity argument).
            coloring.handle_insert_batch(*batch.insert_columns())

        # Amortised quality maintenance at the batch boundary; a rebuild here
        # also refreshes the coloring (the rebuild recomputed everything).
        with self.tracer.span("quality", cat="stream", cluster=cluster):
            orientation.ensure_quality()
            if orientation.rebuilds > rebuilds_before:
                coloring.refresh(dynamic.snapshot())

        flips = orientation.flips - flips_before
        recolors = coloring.recolors - recolors_before
        compactions = dynamic.num_compactions - compactions_before
        if flips:
            cluster.charge_rounds(1, label="stream:flip-repair")
        if recolors:
            cluster.charge_rounds(1, label="stream:recolor")
        if compactions:
            cluster.charge_rounds(compactions, label="stream:compact")
        self._account_graph_storage()

        report = BatchReport(
            batch_index=self.summary.num_batches,
            num_inserts=batch.num_inserts,
            num_deletes=batch.num_deletes,
            conflict_groups=grouped.num_groups,
            parallel_groups=grouped.parallel_groups,
            proactive_flips=grouped.proactive_flips,
            flips=flips,
            recolors=recolors,
            rebuilds=orientation.rebuilds - rebuilds_before,
            compactions=dynamic.num_compactions - compactions_before,
            rounds=cluster.stats.num_rounds - rounds_before,
            num_edges=dynamic.num_edges,
            journal_size=dynamic.journal_size,
            max_outdegree=orientation.max_outdegree(),
            outdegree_cap=orientation.outdegree_cap,
            num_colors=coloring.num_colors(),
        )
        return report

    def projected_memory_words(self, batch: UpdateBatch) -> int:
        """Global ledger words in use after ``batch`` would be applied.

        The live graph is the only per-batch storage the service re-registers
        (tag ``stream-graph``: ``n + 2m`` words), so the projection swaps the
        current registration for the post-batch one while keeping every other
        tag (rebuild residue, initial load) as-is.  Used by the engine's
        quota admission: the check runs *before* any state or ledger mutation,
        which is what lets a breaching batch stay queued intact.  Rebuild
        working sets are invisible to this projection — the fold-time
        :meth:`~repro.mpc.cluster.MPCCluster.check_quota` backstop covers
        those.
        """
        graph_now = graph_memory_words(self.dynamic.num_vertices, self.dynamic.num_edges)
        graph_after = graph_memory_words(
            self.dynamic.num_vertices, self.dynamic.num_edges + batch.net_inserts
        )
        return self.cluster.global_memory_in_use() - graph_now + graph_after

    def apply_all(self, batches) -> StreamSummary:
        """Apply a sequence of batches; returns the aggregated summary."""
        for batch in batches:
            self.apply(batch)
        return self.summary

    # ------------------------------------------------------------------ #
    # Checkpoint seam
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """The complete maintained state as a JSON-serializable snapshot.

        Everything behavior-affecting is captured: the sub-ledger (with its
        config, quota, keyed storage and spread totals), the dynamic graph's
        base + journal columns, the orientation heads/λ̂/cap/counters, the
        coloring column, and the per-batch report history.
        """
        return {
            "ledger": self.cluster.ledger_state(),
            "dynamic": self.dynamic.state_columns(),
            "orientation": self.orientation.state_dict(),
            "coloring": self.coloring.state_dict(),
            "reports": [_report_state(report) for report in self.summary.reports],
        }

    @classmethod
    def from_state(cls, state: dict, tracer=None) -> "StreamingService":
        """Resurrect a service from :meth:`state_dict` output, byte-identically.

        Deliberately bypasses ``__init__``: constructing normally would
        re-run the static orientation pipeline and re-register graph storage,
        charging phantom rounds to a ledger that already holds the exact
        history.  The field wiring mirrors ``__init__`` minus every
        ledger-charging step.
        """
        service = object.__new__(cls)
        service.cluster = MPCCluster.from_ledger_state(state["ledger"])
        service.tracer = NULL_TRACER if tracer is None else tracer
        if tracer is not None:
            service.cluster.instrument(tracer)
        service.dynamic = DynamicGraph.from_state(state["dynamic"])
        if tracer is not None:
            service.dynamic.instrument(tracer)
        service.orientation = IncrementalOrientation.from_state(
            state["orientation"], service.dynamic, cluster=service.cluster
        )
        service.coloring = IncrementalColoring.from_state(
            state["coloring"], service.dynamic
        )
        service.summary = StreamSummary()
        for row in state["reports"]:
            service.summary.add(_restore_report(row))
        return service

    # ------------------------------------------------------------------ #
    # Consistency checks (tests / validators)
    # ------------------------------------------------------------------ #

    def verify(self) -> None:
        """Check every maintained invariant; raises :class:`GraphError` on drift.

        * the orientation covers the live edge set exactly, with every
          oriented edge live;
        * ``max_outdegree ≤ outdegree_cap``;
        * the coloring is proper on the live edge set.
        """
        dynamic = self.dynamic
        orientation = self.orientation
        oriented = orientation.oriented_edge_count()
        if oriented != dynamic.num_edges:
            raise GraphError(
                f"orientation drift: {oriented} oriented edges vs {dynamic.num_edges} live"
            )
        for u, v in dynamic.edges():
            orientation.head(u, v)  # raises if the edge is unoriented
        worst = orientation.max_outdegree()
        if worst > orientation.outdegree_cap:
            raise GraphError(
                f"outdegree {worst} exceeds maintained cap {orientation.outdegree_cap}"
            )
        if not self.coloring.is_proper():
            raise GraphError("maintained coloring is not proper")

    def __repr__(self) -> str:
        return (
            f"StreamingService(m={self.dynamic.num_edges}, "
            f"batches={self.summary.num_batches}, rounds={self.cluster.stats.num_rounds})"
        )

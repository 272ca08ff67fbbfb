"""Experiment runners for the streaming subsystem (experiments S1 and S2).

Each runner streams a :class:`~repro.stream.workloads.StreamWorkload` end to
end through the :class:`~repro.stream.service.StreamingService`, verifies
every maintained invariant, and collects one
:class:`~repro.experiments.harness.ExperimentRow`:

* **S1** (:func:`run_streaming_experiment`) covers both the *cost* of
  maintenance (flips, recolors, rebuilds, compactions, simulated MPC rounds,
  amortised work) and the *quality* of the maintained structures at stream
  end (max outdegree vs. the O(λ) envelope, colors, properness).
* **S2** (:func:`run_batch_size_experiment`) sweeps the *batch size* of a
  windowed trace at a fixed update budget: delivering a batch costs one
  communication round regardless of its size (until it outgrows ``S``), so
  the amortised rounds/update should fall roughly like ``1/batch_size``
  while the maintained quality stays flat — the table the windowed-batching
  ROADMAP item asks for.
* **S3** (:func:`run_multi_tenant_experiment`) multiplexes a fleet of
  independent tenants on one :class:`~repro.stream.engine.StreamEngine`:
  every tick serves one batch per tenant, charged as parallel supersteps,
  so the headline metric is the round *savings* of the max-over-tenants
  fold over charging the tenants sequentially — the multiplexing analogue
  of the Lemma 2.1/2.2 part fan-outs.
* **S4** (:func:`run_scheduler_experiment`) serves a skewed bursty/steady
  fleet under a scheduling policy and a per-tick round budget: the sweep
  trades tail latency and backlog against the budget, while conservation
  (every submitted update applied exactly once) and the budget cap on the
  folded tick rounds are asserted on every row.
"""

from __future__ import annotations

from repro.analysis.validators import validate_streaming_outdegree
from repro.errors import GraphError
from repro.experiments.harness import ExperimentRow
from repro.graph.arboricity import arboricity_bounds
from repro.stream.engine import StreamEngine
from repro.stream.service import StreamingService
from repro.stream.workloads import (
    MultiTenantWorkload,
    SchedulerWorkload,
    StreamWorkload,
)


def run_streaming_experiment(
    workload: StreamWorkload,
    delta: float = 0.5,
    seed: int = 0,
    tracer=None,
) -> ExperimentRow:
    """S1: stream a trace through the service and record cost/quality metrics.

    ``tracer`` (a :class:`repro.obs.Tracer`, optional) records host-side
    spans for the run; results are identical with tracing on or off.
    """
    trace = workload.materialize()
    service = StreamingService(trace.initial, delta=delta, seed=seed, tracer=tracer)
    summary = service.apply_all(trace.batches)
    service.verify()

    snapshot = service.dynamic.snapshot()
    bounds = arboricity_bounds(snapshot, exact_density=False)
    quality = validate_streaming_outdegree(
        service.orientation.max_outdegree(), bounds.upper, snapshot.num_vertices
    )
    row = ExperimentRow(
        workload=workload.describe(),
        num_vertices=snapshot.num_vertices,
        num_edges=snapshot.num_edges,
        arboricity_lower=bounds.lower,
        arboricity_upper=bounds.upper,
    )
    row.metrics.update(summary.as_dict())
    row.metrics.update(
        {
            "outdegree_bound": quality.allowed,
            "outdegree_ok": 1.0 if quality.passed else 0.0,
            "proper": 1.0 if service.coloring.is_proper() else 0.0,
            "initial_m": float(trace.initial.num_edges),
        }
    )
    return row


def run_batch_size_experiment(
    workload: StreamWorkload,
    delta: float = 0.5,
    seed: int = 0,
    tracer=None,
) -> ExperimentRow:
    """S2: amortised rounds/update of one windowed trace at one batch size.

    The workload's ``batch_size`` param is the swept variable; the registry's
    S2 suite holds the total update budget fixed while the batch size varies,
    so rows are directly comparable.  The headline metric is
    ``rounds_per_update`` — total simulated MPC rounds (delivery + repair
    primitives + compaction + rebuilds) over total updates.
    """
    trace = workload.materialize()
    service = StreamingService(trace.initial, delta=delta, seed=seed, tracer=tracer)
    summary = service.apply_all(trace.batches)
    service.verify()

    snapshot = service.dynamic.snapshot()
    bounds = arboricity_bounds(snapshot, exact_density=False)
    updates = max(summary.total_updates, 1)
    # Per-batch round deltas only: the initial orientation build is the same
    # for every batch size, so it would just add a constant to every row.
    rounds = summary.total_rounds

    row = ExperimentRow(
        workload=workload.describe(),
        num_vertices=snapshot.num_vertices,
        num_edges=snapshot.num_edges,
        arboricity_lower=bounds.lower,
        arboricity_upper=bounds.upper,
    )
    row.metrics.update(
        {
            "batch_size": float(dict(workload.params).get("batch_size", 0)),
            "batches": float(summary.num_batches),
            "updates": float(summary.total_updates),
            "rounds": float(rounds),
            "rounds_per_update": rounds / updates,
            "flips": float(summary.total_flips),
            "amortised_flips": summary.amortised_flips,
            "proactive_flips": float(summary.total_proactive_flips),
            "rebuilds": float(summary.total_rebuilds),
            "final_max_outdegree": float(service.orientation.max_outdegree()),
            "outdegree_cap": float(service.orientation.outdegree_cap),
        }
    )
    return row


def run_multi_tenant_experiment(
    workload: MultiTenantWorkload,
    delta: float = 0.5,
    seed: int = 0,
    tracer=None,
) -> ExperimentRow:
    """S3: stream a tenant fleet through one engine and record the round fold.

    ``rounds_parallel`` is the shared ledger's per-tick max-over-tenants
    charge summed over the ticks; ``rounds_sequential`` is what charging the
    same tenants one after another would have cost (the sum of the per-tenant
    per-tick rounds).  ``round_savings`` is their ratio — it approaches the
    tenant count when the fleet is balanced.  Quality metrics are the worst
    case over the fleet, and every tenant's invariants are verified at the
    end of the run.
    """
    traces = workload.materialize()
    with StreamEngine(delta=delta, seed=seed, tracer=tracer) as engine:
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial)
            engine.submit_all(trace.name, trace.batches)
        summary = engine.run_until_drained()
        engine.verify()

        snapshots = {
            name: engine.tenant_service(name).dynamic.snapshot()
            for name in engine.tenant_names()
        }
        per_tenant_bounds = {
            name: arboricity_bounds(snapshot, exact_density=False)
            for name, snapshot in snapshots.items()
        }
        worst_quality = None
        for name, snapshot in snapshots.items():
            quality = validate_streaming_outdegree(
                engine.tenant_service(name).orientation.max_outdegree(),
                per_tenant_bounds[name].upper,
                snapshot.num_vertices,
            )
            if worst_quality is None or quality.headroom < worst_quality.headroom:
                worst_quality = quality
        proper = all(
            engine.tenant_service(name).coloring.is_proper()
            for name in engine.tenant_names()
        )
        rounds_parallel = summary.total_rounds
        rounds_sequential = sum(tick.sequential_rounds for tick in engine.ticks)
        final = summary.final_report()

        row = ExperimentRow(
            workload=workload.describe(),
            num_vertices=sum(s.num_vertices for s in snapshots.values()),
            num_edges=sum(s.num_edges for s in snapshots.values()),
            arboricity_lower=max(b.lower for b in per_tenant_bounds.values()),
            arboricity_upper=max(b.upper for b in per_tenant_bounds.values()),
        )
        row.metrics.update(
            {
                "tenants": float(workload.num_tenants),
                "ticks": float(summary.num_batches),
                "updates": float(summary.total_updates),
                "flips": float(summary.total_flips),
                "rebuilds": float(summary.total_rebuilds),
                "rounds_parallel": float(rounds_parallel),
                "rounds_sequential": float(rounds_sequential),
                "round_savings": rounds_sequential / max(rounds_parallel, 1),
                "max_outdegree": float(final.max_outdegree),
                "outdegree_ok": 1.0 if (worst_quality is None or worst_quality.passed) else 0.0,
                "colors": float(final.num_colors),
                "proper": 1.0 if proper else 0.0,
                "wall_clock_s": summary.total_wall_clock_s,
            }
        )
    return row


def batch_latencies(ticks) -> dict[str, list[int]]:
    """Per-tenant batch latencies, in ticks, reconstructed from tick reports.

    Batch ``j`` (0-based) of a tenant could have been served at tick ``j`` at
    the earliest (one batch per tenant per tick, everything submitted before
    the first tick); its latency is ``applied_tick - j``.  ``serve-all``
    fleets are all-zero; budgeted policies trade latency for the round cap.
    """
    served_so_far: dict[str, int] = {}
    latencies: dict[str, list[int]] = {}
    for tick in ticks:
        for name in tick.reports:
            position = served_so_far.get(name, 0)
            served_so_far[name] = position + 1
            latencies.setdefault(name, []).append(tick.tick_index - position)
    return latencies


def run_scheduler_experiment(
    workload: SchedulerWorkload,
    delta: float = 0.5,
    seed: int = 0,
    tracer=None,
) -> ExperimentRow:
    """S4: serve a skewed fleet under one scheduling policy + round budget.

    The headline columns are ``tail_latency`` (worst batch wait, in ticks)
    and ``max_backlog`` (largest end-of-tick queued-update backlog) against
    the configured ``budget``; ``budget_ok`` asserts that the folded tick
    rounds never exceeded the budget, and ``conserved`` that every submitted
    update was applied exactly once — the two contracts the property suite
    checks in anger.  The fleet is rebuild-free by construction, so the
    budget cap is exact (see :mod:`repro.stream.scheduler`).
    """
    traces = workload.materialize()
    submitted = {trace.name: trace.num_updates for trace in traces}
    with StreamEngine(
        delta=delta,
        seed=seed,
        planner=workload.make_planner(),
        round_budget=workload.round_budget,
        tracer=tracer,
    ) as engine:
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial)
            engine.submit_all(trace.name, trace.batches)
        # Deferred tenants stretch the drain well past the batch count;
        # deficit-round-robin also needs warm-up ticks while credit accrues.
        max_ticks = 40 * max(len(trace.batches) for trace in traces) + 100
        summary = engine.run_until_drained(max_ticks=max_ticks)
        engine.verify()

        applied = {
            name: engine.tenant_summary(name).total_updates
            for name in engine.tenant_names()
        }
        conserved = applied == submitted
        budget = workload.round_budget
        budget_ok = budget is None or all(
            tick.rounds <= budget for tick in engine.ticks
        )
        latencies = [
            latency
            for per_tenant in batch_latencies(engine.ticks).values()
            for latency in per_tenant
        ]
        if not latencies:
            raise GraphError("scheduler run served no batches")

        snapshots = {
            name: engine.tenant_service(name).dynamic.snapshot()
            for name in engine.tenant_names()
        }
        bounds = {
            name: arboricity_bounds(snapshot, exact_density=False)
            for name, snapshot in snapshots.items()
        }
        proper = all(
            engine.tenant_service(name).coloring.is_proper()
            for name in engine.tenant_names()
        )
        rounds_parallel = summary.total_rounds
        rounds_sequential = sum(tick.sequential_rounds for tick in engine.ticks)

        row = ExperimentRow(
            workload=workload.describe(),
            num_vertices=sum(s.num_vertices for s in snapshots.values()),
            num_edges=sum(s.num_edges for s in snapshots.values()),
            arboricity_lower=max(b.lower for b in bounds.values()),
            arboricity_upper=max(b.upper for b in bounds.values()),
        )
        row.metrics.update(
            {
                "tenants": float(workload.num_tenants),
                "policy": workload.policy,
                "budget": "∞" if budget is None else float(budget),
                "ticks": float(len(engine.ticks)),
                "updates": float(summary.total_updates),
                "served": float(summary.total_served),
                "deferred": float(summary.total_deferred),
                "max_backlog": float(summary.max_backlog_updates),
                "tail_latency": float(max(latencies)),
                "mean_latency": sum(latencies) / len(latencies),
                "rounds_parallel": float(rounds_parallel),
                "rounds_sequential": float(rounds_sequential),
                "budget_ok": 1.0 if budget_ok else 0.0,
                "conserved": 1.0 if conserved else 0.0,
                "proper": 1.0 if proper else 0.0,
                "wall_clock_s": summary.total_wall_clock_s,
            }
        )
    return row

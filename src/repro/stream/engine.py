"""Multi-tenant streaming: N independent services multiplexed on one engine.

A production deployment rarely serves one dynamic graph.  :class:`StreamEngine`
hosts N independent :class:`~repro.stream.service.StreamingService` *tenants*
on one shared :class:`~repro.mpc.cluster.MPCCluster` ledger:

* **Isolation.**  Every tenant owns its full maintained state (dynamic
  graph, orientation, coloring), a *persistent* sub-ledger — forked from the
  shared cluster but provisioned for the tenant's own input
  (``fork(config=MPCConfig.for_graph(initial))``) — and a seed derived from
  its registration position (:func:`repro.engine.derive_seed`).  A tenant
  therefore behaves byte-for-byte like a standalone service on its own
  cluster with the same seed: identical per-batch reports, identical heads
  and colors (pinned by ``tests/stream/test_stream_engine.py``).

* **Ticks.**  Batches are queued per tenant with :meth:`StreamEngine.submit`;
  :meth:`StreamEngine.tick` serves the head batch of each *scheduled* tenant,
  one tenant after another on the calling thread.  The tick is one parallel
  superstep in the simulated model, not on the host: the shared ledger
  charges it by folding the tenants' tick-delta sub-ledgers with
  ``merge_parallel`` — **aggregate rounds = max over the tenants served in
  the tick**, volume = sum, memory = sum of tenant peaks — while tenant
  registration (the initial orientation build) folds sequentially, since
  tenants register one after another.  See the charging-model docstring in
  :mod:`repro.mpc.cluster`.

* **Scheduling.**  Which backlogged tenants a tick serves is the
  :class:`~repro.stream.scheduler.TickPlanner`'s decision (default:
  ``serve-all``, every backlogged tenant — the original behaviour).  Under a
  ``round_budget`` the planner admits tenants while the sum of their
  estimated per-batch round costs fits the budget; everyone else is
  *deferred* with their batches carried over intact, and a tick that serves
  nobody (budget exhausted, or no deficit-round-robin tenant eligible yet)
  folds an empty superstep — zero rounds charged.  Per-tenant
  ``add_tenant(..., weight=w)`` gives proportional budget shares under
  ``deficit-round-robin`` (credit accrues ``quantum × weight`` per tick);
  the no-starvation bound holds at every weight.  Scheduling never changes
  *what* a served tenant computes, only *when*: a tenant served under any
  policy stays byte-identical to its standalone run.

* **Memory quotas.**  ``add_tenant(..., memory_quota=Q)`` caps the tenant's
  persistent sub-ledger at ``Q`` words of global memory.  Before a batch is
  applied, the engine projects the post-batch graph size
  (:meth:`~repro.stream.service.StreamingService.projected_memory_words`);
  a projected breach raises :class:`~repro.errors.QuotaExceededError`
  *without touching the tenant* — the batch stays queued, the tenant is
  **quarantined** (never scheduled again, state frozen consistent), sibling
  tenants are served normally, and the tick is recorded as partial.  A
  fold-time ``check_quota`` backstop catches growth the projection cannot
  see (rebuild working sets); in that rarer path the triggering batch has
  already been applied, so the quarantined tenant is consistent but the
  batch is consumed.  Quarantine is not a death sentence:
  :meth:`StreamEngine.lift_quarantine` re-admits the tenant (optionally with
  a raised quota) and it resumes byte-identical to a never-quarantined run
  of its remaining trace.

* **Reporting.**  Per-tenant :class:`~repro.stream.updates.StreamSummary`
  objects are the tenants' own (:meth:`tenant_summary`); the engine-level
  :attr:`StreamEngine.summary` aggregates each tick into one synthetic
  :class:`~repro.stream.updates.BatchReport` row — counters sum across the
  tenants served, structure metrics (live edges, colors) sum across *all*
  tenants, outdegree/cap take the max, and ``rounds`` is the tick's
  max-over-tenants charge from the shared ledger.

* **Residency.**  The engine can run as a long-lived service instead of a
  drive-by loop: :meth:`StreamEngine.start` spawns a background ticker thread
  that drains schedulable backlogs on a configurable interval (woken early by
  every :meth:`submit`), while callers submit batches, add tenants, lift
  quarantines, and retire tenants concurrently — one engine-wide re-entrant
  lock makes every public entry point atomic against an in-flight tick.
  Tenants move through an explicit lifecycle state machine with typed
  transitions (:class:`TenantState`; illegal moves raise
  :class:`~repro.errors.LifecycleError`)::

                   add_tenant()
      provisioning ────────────▶ active ─────────────────▶ retired
                                  │   ▲                       ▲
                     quota breach │   │ next served batch     │ retire_tenant()
                                  ▼   │                       │
                           quarantined ──▶ lifted ────────────┘
                                lift_quarantine()

  (``lifted`` can also re-enter ``quarantined`` on a fresh breach before its
  first post-lift service; ``retired`` is terminal and reachable from every
  live state.)

* **Checkpoint/restore.**  :meth:`StreamEngine.checkpoint` serializes the
  complete engine state — every tenant's journal/base columns, orientation
  heads, coloring column, λ̂, sub-ledger, queue, lifecycle state, plus the
  shared ledger, planner credits and tick history — to a versioned,
  checksummed snapshot file (:mod:`repro.stream.checkpoint`), and
  :meth:`StreamEngine.restore` rebuilds a crashed or restarted engine from it
  **byte-identically**: same heads, colors, rounds and schedule as an engine
  that never stopped, verified on every restore by fingerprint equality.

The CLI front-end is ``python -m repro stream-multi``; experiment S3 sweeps
tenant counts through :func:`repro.experiments.streaming.run_multi_tenant_experiment`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from repro.engine import derive_seed
from repro.errors import GraphError, LifecycleError, QuotaExceededError, ReproError
from repro.obs.tracer import NULL_TRACER
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.stream.scheduler import (
    ServeAllPlanner,
    TenantLoad,
    TickPlanner,
    estimate_batch_rounds,
    make_planner,
)
from repro.stream.service import StreamingService, graph_memory_words
from repro.stream.updates import BatchReport, StreamSummary, UpdateBatch


class TenantState(Enum):
    """Lifecycle states of a hosted tenant (see the module diagram)."""

    PROVISIONING = "provisioning"
    ACTIVE = "active"
    QUARANTINED = "quarantined"
    LIFTED = "lifted"
    RETIRED = "retired"


#: The allowed transitions; anything else raises :class:`LifecycleError`.
_LIFECYCLE = {
    TenantState.PROVISIONING: {TenantState.ACTIVE, TenantState.RETIRED},
    TenantState.ACTIVE: {TenantState.QUARANTINED, TenantState.RETIRED},
    TenantState.QUARANTINED: {TenantState.LIFTED, TenantState.RETIRED},
    TenantState.LIFTED: {
        TenantState.ACTIVE,
        TenantState.QUARANTINED,
        TenantState.RETIRED,
    },
    TenantState.RETIRED: set(),
}

#: States the planner may schedule (a lifted tenant re-activates on its first
#: post-lift service; see :meth:`StreamEngine.tick`).
_SCHEDULABLE = (TenantState.ACTIVE, TenantState.LIFTED)


def _is_count(value) -> bool:
    """Whether ``value`` is an integer ≥ 1 (``bool`` is not an integer here)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass
class _Tenant:
    """Book-keeping for one hosted tenant."""

    name: str
    index: int
    service: StreamingService | None
    weight: int = 1
    """Proportional budget share under weighted-fair policies (DRR)."""
    queue: deque = field(default_factory=deque)
    round_mark: int = 0
    """Rounds of the tenant's sub-ledger already folded into the shared one."""
    quarantine: QuotaExceededError | None = None
    """Set once the tenant breached its quota; quarantined tenants keep their
    queue intact but are never scheduled again."""
    state: TenantState = TenantState.PROVISIONING
    """Lifecycle position; every change goes through the transition table."""
    final_summary: StreamSummary | None = None
    """Snapshot of the per-batch summary taken at retirement (the service
    itself is closed and dropped when a tenant retires)."""
    queued_updates: int = field(init=False)
    """Updates across the queued batches, kept running wherever the queue
    changes; derived from the queue at construction, so a checkpoint never
    stores it."""

    def __post_init__(self) -> None:
        self.queued_updates = sum(len(batch) for batch in self.queue)


@dataclass(frozen=True)
class TickReport:
    """What one engine tick did: one batch per served tenant, one parallel fold."""

    tick_index: int
    reports: dict[str, BatchReport]
    rounds: int
    """Rounds charged on the shared ledger for this tick (max over tenants)."""
    planned: tuple[str, ...] = ()
    """Tenants the policy scheduled this tick, in policy order."""
    deferred: tuple[str, ...] = ()
    """Backlogged tenants the policy (or the budget) pushed to a later tick."""
    quota_breached: tuple[str, ...] = ()
    """Tenants quarantined this tick for breaching their memory quota."""
    backlog_updates: int = 0
    """Queued updates across schedulable tenants at the end of the tick."""
    round_budget: int | None = None
    planned_rounds: int = 0
    """Sum of the planned tenants' estimated costs (≤ ``round_budget`` unless
    a single head-of-line batch alone exceeds it — the progress guarantee)."""
    wall_clock_s: float = field(default=0.0, compare=False)
    """Host wall-clock of the tick (monotonic; populated with tracing off
    too).  Excluded from equality — it describes this run's hardware, not
    the simulated outcome."""

    @property
    def num_tenants_served(self) -> int:
        return len(self.reports)

    @property
    def num_tenants_deferred(self) -> int:
        return len(self.deferred)

    @property
    def sequential_rounds(self) -> int:
        """What charging the served tenants one after another would have cost.

        The regression quantity: ``rounds`` (the parallel fold) must never
        exceed this, and is strictly below it whenever two served tenants
        both charged rounds in the tick.
        """
        return sum(report.rounds for report in self.reports.values())


class StreamEngine:
    """Hosts N independent streaming tenants on one shared ledger.

    Parameters
    ----------
    delta:
        Memory exponent used for the shared cluster and every per-tenant
        sub-ledger (when none is supplied).
    seed:
        Base seed; tenant ``i`` (registration order) receives
        ``derive_seed(seed, i)`` unless :meth:`add_tenant` pins one.
    cluster:
        Optional shared aggregate ledger; created from the first tenant's
        input when omitted (its provisioning only matters for the fold
        arithmetic, which is config-free).
    planner:
        Tick scheduling policy — a :class:`~repro.stream.scheduler.TickPlanner`
        instance or a policy name (``serve-all`` / ``top-k-backlog`` /
        ``deficit-round-robin``).  Defaults to ``serve-all``, the original
        every-backlogged-tenant behaviour.
    round_budget:
        Per-tick work budget: the planner admits tenants while the sum of
        their estimated per-batch round costs fits it (``None`` = unbounded).
        See :mod:`repro.stream.scheduler` for the admission contract.
    tracer:
        Optional :class:`repro.obs.Tracer`.  Instruments the shared ledger
        and every tenant service, and wraps each tick in a span annotated
        with the planner's decisions (who was planned, deferred,
        quarantined, and why the budget said so).
        Observation only: outcomes are byte-identical with tracing on or off.
    """

    def __init__(
        self,
        delta: float = 0.5,
        seed: int = 0,
        cluster: MPCCluster | None = None,
        planner: TickPlanner | str | None = None,
        round_budget: int | None = None,
        tracer=None,
    ) -> None:
        self._delta = delta
        self._seed = seed
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.cluster = cluster
        if isinstance(planner, str):
            planner = make_planner(planner)
        self.planner = planner if planner is not None else ServeAllPlanner()
        if round_budget is not None and round_budget < 1:
            raise GraphError("round_budget must be at least 1 (or None to disable)")
        self.round_budget = round_budget
        self._tenants: dict[str, _Tenant] = {}
        self.summary = StreamSummary()
        self.ticks: list[TickReport] = []
        # Residency: one re-entrant lock serializes every public entry point
        # against the background ticker, so checkpoint/lifecycle/submit calls
        # always land on a tick boundary.
        self._lock = threading.RLock()
        self._closed = False
        self._ticker: threading.Thread | None = None
        self._wake = threading.Event()
        self._stop_event = threading.Event()
        self.tick_errors: deque = deque(maxlen=64)
        """Errors the background ticker absorbed (most recent 64).  A failed
        batch stays queued (the tick contract), so the same error may repeat
        until the operator intervenes — quarantine, retire, or drop it."""
        self._ticker_error: Exception | None = None

    # ------------------------------------------------------------------ #
    # Tenant management
    # ------------------------------------------------------------------ #

    def add_tenant(
        self,
        name: str,
        initial: Graph,
        seed: int | None = None,
        memory_quota: int | None = None,
        weight: int = 1,
    ) -> StreamingService:
        """Register a tenant and build its initial structures.

        The tenant's sub-ledger is provisioned for ``initial`` (so its
        per-batch charges match a standalone service exactly), and the
        construction rounds — the initial Theorem 1.1 orientation build —
        fold into the shared ledger immediately, sequentially: registrations
        happen one after another, not in a tick.  Returns the tenant's
        service (useful for direct inspection; mutate it only through the
        engine).

        ``seed`` is the tenant's orientation seed (derived from the engine
        seed and the registration position when omitted); every other
        maintenance setting is the :class:`StreamingService` default.

        ``memory_quota`` (``None``, or an integer ≥ 1) caps the tenant's
        sub-ledger at that many words of global memory (see the module
        docstring).  Registration itself must fit: a quota the initial graph
        (or the construction build's peak) already exceeds raises
        :class:`~repro.errors.QuotaExceededError`.  A rejected registration
        — a bad argument, a quota breach or any failure while building the
        tenant — leaves the tenant unregistered and the engine untouched.

        ``weight`` (integer ≥ 1, default 1) is the tenant's proportional
        share of the tick round budget under weighted-fair policies: with
        ``deficit-round-robin`` the tenant accrues ``quantum × weight``
        round credits per backlogged tick, so a weight-3 tenant is served
        about three times as often as a weight-1 sibling on a congested
        fleet.  Policies without a fairness notion ignore it.

        Safe while the engine is resident: registration takes the engine
        lock, so it lands between ticks; the new tenant enters the lifecycle
        as ``provisioning`` and is ``active`` (schedulable) when this
        returns.
        """
        with self._lock:
            return self._add_tenant_locked(
                name,
                initial,
                seed=seed,
                memory_quota=memory_quota,
                weight=weight,
            )

    def _add_tenant_locked(
        self,
        name: str,
        initial: Graph,
        seed: int | None = None,
        memory_quota: int | None = None,
        weight: int = 1,
    ) -> StreamingService:
        if self._closed:
            raise GraphError("engine is closed")
        if name in self._tenants:
            raise GraphError(f"tenant {name!r} is already registered")
        if not _is_count(weight):
            raise GraphError(
                f"tenant weight must be an integer >= 1, got {weight!r}"
            )
        if memory_quota is not None and not _is_count(memory_quota):
            raise GraphError(
                f"tenant memory_quota must be None or an integer >= 1, "
                f"got {memory_quota!r}"
            )
        initial_words = graph_memory_words(initial.num_vertices, initial.num_edges)
        if memory_quota is not None and initial_words > memory_quota:
            raise QuotaExceededError(
                initial_words, memory_quota, scope=f"tenant {name!r} initial graph"
            )
        tenant_config = MPCConfig.for_graph(initial, delta=self._delta)
        created_cluster = self.cluster is None
        if created_cluster:
            self.cluster = MPCCluster(tenant_config)
        # Nothing is folded into the engine before the construction build's
        # memory peak passes the quota; on any failure up to there a cluster
        # provisioned from the rejected tenant is rolled back, which leaves
        # the engine untouched.
        try:
            if self.tracer.enabled:
                self.cluster.instrument(self.tracer)
            ledger = self.cluster.fork(config=tenant_config, memory_quota=memory_quota)
            tenant_seed = (
                seed if seed is not None else derive_seed(self._seed, len(self._tenants))
            )
            service = StreamingService(
                initial,
                delta=self._delta,
                seed=tenant_seed,
                cluster=ledger,
                tracer=self.tracer if self.tracer.enabled else None,
            )
            ledger.check_quota()
        except BaseException:
            if created_cluster:
                self.cluster = None
            raise
        # A one-branch fold appends the construction rounds sequentially;
        # merge_parallel never mutates its branches, so the ledger's own
        # stats can be passed as-is (since() is only needed for tick deltas).
        self.cluster.merge_parallel([ledger.stats])
        tenant = _Tenant(
            name=name,
            index=len(self._tenants),
            service=service,
            weight=weight,
            round_mark=ledger.stats.num_rounds,
        )
        self._tenants[name] = tenant
        self.tracer.metrics.inc("engine.lifecycle.provisioning")
        self._transition(tenant, TenantState.ACTIVE)
        # Co-residency holds from registration, not from the first tick: the
        # one-branch fold above maxes memory, so re-observe the fleet-wide
        # sum of tenant peaks (what every tick fold maintains thereafter).
        live = [t for t in self._tenants.values() if t.service is not None]
        self.cluster.stats.observe_memory(
            sum(t.service.cluster.stats.peak_machine_memory_words for t in live),
            sum(t.service.cluster.stats.peak_global_memory_words for t in live),
        )
        return service

    def _transition(self, tenant: _Tenant, to: TenantState) -> None:
        """Move a tenant along the lifecycle graph; illegal moves raise.

        Every transition emits a per-state counter and a zero-width tracer
        span carrying the edge (``from -> to``), so a fleet's lifecycle
        history is reconstructible from the obs layer alone.
        """
        if to not in _LIFECYCLE[tenant.state]:
            raise LifecycleError(tenant.name, tenant.state.value, to.value)
        with self.tracer.span(
            "lifecycle",
            cat="engine",
            tenant=tenant.name,
            transition=f"{tenant.state.value} -> {to.value}",
        ):
            tenant.state = to
        self.tracer.metrics.inc(f"engine.lifecycle.{to.value}")

    def tenant_state(self, name: str) -> TenantState:
        """The tenant's current lifecycle state."""
        with self._lock:
            return self._tenant(name).state

    def retire_tenant(self, name: str) -> StreamSummary:
        """Remove a tenant from service; terminal and irreversible.

        Allowed from every live state (an operator retires quarantined
        tenants too); retiring twice raises
        :class:`~repro.errors.LifecycleError`.  The tenant's queued batches
        are dropped, its service is released, and its rounds stay in the
        shared ledger: the work happened.  Returns the tenant's final
        per-batch summary.  The name stays registered (and un-reusable) so
        seed derivation for future tenants is unaffected.
        """
        with self._lock:
            tenant = self._tenant(name)
            self._transition(tenant, TenantState.RETIRED)
            dropped = len(tenant.queue)
            tenant.queue.clear()
            tenant.queued_updates = 0
            tenant.final_summary = tenant.service.summary
            tenant.service = None
            metrics = self.tracer.metrics
            if metrics.enabled:
                metrics.inc("engine.tenants_retired")
                if dropped:
                    metrics.inc("engine.retired_dropped_batches", dropped)
            return tenant.final_summary

    def tenant_names(self) -> tuple[str, ...]:
        """Registered tenants, in registration order (retired included)."""
        return tuple(self._tenants)

    def tenant_service(self, name: str) -> StreamingService:
        """The tenant's service (raises :class:`GraphError` for unknown or
        retired names — a retired tenant's service no longer exists)."""
        tenant = self._tenant(name)
        if tenant.service is None:
            raise GraphError(f"tenant {name!r} is retired; its service is gone")
        return tenant.service

    def tenant_summary(self, name: str) -> StreamSummary:
        """The tenant's own per-batch summary (identical to a standalone run).

        For a retired tenant this is the summary frozen at retirement.
        """
        tenant = self._tenant(name)
        if tenant.service is None:
            return tenant.final_summary
        return tenant.service.summary

    def quarantined(self) -> dict[str, QuotaExceededError]:
        """Quarantined tenants and the quota breach that sidelined each."""
        return {
            tenant.name: tenant.quarantine
            for tenant in self._tenants.values()
            if tenant.state is TenantState.QUARANTINED
        }

    def lift_quarantine(
        self, name: str, new_quota: int | None = None
    ) -> QuotaExceededError:
        """Re-admit a quarantined tenant after operator intervention.

        ``new_quota`` replaces the tenant's sub-ledger quota (``None`` keeps
        the current one — legitimate when the operator freed memory another
        way).  Quarantine froze the tenant consistent with its queue intact,
        so the lifted tenant simply resumes: its remaining trace applies
        byte-identically to a run that was never quarantined.

        The lift must actually fit: if the tenant's recorded global-memory
        peak already exceeds the effective quota (the fold-time breach path
        — the triggering batch was applied before the breach was seen), the
        next fold would re-quarantine it immediately, so the lift raises
        :class:`~repro.errors.QuotaExceededError` and leaves the tenant
        quarantined with nothing changed.  Returns the breach that had
        sidelined the tenant (for operator logs).
        """
        with self._lock:
            tenant = self._tenant(name)
            if tenant.state is TenantState.RETIRED:
                # Typed: retirement is terminal, there is nothing to lift.
                raise LifecycleError(
                    name, TenantState.RETIRED.value, TenantState.LIFTED.value
                )
            if tenant.quarantine is None:
                raise GraphError(f"tenant {name!r} is not quarantined")
            if new_quota is not None and not _is_count(new_quota):
                raise GraphError(
                    f"new_quota must be an integer of at least 1 word "
                    f"(or None to keep), got {new_quota!r}"
                )
            cluster = tenant.service.cluster
            effective = new_quota if new_quota is not None else cluster.memory_quota
            peak = cluster.stats.peak_global_memory_words
            if effective is not None and peak > effective:
                raise QuotaExceededError(
                    peak, effective, scope=f"lifting quarantine on tenant {name!r}"
                )
            self._transition(tenant, TenantState.LIFTED)
            cluster.memory_quota = effective
            breach = tenant.quarantine
            tenant.quarantine = None
            self.tracer.metrics.inc("engine.quota_lifts")
            if self._ticker is not None:
                self._wake.set()
            return breach

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise GraphError(
                f"unknown tenant {name!r}; registered: {sorted(self._tenants)}"
            )
        return tenant

    # ------------------------------------------------------------------ #
    # Batch intake and ticks
    # ------------------------------------------------------------------ #

    def submit(self, name: str, batch: UpdateBatch) -> None:
        """Queue one batch for a tenant (resolved by a later :meth:`tick`).

        Thread-safe, and wakes the background ticker when one is running.
        Submitting to a retired tenant raises :class:`GraphError`; submitting
        to a quarantined one is allowed (the queue survives quarantine).
        """
        with self._lock:
            tenant = self._tenant(name)
            if tenant.state is TenantState.RETIRED:
                raise GraphError(f"tenant {name!r} is retired; cannot submit")
            tenant.queue.append(batch)
            tenant.queued_updates += len(batch)
        if self._ticker is not None:
            self._wake.set()

    def submit_all(self, name: str, batches) -> None:
        """Queue a sequence of batches for a tenant, in order (thread-safe)."""
        with self._lock:
            tenant = self._tenant(name)
            if tenant.state is TenantState.RETIRED:
                raise GraphError(f"tenant {name!r} is retired; cannot submit")
            batches = tuple(batches)
            tenant.queue.extend(batches)
            tenant.queued_updates += sum(map(len, batches))
        if self._ticker is not None:
            self._wake.set()

    def pending(self, name: str | None = None) -> int:
        """Queued batches for one tenant, or across all tenants."""
        if name is not None:
            return len(self._tenant(name).queue)
        return sum(len(tenant.queue) for tenant in self._tenants.values())

    def _schedulable_pending(self) -> int:
        """Queued batches across tenants the planner may still serve."""
        return sum(
            len(tenant.queue)
            for tenant in self._tenants.values()
            if tenant.state in _SCHEDULABLE
        )

    def _tenant_loads(self, candidates: "list[_Tenant]") -> list[TenantLoad]:
        """Planner views of the backlogged tenants (estimates use each
        tenant's own provisioning — that is what its ledger charges)."""
        loads = []
        for tenant in candidates:
            head = tenant.queue[0]
            loads.append(
                TenantLoad(
                    name=tenant.name,
                    index=tenant.index,
                    backlog_batches=len(tenant.queue),
                    backlog_updates=tenant.queued_updates,
                    head_updates=len(head),
                    estimated_rounds=estimate_batch_rounds(
                        len(head),
                        tenant.service.cluster.words_per_machine,
                        tenant.service.dynamic.min_compaction_journal,
                    ),
                    weight=tenant.weight,
                )
            )
        return loads

    def tick(self) -> TickReport | None:
        """Serve the scheduled tenants' head batches as one superstep.

        The planner picks which backlogged tenants the tick serves (under
        ``round_budget``); the rest are deferred with their batches carried
        over intact.  Served tenants run one after another on the calling
        thread; their tick-delta sub-ledgers fold into the shared ledger as
        parallel supersteps (rounds = max over tenants — zero when the tick
        served nobody).  Returns the tick report, or ``None`` when no
        schedulable tenant has queued batches.

        A tenant whose batch is illegal raises (like a standalone service
        would) *after* the tick is made consistent: batches are peeked, not
        popped, until they are known to have applied — a failed tenant's
        batch stays queued and its state is untouched (per-batch atomicity
        is the service's contract) — and the rounds the successful siblings
        charged are folded and recorded as a (partial) tick before the
        exception propagates, so nothing misattributes to a later tick.
        Quota breaches follow the same shape: a scheduled tenant whose
        projected post-batch size (or fold-time peak) exceeds its quota is
        quarantined, the tick completes for its siblings, and the
        :class:`~repro.errors.QuotaExceededError` propagates afterwards.

        Holds the engine lock for the whole tick: lifecycle calls, submits
        and checkpoints issued concurrently land on tick boundaries.
        """
        with self._lock:
            if self._closed:
                raise GraphError("engine is closed")
            return self._tick_locked()

    def _tick_locked(self) -> TickReport | None:
        started = time.perf_counter()
        candidates = [
            tenant
            for tenant in self._tenants.values()
            if tenant.queue and tenant.state in _SCHEDULABLE
        ]
        if not candidates:
            return None
        tracer = self.tracer
        with tracer.span(
            "tick",
            cat="engine",
            cluster=self.cluster,
            tick=len(self.ticks),
            policy=self.planner.name,
        ) as tick_span:
            loads = self._tenant_loads(candidates)
            planned_names = list(self.planner.plan(loads, self.round_budget))
            known = {tenant.name for tenant in candidates}
            if len(set(planned_names)) != len(planned_names) or not set(
                planned_names
            ).issubset(known):
                raise GraphError(
                    f"planner {self.planner!r} returned an invalid plan "
                    f"{planned_names!r} for candidates {sorted(known)}"
                )
            planned = [self._tenants[name] for name in planned_names]
            deferred = tuple(
                tenant.name for tenant in candidates if tenant.name not in set(planned_names)
            )
            estimates = {load.name: load.estimated_rounds for load in loads}
            # The planner's decision, annotated on the tick span: who got
            # scheduled, who was pushed back, and the budget arithmetic
            # behind it (estimates are the admission inputs).
            tick_span.annotate(
                planned=list(planned_names),
                deferred=list(deferred),
                round_budget=self.round_budget,
                planned_rounds=sum(estimates[name] for name in planned_names),
                estimates={load.name: load.estimated_rounds for load in loads},
            )

            # Quota admission: project each scheduled tenant's post-batch size
            # before any state or ledger is touched, so a breaching batch stays
            # queued intact and the tenant is quarantined consistent.
            quota_error: QuotaExceededError | None = None
            breached: list[str] = []
            admitted: list[_Tenant] = []
            for tenant in planned:
                quota = tenant.service.cluster.memory_quota
                if quota is not None:
                    projected = tenant.service.projected_memory_words(tenant.queue[0])
                    if projected > quota:
                        exc = QuotaExceededError(
                            projected, quota, scope=f"tenant {tenant.name!r}"
                        )
                        tenant.quarantine = exc
                        self._transition(tenant, TenantState.QUARANTINED)
                        breached.append(tenant.name)
                        if quota_error is None:
                            quota_error = exc
                        continue
                admitted.append(tenant)

            applied_before = {
                tenant.name: tenant.service.summary.num_batches for tenant in admitted
            }
            error: BaseException | None = None
            try:
                for tenant in admitted:
                    with tracer.span("tenant", cat="engine", tenant=tenant.name):
                        tenant.service.apply(tenant.queue[0])
            except BaseException as exc:  # fold the partial tick, then re-raise
                error = exc
            applied = [
                tenant
                for tenant in admitted
                if tenant.service.summary.num_batches > applied_before[tenant.name]
            ]
            for tenant in applied:
                tenant.queued_updates -= len(tenant.queue.popleft())
                if tenant.state is TenantState.LIFTED:
                    # First successful post-lift service: fully re-admitted.
                    self._transition(tenant, TenantState.ACTIVE)

            # Fold-time backstop: a rebuild's working set can outgrow the quota
            # even though the projected graph size fit.  The batch is already
            # applied (and consumed) in this path; the tenant stays consistent
            # and is quarantined from here on.
            for tenant in applied:
                try:
                    tenant.service.cluster.check_quota()
                except QuotaExceededError as exc:
                    tenant.quarantine = exc
                    self._transition(tenant, TenantState.QUARANTINED)
                    breached.append(tenant.name)
                    if quota_error is None:
                        quota_error = exc

            # Fold every live tenant — not just the served ones.  An idle
            # tenant's delta has zero rounds (its mark is current), so it
            # cannot stretch the superstep, but its lifetime memory peaks
            # still sum into the fold: co-resident tenants occupy the fleet
            # whether or not they had a batch this tick (the charging model
            # in repro.mpc.cluster).  Retired tenants left the fleet; a tick
            # that served nobody folds an empty superstep: zero rounds.
            deltas = []
            for tenant in self._tenants.values():
                if tenant.service is None:
                    continue
                stats = tenant.service.cluster.stats
                deltas.append(stats.since(tenant.round_mark))
                tenant.round_mark = stats.num_rounds
            rounds = self.cluster.merge_parallel(deltas)

            report_by_name = {
                tenant.name: tenant.service.summary.reports[-1] for tenant in applied
            }
            backlog = sum(
                tenant.queued_updates
                for tenant in self._tenants.values()
                if tenant.state in _SCHEDULABLE
            )
            tick_span.annotate(served=list(report_by_name), quota_breached=list(breached))
            metrics = tracer.metrics
            if metrics.enabled:
                metrics.inc("engine.ticks")
                metrics.inc("engine.tenants_served", len(report_by_name))
                metrics.inc("engine.tenants_deferred", len(deferred))
                metrics.inc("engine.quota_breaches", len(breached))
                metrics.gauge("engine.backlog_updates", backlog)
            tick_report = TickReport(
                tick_index=len(self.ticks),
                reports=report_by_name,
                rounds=rounds,
                planned=tuple(planned_names),
                deferred=deferred,
                quota_breached=tuple(breached),
                backlog_updates=backlog,
                round_budget=self.round_budget,
                planned_rounds=sum(estimates[name] for name in planned_names),
                wall_clock_s=time.perf_counter() - started,
            )
            if applied or rounds or deferred or breached:
                self.ticks.append(tick_report)
                self.summary.add(self._aggregate_report(tick_report))
            # Execution errors outrank quota breaches: a KeyboardInterrupt (or a
            # sibling's GraphError) must never be swallowed by a concurrent
            # quota event — quarantine state already records the breach.
            if error is not None:
                raise error
            if quota_error is not None:
                raise quota_error
            return tick_report

    def run_until_drained(self, max_ticks: int | None = None) -> StreamSummary:
        """Tick until no schedulable batches remain; returns the summary.

        Deferred tenants are retried on every tick (scheduling guarantees
        eventual service), so the loop drains every non-quarantined queue;
        quarantined tenants' queues are left intact.  Budget-exhausted ticks
        that serve nobody still count toward ``max_ticks``.
        """
        ticks = 0
        while self._schedulable_pending():
            if max_ticks is not None and ticks >= max_ticks:
                raise GraphError(
                    f"{self._schedulable_pending()} batches still queued "
                    f"after {max_ticks} ticks"
                )
            self.tick()
            ticks += 1
        return self.summary

    def _aggregate_report(self, tick: TickReport) -> BatchReport:
        """Fold one tick's tenant reports into a single engine-level row.

        Per-batch counters sum over the tenants *served* this tick;
        structure metrics describe the whole engine — live edges, journal
        and colors sum over all tenants (disjoint graphs), outdegree and
        cap take the max.  ``rounds`` is the shared ledger's max-over-tenants
        charge, which is what makes the engine row differ from a plain sum.
        """
        reports = tick.reports.values()
        services = [
            tenant.service
            for tenant in self._tenants.values()
            if tenant.service is not None
        ]
        return BatchReport(
            batch_index=tick.tick_index,
            tenants_served=tick.num_tenants_served,
            tenants_deferred=tick.num_tenants_deferred,
            backlog_updates=tick.backlog_updates,
            quota_breaches=len(tick.quota_breached),
            num_inserts=sum(r.num_inserts for r in reports),
            num_deletes=sum(r.num_deletes for r in reports),
            conflict_groups=sum(r.conflict_groups for r in reports),
            parallel_groups=sum(r.parallel_groups for r in reports),
            proactive_flips=sum(r.proactive_flips for r in reports),
            flips=sum(r.flips for r in reports),
            recolors=sum(r.recolors for r in reports),
            rebuilds=sum(r.rebuilds for r in reports),
            compactions=sum(r.compactions for r in reports),
            rounds=tick.rounds,
            num_edges=sum(s.dynamic.num_edges for s in services),
            journal_size=sum(s.dynamic.journal_size for s in services),
            max_outdegree=max(
                (s.orientation.max_outdegree() for s in services), default=0
            ),
            outdegree_cap=max(
                (s.orientation.outdegree_cap for s in services), default=0
            ),
            num_colors=sum(s.coloring.num_colors() for s in services),
            wall_clock_s=tick.wall_clock_s,
        )

    # ------------------------------------------------------------------ #
    # Residency: the background ticker
    # ------------------------------------------------------------------ #

    def start(self, tick_interval: float = 0.05) -> None:
        """Go resident: spawn the background ticker thread.

        The ticker wakes every ``tick_interval`` seconds — or immediately on
        :meth:`submit` / :meth:`lift_quarantine` — and drains every
        schedulable backlog, one locked tick at a time.  Library errors a
        tick raises (a tenant's bad batch, a quota breach) are recorded in
        :attr:`tick_errors` instead of killing the thread; the failed batch
        stays queued per the tick contract, so the same error can repeat
        every interval until an operator quarantines, retires, or unblocks
        the tenant.  Any other exception (a planner bug, say) is recorded
        the same way, and then the ticker exits: :meth:`wait_until_drained`
        raises a :class:`GraphError` naming it.  :meth:`stop` (or
        :meth:`close`) joins the thread.  ``tick_interval`` must be a finite
        number of seconds in ``(0, threading.TIMEOUT_MAX]``; anything else
        raises :class:`GraphError` before a thread starts.
        """
        if (
            not isinstance(tick_interval, (int, float))
            or isinstance(tick_interval, bool)
            or not 0 < tick_interval <= threading.TIMEOUT_MAX
        ):
            # NaN would hot-spin the idle ticker, and an interval past
            # TIMEOUT_MAX kills it inside Event.wait, outside its error net.
            raise GraphError(
                f"tick_interval must be positive seconds, at most "
                f"threading.TIMEOUT_MAX ({threading.TIMEOUT_MAX}), got {tick_interval!r}"
            )
        with self._lock:
            if self._closed:
                raise GraphError("engine is closed")
            if self._ticker is not None and self._ticker.is_alive():
                raise GraphError("engine ticker is already running")
            self._stop_event = threading.Event()
            self._wake = threading.Event()
            self._ticker_error = None
            self._ticker = threading.Thread(
                target=self._ticker_loop,
                args=(tick_interval,),
                name="stream-engine-ticker",
                daemon=True,
            )
            self._ticker.start()
        self.tracer.metrics.inc("engine.ticker_starts")

    @property
    def running(self) -> bool:
        """Whether the background ticker thread is alive."""
        ticker = self._ticker
        return ticker is not None and ticker.is_alive()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop and join the background ticker (no-op when not running)."""
        ticker = self._ticker
        if ticker is None:
            return
        self._stop_event.set()
        self._wake.set()
        ticker.join(timeout)
        if ticker.is_alive():  # pragma: no cover - only on a wedged tick
            raise GraphError("engine ticker failed to stop within the timeout")
        self._ticker = None

    def wait_until_drained(self, timeout: float = 30.0) -> StreamSummary:
        """Block until no schedulable batches remain (resident engines).

        Polls under the lock, nudging the ticker awake; raises
        :class:`GraphError` if backlog remains at the deadline — including
        the livelock case where a failing head batch keeps its queue
        non-empty (inspect :attr:`tick_errors` then) — or as soon as the
        ticker is found dead, naming the error that stopped it.
        """
        self._require_ticker()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._schedulable_pending():
                    return self.summary
            self._require_ticker()
            self._wake.set()
            time.sleep(0.005)
        raise GraphError(
            f"{self._schedulable_pending()} batches still queued after "
            f"{timeout:.1f}s (recent tick errors: {len(self.tick_errors)})"
        )

    def _require_ticker(self) -> None:
        """Raise unless the ticker is alive, naming what stopped it."""
        if self.running:
            return
        error = self._ticker_error
        if error is not None:
            raise GraphError(
                f"engine ticker stopped on an unexpected error: {error!r}"
            ) from error
        raise GraphError("engine ticker is not running; call start() first")

    def _ticker_loop(self, tick_interval: float) -> None:
        while not self._stop_event.is_set():
            self._wake.wait(timeout=tick_interval)
            if self._stop_event.is_set():
                return
            self._wake.clear()
            while not self._stop_event.is_set():
                with self._lock:
                    if self._closed or not self._schedulable_pending():
                        break
                    try:
                        self._tick_locked()
                    except Exception as exc:
                        self.tick_errors.append(exc)
                        self.tracer.metrics.inc("engine.ticker_errors")
                        if not isinstance(exc, ReproError):
                            # A defect, not a bad batch: stop ticking rather
                            # than retry on state nobody vouches for.
                            self._ticker_error = exc
                            return
                        # The failed batch stays queued; back off to the next
                        # wake/interval instead of hot-spinning on it.
                        break

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #

    def checkpoint(self, path) -> dict:
        """Write a versioned, checksummed snapshot of the complete engine state.

        Takes the engine lock, so a checkpoint issued while the resident
        ticker is mid-tick waits for the tick boundary — snapshots are always
        tick-consistent.  Returns the fingerprint recorded in the snapshot
        (the same one :meth:`restore` re-verifies).  See
        :mod:`repro.stream.checkpoint` for the file format.
        """
        from repro.stream import checkpoint as _checkpoint

        with self._lock:
            if self._closed:
                raise GraphError("engine is closed")
            result = _checkpoint.save_engine(self, path)
        self.tracer.metrics.inc("engine.checkpoints")
        return result

    @classmethod
    def restore(cls, path, tracer=None) -> "StreamEngine":
        """Rebuild an engine from a :meth:`checkpoint` snapshot, byte-identically.

        The restored engine continues exactly where the checkpointed one
        stopped: same heads, colors, rounds, planner credits, queues,
        lifecycle states and tick history — verified against the snapshot's
        recorded fingerprint before this returns (mismatch raises
        :class:`~repro.errors.CheckpointError` and nothing leaks).
        ``tracer`` is observation only and not state.
        """
        from repro.stream import checkpoint as _checkpoint

        return _checkpoint.restore_engine(path, tracer=tracer)

    # ------------------------------------------------------------------ #
    # Invariants / lifecycle
    # ------------------------------------------------------------------ #

    def verify(self) -> None:
        """Run every tenant's invariant checks (raises on the first drift).

        The re-raised error names the failing tenant.
        """
        for tenant in self._tenants.values():
            if tenant.service is None:
                continue
            try:
                tenant.service.verify()
            except GraphError as exc:
                raise GraphError(f"tenant {tenant.name!r}: {exc}") from exc

    def close(self) -> None:
        """Stop the ticker and refuse further calls.

        Idempotent, and safe with a live ticker: the ticker thread is stopped
        and joined first, so double close (or close-with-live-ticker) never
        leaks the thread.
        """
        if self._closed:
            return
        self.stop()
        with self._lock:
            self._closed = True

    def __enter__(self) -> "StreamEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        rounds = self.cluster.stats.num_rounds if self.cluster is not None else 0
        return (
            f"StreamEngine(tenants={len(self._tenants)}, ticks={len(self.ticks)}, "
            f"pending={self.pending()}, rounds={rounds}, "
            f"policy={self.planner.name!r}, budget={self.round_budget})"
        )

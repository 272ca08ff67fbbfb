"""Cross-tenant tick scheduling: who gets served, under what round budget.

PR 4's :class:`~repro.stream.engine.StreamEngine` served *every* backlogged
tenant on every tick.  That is the right default for small fleets, but a
production multiplexer must shape traffic: a tick has a bounded round budget
(the cluster executes only so many supersteps per scheduling quantum), and
when the fleet's demand exceeds it, somebody waits.  This module provides the
:class:`TickPlanner` interface the engine consults once per tick, plus three
policies:

* ``serve-all`` (:class:`ServeAllPlanner`, the default) — every backlogged
  tenant, in registration order.  With no round budget this is exactly the
  PR 4 behaviour.
* ``top-k-backlog`` (:class:`TopKBacklogPlanner`) — the ``K`` tenants with
  the largest queued-update backlog (ties break toward earlier registration),
  the classical "serve the longest queues" heuristic for bursty fleets.
* ``deficit-round-robin`` (:class:`DeficitRoundRobinPlanner`) — each
  backlogged tenant accrues ``quantum × weight`` round-credits per tick
  (:attr:`TenantLoad.weight`, default 1, gives weighted-fair proportional
  shares) and is served once its deficit covers its estimated cost; credits
  are spent on service and dropped when a tenant drains.  A rotating cursor
  breaks ties, so every continuously backlogged tenant is served within a
  bounded number of ticks (no starvation) regardless of how large its
  neighbours' backlogs or weights are.

**The round budget.**  A tick's ledger charge is the *max* over the served
tenants' tick deltas (the parallel fold), but the cluster's *work* for the
tick is their *sum* — the ``sequential_rounds`` quantity the S3 experiment
reports.  ``round_budget`` caps that work: the planner admits tenants, in
policy order, while the sum of their **estimated** per-batch round costs
stays within the budget; tenants that do not fit are deferred with their
batches carried over intact.  Admission is work-conserving (a tenant that
does not fit does not block a later, smaller one) with one progress
guarantee: the head tenant of the policy order is always admitted, even when
its estimate alone exceeds the budget — otherwise a single oversized batch
would livelock the fleet.  Ticks can therefore overshoot the budget only in
that documented head-of-line case (or when a quality rebuild fires, which no
estimator can see coming); in the steady no-rebuild regime the folded tick
rounds satisfy ``rounds ≤ max(estimates) ≤ sum(estimates) ≤ round_budget``.

**Cost estimates.**  :func:`estimate_batch_rounds` upper-bounds the ledger
delta of one batch that does not trigger a rebuild: delivery is
``⌈2·L/S⌉`` rounds (each update is a 2-word message; one machine can move at
most ``S`` words per round), flip repair and recoloring are one aggregation
round each, and compaction fires at most ``1 + L // min_compaction_journal``
times per batch (each occurrence needs that many fresh journal entries).
The estimate is deliberately conservative — the budget is a guarantee, not a
forecast.

Planners are deterministic: the plan is a pure function of the planner's
state and the presented loads, and all policy state (deficits, cursors)
advances only inside :meth:`TickPlanner.plan`.  Same seed + same policy ⇒
the same tick-by-tick schedule for either kernel backend, which is
what lets a served tenant stay byte-identical to its standalone run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphError

SERVE_ALL = "serve-all"
TOP_K_BACKLOG = "top-k-backlog"
DEFICIT_ROUND_ROBIN = "deficit-round-robin"

POLICIES = (SERVE_ALL, TOP_K_BACKLOG, DEFICIT_ROUND_ROBIN)

#: Aggregation rounds a batch may charge beyond delivery and compaction:
#: one ``stream:flip-repair`` round plus one ``stream:recolor`` round.
REPAIR_ROUNDS = 2


def estimate_batch_rounds(
    num_updates: int,
    words_per_machine: int,
    min_compaction_journal: int = 64,
) -> int:
    """Upper bound on the ledger delta of one rebuild-free batch.

    ``⌈2·L/S⌉`` delivery rounds + flip/recolor repair + the most compactions
    a batch of ``L`` updates can trigger.  Exact for the empty batch (0).
    """
    if num_updates <= 0:
        return 0
    if words_per_machine < 1:
        raise GraphError("words_per_machine must be at least 1")
    delivery = -(-2 * num_updates // words_per_machine)
    compactions = 1 + num_updates // max(min_compaction_journal, 1)
    return delivery + REPAIR_ROUNDS + compactions


@dataclass(frozen=True)
class TenantLoad:
    """What the planner knows about one backlogged tenant at tick time."""

    name: str
    index: int
    """Registration position (the deterministic tie-breaker)."""
    backlog_batches: int
    backlog_updates: int
    """Total updates across the tenant's queued batches (the backlog metric)."""
    head_updates: int
    """Size of the head batch — what serving the tenant this tick applies."""
    estimated_rounds: int
    """:func:`estimate_batch_rounds` of the head batch on the tenant's ledger."""
    weight: int = 1
    """Proportional share of the tick budget under weighted-fair policies: a
    weight-``w`` tenant accrues deficit-round-robin credit ``w`` times as fast
    as a weight-1 one.  Integer (credits stay exact); policies without a
    fairness notion ignore it."""


def admit_within_budget(
    ordered: "list[TenantLoad]", round_budget: int | None
) -> list[str]:
    """Cut an ordered preference list down to what the budget affords.

    Admits tenants in order while the sum of estimates stays within
    ``round_budget``; skipping is work-conserving (a later, cheaper tenant
    can still fit after an expensive one was deferred).  The head of the
    order is always admitted — the progress guarantee documented in the
    module docstring.  ``None`` disables the budget entirely.
    """
    if round_budget is None:
        return [load.name for load in ordered]
    if round_budget < 1:
        raise GraphError("round_budget must be at least 1 (or None to disable)")
    served: list[str] = []
    spent = 0
    for load in ordered:
        if served and spent + load.estimated_rounds > round_budget:
            continue
        served.append(load.name)
        spent += load.estimated_rounds
    return served


class TickPlanner:
    """Strategy interface: pick which backlogged tenants one tick serves.

    Subclasses implement :meth:`order` — a deterministic preference order
    over (a subset of) the presented loads; the shared budget admission in
    :func:`admit_within_budget` then cuts it to what the tick affords.
    Policies with internal state (deficits, cursors) may also override
    :meth:`plan` to account for what was actually admitted.
    """

    name = "abstract"

    def order(self, loads: "list[TenantLoad]") -> "list[TenantLoad]":
        raise NotImplementedError

    def plan(
        self, loads: "list[TenantLoad]", round_budget: int | None = None
    ) -> list[str]:
        """Names of the tenants to serve this tick, in policy order."""
        return admit_within_budget(self.order(loads), round_budget)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot: policy name, constructor options, and
        mutable scheduling state (the "planner credits" a checkpoint must
        carry for the restored schedule to continue byte-identically).
        """
        return {"policy": self.name, "options": {}, "state": {}}

    def load_state(self, state: dict) -> None:
        """Restore the mutable part of a :meth:`state_dict` snapshot."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(policy={self.name!r})"


class ServeAllPlanner(TickPlanner):
    """Every backlogged tenant, in registration order (the PR 4 behaviour)."""

    name = SERVE_ALL

    def order(self, loads: "list[TenantLoad]") -> "list[TenantLoad]":
        return sorted(loads, key=lambda load: load.index)


class TopKBacklogPlanner(TickPlanner):
    """The ``K`` tenants with the largest queued-update backlog."""

    name = TOP_K_BACKLOG

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise GraphError("top-k-backlog needs k >= 1")
        self.k = k

    def order(self, loads: "list[TenantLoad]") -> "list[TenantLoad]":
        ranked = sorted(loads, key=lambda load: (-load.backlog_updates, load.index))
        return ranked[: self.k]

    def state_dict(self) -> dict:
        return {"policy": self.name, "options": {"k": self.k}, "state": {}}


class DeficitRoundRobinPlanner(TickPlanner):
    """Deficit round-robin: round-credit accrual with a rotating cursor.

    Every tick, each backlogged tenant's deficit grows by
    ``quantum × weight`` round credits (:attr:`TenantLoad.weight`, default 1
    — the weighted-fair variant: a weight-``w`` tenant accrues ``w`` times
    as fast, so over a congested stretch it receives a proportional share of
    the tick budget); a tenant is *eligible* once its deficit covers its
    estimated head-batch cost.  Eligible tenants are considered in
    round-robin order starting at the cursor, admitted under the shared
    budget, and pay their estimate out of the deficit; the cursor then
    advances past the last served tenant.  A tenant that drains its queue
    forfeits its credit (classic DRR — idle tenants must not hoard
    priority).

    No starvation, at any weight: a continuously backlogged tenant with head
    estimate ``E`` and weight ``w`` is eligible after at most
    ``⌈E/(quantum·w)⌉`` ticks and keeps its credit until served; once
    eligible it is served as soon as the cursor reaches it, which takes at
    most one full rotation.  The bound asserted by the property suite is
    ``⌈E/(quantum·w)⌉ + num_tenants`` ticks between services — weights speed
    tenants up, they never push anyone below the weight-1 floor.
    """

    name = DEFICIT_ROUND_ROBIN

    def __init__(self, quantum: int = 4) -> None:
        if quantum < 1:
            raise GraphError("deficit-round-robin needs quantum >= 1")
        self.quantum = quantum
        self._deficits: dict[str, int] = {}
        self._cursor = 0

    def deficit(self, name: str) -> int:
        """Current round-credit of a tenant (0 when unknown or drained)."""
        return self._deficits.get(name, 0)

    def plan(
        self, loads: "list[TenantLoad]", round_budget: int | None = None
    ) -> list[str]:
        active = {load.name for load in loads}
        for name in [name for name in self._deficits if name not in active]:
            del self._deficits[name]
        for load in loads:
            if load.weight < 1:
                raise GraphError(
                    f"tenant {load.name!r} has weight {load.weight}; "
                    "weights must be integers >= 1"
                )
            self._deficits[load.name] = (
                self._deficits.get(load.name, 0) + self.quantum * load.weight
            )

        rotation = max((load.index for load in loads), default=0) + 1
        ordered = sorted(
            loads, key=lambda load: ((load.index - self._cursor) % rotation)
        )
        eligible = [
            load for load in ordered
            if self._deficits[load.name] >= load.estimated_rounds
        ]
        served = admit_within_budget(eligible, round_budget)
        if served:
            by_name = {load.name: load for load in loads}
            for name in served:
                self._deficits[name] -= by_name[name].estimated_rounds
            self._cursor = (by_name[served[-1]].index + 1) % rotation
        return served

    def order(self, loads: "list[TenantLoad]") -> "list[TenantLoad]":
        raise NotImplementedError("deficit-round-robin plans statefully; use plan()")

    def state_dict(self) -> dict:
        return {
            "policy": self.name,
            "options": {"quantum": self.quantum},
            "state": {"deficits": dict(self._deficits), "cursor": self._cursor},
        }

    def load_state(self, state: dict) -> None:
        self._deficits = {str(name): int(v) for name, v in state["deficits"].items()}
        self._cursor = int(state["cursor"])


def make_planner(policy: str, **options) -> TickPlanner:
    """Build a planner from a policy name (the CLI / experiment entry point).

    ``options`` are forwarded to the policy's constructor: ``k`` for
    ``top-k-backlog``, ``quantum`` for ``deficit-round-robin``.  Unknown
    policies (and options a policy does not take) raise
    :class:`~repro.errors.GraphError`.
    """
    factories = {
        SERVE_ALL: ServeAllPlanner,
        TOP_K_BACKLOG: TopKBacklogPlanner,
        DEFICIT_ROUND_ROBIN: DeficitRoundRobinPlanner,
    }
    factory = factories.get(policy)
    if factory is None:
        raise GraphError(f"unknown scheduling policy {policy!r}; available: {POLICIES}")
    try:
        return factory(**options)
    except TypeError as exc:
        raise GraphError(f"bad options for policy {policy!r}: {exc}") from None

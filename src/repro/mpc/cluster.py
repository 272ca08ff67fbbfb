"""The MPC cluster simulator.

The simulator is the reproduction's substitute for a physical MapReduce /
Spark deployment (see DESIGN.md §2).  It models the theoretical MPC machine
exactly:

* the cluster has ``M`` machines, each with ``S`` words of local memory;
* computation proceeds in synchronous rounds;
* per round, each machine may send and receive at most ``S`` words;
* the primary cost measure is the number of rounds.

Algorithms use the cluster in two ways:

1. **Explicit message rounds** — :meth:`MPCCluster.communication_round` takes
   the multiset of messages exchanged in a round (keyed by integer keys whose
   machine placement is determined by :class:`~repro.mpc.config.MPCConfig`),
   verifies the per-machine send/receive caps, and increments the round
   counter.  This is used wherever the data movement matters for the memory
   argument (graph exponentiation, gathering tree views, layer broadcasts).

2. **Primitive charges** — :meth:`MPCCluster.charge_rounds` charges a constant
   number of rounds for a standard primitive (sorting, aggregation, broadcast
   trees) whose constant-round MPC implementations are classical
   [KSV10b, GSZ11, ASS+18] and which the paper likewise invokes as black boxes
   (Claim 3.5, Claim 3.11, Lemma 4.1).  The charged constants are documented
   in :mod:`repro.mpc.primitives`.

The simulator performs the data placement for real — each key lives on a
specific machine and its storage is accounted there — so violating the
``n^δ`` local-memory constraint raises an exception rather than going
unnoticed.

**Dynamic update batches** (:mod:`repro.stream`) extend the same accounting
to streaming workloads.  A batch of edge insertions/deletions is charged as
one communication round whose messages route each 2-word update between the
machines owning the edge's endpoints (oversized batches split into
``⌈volume/S⌉`` rounds exactly like any other exchange).  The incremental
repair work inside a batch is charged through the two standard channels
above: flip-path repair and palette repair are each one aggregation-primitive
round per batch in which they occur (labels ``stream:flip-repair`` /
``stream:recolor``), journal compaction is one sorting-primitive round per
occurrence (``stream:compact``), and a quality-fallback rebuild simply runs
the full Theorem 1.1 pipeline against the *same* cluster, so its rounds and
memory land in this ledger (labels ``stream:rebuild:*`` plus the static
pipeline's own labels).  Extending the model with a new dynamic primitive
means choosing one of these channels: real data movement goes through
:meth:`MPCCluster.communication_round`; classical constant-round plumbing
goes through :meth:`MPCCluster.charge_rounds` with a descriptive label.

**Parallel task fan-out** (:mod:`repro.engine`) adds a third channel for
work that the model executes *simultaneously* — the Lemma 2.1 edge-partition
parts, vertex-disjoint flip-repair groups.  Charging such tasks sequentially
on the shared ledger would overstate rounds by a factor of the task count;
instead each task records into its own **sub-ledger**: :meth:`MPCCluster.fork`
creates an empty child cluster with identical provisioning, the task runs
against the child (rounds, communication, and storage all land there — forks
cross process boundaries freely), and :meth:`MPCCluster.merge_parallel` folds
the children back into the parent with the model's semantics:

* **rounds = max** over the parallel tasks (round ``i`` of every task is one
  superstep; the superstep count is the longest task's); any subsequent
  combination work — e.g. the balanced orientation-merge tree — is charged
  separately on the parent (label ``merge-orientations``);
* per-superstep **communication volume = sum** over the tasks, per-machine
  send/receive peaks = max;
* **memory = sum** of the children's peaks (parallel tasks are co-resident
  on the same machine fleet).

The fold itself lives on :meth:`repro.mpc.metrics.RoundStats.merge_parallel`;
callers fan out with :meth:`MPCCluster.fork` and fold back with
:meth:`MPCCluster.merge_parallel` directly.

**Multi-tenant sub-ledgers** (:class:`repro.stream.engine.StreamEngine`)
stretch the fork/merge protocol from per-task to per-*tenant*.  Each hosted
tenant owns one **persistent** fork for its whole lifetime — created by
``fork(config=MPCConfig.for_graph(tenant_initial))`` so the tenant is
provisioned for its own input and its per-batch charges are byte-identical
to a standalone service — and every engine *tick* resolves one batch per
tenant as parallel tasks of the simulated model (the host runs them one
after another).  The shared ledger is charged per tick by folding
the tenants' **tick deltas** (:meth:`repro.mpc.metrics.RoundStats.since` of
the pre-tick round mark) with ``merge_parallel``: aggregate rounds for the
tick are the *max* over the tenants served in it (the tick is one run of
supersteps executed by all tenants simultaneously), per-superstep volume is
the sum, and memory folds as the sum of the tenants' lifetime peaks —
tenants are co-resident for the whole tick, so their storage adds even when
a tenant is idle in this particular tick.  Rounds a tenant charges *outside*
any tick — its initial orientation build at registration — fold into the
shared ledger right at registration instead: tenants register one after
another, so construction is sequential (rounds add) and tick folds carry
batch work only.

**Budgeted ticks and quota-capped sub-ledgers** (PR 5).  Two scheduling
controls refine the multi-tenant model without changing the fold arithmetic:

* *Round budgets.*  A tick's folded charge is the max over the served
  tenants, but the cluster's **work** for the tick is their sum (the
  ``sequential_rounds`` quantity).  :mod:`repro.stream.scheduler` caps that
  sum: a :class:`~repro.stream.scheduler.TickPlanner` admits tenants, in
  policy order, while the sum of their *estimated* per-batch round costs
  (:func:`~repro.stream.scheduler.estimate_batch_rounds`, an upper bound on
  any rebuild-free batch delta) fits the budget; everyone else is deferred
  with their batches carried over intact.  A tick that serves nobody (budget
  exhausted, or no deficit-round-robin tenant eligible yet) folds an *empty*
  superstep — zero rounds charged, memory co-residency still observed —
  which :meth:`repro.mpc.metrics.RoundStats.merge_parallel` guarantees.
* *Memory quotas.*  ``fork(config=..., memory_quota=Q)`` provisions a
  tenant's persistent sub-ledger with a cap on its **global memory peak**
  (the sum-of-peaks term the tenant contributes to every tick fold).
  :meth:`MPCCluster.check_quota` raises
  :class:`~repro.errors.QuotaExceededError` on breach, and
  :meth:`MPCCluster.merge_parallel` runs the check on every branch that is a
  quota-capped fork *before* folding — so a breach is detected at the fold
  boundary, never silently absorbed into the parent's sum.  The engine
  additionally rejects a batch *before* applying it when the projected
  post-batch graph size would breach (keeping the offending batch intact in
  its queue); the fold-time check is the backstop for growth an admission
  estimate cannot see (e.g. a rebuild's working set).

**Host workers.**  How a parallel task physically executes is invisible to
this ledger.  The static pipelines' :class:`~repro.engine.pool.WorkerPool`
runs the parts either in-process or on process workers, each task carrying
its part and its fork by value — but that pickling is *host* shipping cost,
not simulated MPC communication.  Charging is unchanged: a task records into
its fork exactly what the algorithm's rounds move between simulated
machines, wherever it ran, and ``merge_parallel`` folds the forks with the
same max/sum semantics above.  The determinism contract (same seed ⇒
identical rounds for any worker count) is what keeps the fold's inputs —
and therefore every number in this module — reproducible.

**Host-side observability (PR 7).**  The tracing layer in :mod:`repro.obs`
records *wall-clock* spans of the host process (how long a tick, batch, or
kernel fan-out actually took to execute) and is **disjoint from this
ledger**: a span's duration is real time on the simulating machine, while a
:class:`~repro.mpc.metrics.RoundRecord` is a synchronous round of the
*simulated* MPC cluster.  Spans may *annotate* themselves with the ledger
delta charged while they were open (read-only ``RoundStats`` marks — see
``repro.obs.tracer``), which is how a timeline shows both clocks side by
side, but tracing never writes to the ledger, never consumes randomness, and
never changes what an algorithm computes.  ``MPCCluster.instrument`` attaches
a tracer for aggregate round/volume counters; forks never inherit it (they
cross the pickle boundary), so instrumentation stays a parent-process-only
observation.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Optional

from repro.errors import (
    GlobalMemoryExceeded,
    MemoryLimitExceeded,
    QuotaExceededError,
    SimulationError,
)
from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine
from repro.mpc.metrics import RoundStats
from repro.obs.tracer import NULL_TRACER

Message = tuple[int, int, int]
"""A message is ``(source_key, destination_key, size_in_words)``."""


class MPCCluster:
    """A simulated MPC cluster enforcing the model's resource constraints.

    Parameters
    ----------
    config:
        Cluster provisioning (``n``, ``m``, ``δ``, constants).
    enforce_limits:
        When ``True`` (default) the simulator raises
        :class:`~repro.errors.MemoryLimitExceeded` /
        :class:`~repro.errors.CommunicationLimitExceeded` /
        :class:`~repro.errors.GlobalMemoryExceeded` on violations.  Tests use
        ``False`` to *measure* violations instead of aborting.
    """

    def __init__(
        self,
        config: MPCConfig,
        enforce_limits: bool = True,
        enforce_global_memory: bool = False,
        memory_quota: int | None = None,
    ) -> None:
        if memory_quota is not None and memory_quota < 1:
            raise SimulationError("memory_quota must be at least 1 word (or None)")
        self.config = config
        self.enforce_limits = enforce_limits
        self.enforce_global_memory = enforce_global_memory
        self.memory_quota = memory_quota
        self.stats = RoundStats()
        self._machines: dict[int, Machine] = {}
        self._round_active: list[Machine] = []
        self._num_machines = config.num_machines()
        self._capacity = config.words_per_machine
        self._global_budget = config.global_memory_words()
        self._tracer = NULL_TRACER

    def instrument(self, tracer) -> None:
        """Attach a tracer for aggregate round/volume counters.

        Observation-only (see the module docstring): the tracer reads what
        the ledger records, never the other way around.  Forks do not
        inherit it — they cross the pickle boundary into workers.
        """
        self._tracer = NULL_TRACER if tracer is None else tracer

    def __getstate__(self) -> dict:
        # Tracers hold locks and thread-local state; a pickled cluster
        # (a fork travelling to a worker) must never carry one.
        state = self.__dict__.copy()
        state["_tracer"] = NULL_TRACER
        return state

    # ------------------------------------------------------------------ #
    # Checkpoint seam
    # ------------------------------------------------------------------ #

    def ledger_state(self) -> dict:
        """The cluster as a JSON-serializable snapshot (checkpoint seam).

        Per-machine round counters are deliberately *not* captured:
        :meth:`communication_round` resets every participating machine's
        counters at the start of the round, so a restored cluster whose
        machines start with zeroed counters and an empty active set charges
        future rounds identically.
        """
        return {
            "config": {
                "num_vertices": self.config.num_vertices,
                "num_edges": self.config.num_edges,
                "delta": self.config.delta,
                "memory_constant": self.config.memory_constant,
                "global_memory_factor": self.config.global_memory_factor,
            },
            "enforce_limits": bool(self.enforce_limits),
            "enforce_global_memory": bool(self.enforce_global_memory),
            "memory_quota": self.memory_quota,
            "stats": self.stats.state_dict(),
            "machines": [
                [
                    machine.machine_id,
                    machine.stored_words,
                    machine.peak_stored_words,
                    dict(machine.stored_by_tag),
                ]
                for machine in sorted(
                    self._machines.values(), key=lambda m: m.machine_id
                )
            ],
        }

    @classmethod
    def from_ledger_state(cls, state: dict) -> "MPCCluster":
        """Rebuild a cluster from :meth:`ledger_state` output, exactly."""
        config = MPCConfig(**state["config"])
        cluster = cls(
            config,
            enforce_limits=state["enforce_limits"],
            enforce_global_memory=state["enforce_global_memory"],
            memory_quota=state["memory_quota"],
        )
        cluster.stats = RoundStats.from_state(state["stats"])
        for machine_id, stored, peak, tags in state["machines"]:
            machine = Machine(
                machine_id=machine_id, capacity_words=cluster._capacity
            )
            machine.stored_words = stored
            machine.peak_stored_words = peak
            machine.stored_by_tag = {str(tag): words for tag, words in tags.items()}
            cluster._machines[machine_id] = machine
        return cluster

    # ------------------------------------------------------------------ #
    # Machine access / storage accounting
    # ------------------------------------------------------------------ #

    @property
    def num_machines(self) -> int:
        """Number of machines in the cluster."""
        return self._num_machines

    @property
    def words_per_machine(self) -> int:
        """Local memory capacity ``S`` of each machine."""
        return self._capacity

    def machine_for_key(self, key: int) -> Machine:
        """The machine responsible for an integer key (vertices, edges, tree ids)."""
        machine_id = self.config.machine_of(key)
        machine = self._machines.get(machine_id)
        if machine is None:
            machine = Machine(machine_id=machine_id, capacity_words=self._capacity)
            self._machines[machine_id] = machine
        return machine

    def machine(self, machine_id: int) -> Machine:
        """Machine by explicit id (creating its record lazily)."""
        if not 0 <= machine_id < self._num_machines:
            raise SimulationError(f"machine id {machine_id} out of range 0..{self._num_machines - 1}")
        machine = self._machines.get(machine_id)
        if machine is None:
            machine = Machine(machine_id=machine_id, capacity_words=self._capacity)
            self._machines[machine_id] = machine
        return machine

    def store_at_key(self, key: int, words: int, tag: str = "data") -> None:
        """Store ``words`` words on the machine owning ``key``."""
        self.machine_for_key(key).store(words, tag=tag, enforce=self.enforce_limits)
        self._observe_memory()

    def release_at_key(self, key: int, words: int, tag: str = "data") -> None:
        """Release ``words`` words on the machine owning ``key``."""
        self.machine_for_key(key).release(words, tag=tag)

    def release_tag_everywhere(self, tag: str) -> None:
        """Drop all storage registered under ``tag`` on every machine."""
        for machine in self._machines.values():
            machine.release_tag(tag)

    def store_spread(self, total_words: int, tag: str = "data") -> None:
        """Store ``total_words`` spread evenly across all machines.

        Models large distributed objects (e.g. the collection of all tree
        views, whose *total* size is bounded by ``O(nB)`` while no single
        machine needs to hold more than its even share plus one object).  The
        even share is enforced against each machine's capacity (honoring
        ``enforce_limits``, like every other store); the global budget check
        still applies through :meth:`_observe_memory`.
        """
        if total_words < 0:
            raise SimulationError("total_words must be non-negative")
        machines = self._num_machines
        share = -(-total_words // machines) if total_words else 0
        remaining = total_words
        for machine_id in range(machines):
            if remaining <= 0:
                break
            chunk = min(share, remaining)
            self.machine(machine_id).store(chunk, tag=tag, enforce=self.enforce_limits)
            remaining -= chunk
        self._observe_memory()

    def restore_spread(self, total_words: int, tag: str = "data") -> None:
        """Replace the spread object registered under ``tag`` in one pass.

        Exactly equivalent to :meth:`release_tag_everywhere` followed by
        :meth:`store_spread` — same final per-machine state, same peak
        updates and capacity enforcement (ascending machine id, first
        offender raises), same single memory observation at the end — but
        fused into one walk over the machine records with the per-machine
        arithmetic inlined.  This is the tick hot path of the streaming
        accounting, which re-registers the live graph at every batch
        boundary; on a 100k-vertex cluster the fused walk is what keeps the
        ledger off the profile.
        """
        if total_words < 0:
            raise SimulationError("total_words must be non-negative")
        machines = self._num_machines
        share = -(-total_words // machines) if total_words else 0
        remaining = total_words
        enforce = self.enforce_limits
        capacity = self._capacity
        records = self._machines
        for machine_id in range(machines):
            chunk = min(share, remaining) if remaining > 0 else 0
            machine = records.get(machine_id)
            if machine is None:
                if chunk == 0:
                    # Nothing stored here before (no record) and nothing to
                    # store now — store_spread would not have materialised
                    # this machine either.
                    continue
                machine = Machine(machine_id=machine_id, capacity_words=capacity)
                records[machine_id] = machine
            remaining -= chunk
            tags = machine.stored_by_tag
            old = tags.pop(tag, 0)
            stored = machine.stored_words - old
            if stored < 0:
                stored = 0
            if chunk:
                stored += chunk
                tags[tag] = chunk
                if stored > machine.peak_stored_words:
                    machine.peak_stored_words = stored
            machine.stored_words = stored
            if chunk and enforce and stored > capacity:
                raise MemoryLimitExceeded(machine_id, stored, capacity)
        self._observe_memory()

    def global_memory_in_use(self) -> int:
        """Total words currently stored across all machines."""
        return sum(machine.stored_words for machine in self._machines.values())

    def peak_machine_memory(self) -> int:
        """Largest per-machine peak storage observed so far."""
        return max((m.peak_stored_words for m in self._machines.values()), default=0)

    def _observe_memory(self) -> None:
        global_words = self.global_memory_in_use()
        self.stats.observe_memory(self.peak_machine_memory(), global_words)
        if self.enforce_global_memory and global_words > self._global_budget:
            raise GlobalMemoryExceeded(global_words, self._global_budget)

    # ------------------------------------------------------------------ #
    # Rounds
    # ------------------------------------------------------------------ #

    def communication_round(
        self,
        messages: Iterable[Message],
        label: str = "round",
        store_tag: Optional[str] = None,
        split_oversized: bool = True,
    ) -> int:
        """Execute one (or more) synchronous rounds exchanging ``messages``.

        Each message ``(source_key, destination_key, words)`` is charged as
        ``words`` outgoing traffic on the machine owning ``source_key`` and
        ``words`` incoming traffic on the machine owning ``destination_key``.
        If ``store_tag`` is given, received words are additionally stored on
        the destination machine under that tag (modelling that the payload is
        kept for later rounds, e.g. learned neighborhood views).

        In the MPC model a machine can move at most ``S`` words per round.
        When the requested exchange would exceed that on some machine, the
        exchange genuinely needs several rounds; with ``split_oversized=True``
        (default) the simulator charges ``⌈max_volume / S⌉`` rounds for the
        exchange instead of failing, which keeps round counts honest.  With
        ``split_oversized=False`` a violation raises
        :class:`~repro.errors.CommunicationLimitExceeded` (used by tests that
        check an exchange fits in exactly one round).

        Returns the number of rounds charged.
        """
        # Only machines touched last round can have non-zero counters, so
        # resetting just those is byte-identical to walking every record —
        # and O(active) instead of O(M) per round on big clusters.
        for machine in self._round_active:
            machine.begin_round()
        round_active: dict[int, Machine] = {}

        total_words = 0
        receive_store: dict[int, int] = {}
        for source_key, destination_key, words in messages:
            if words < 0:
                raise SimulationError("message size must be non-negative")
            source = self.machine_for_key(source_key)
            destination = self.machine_for_key(destination_key)
            round_active[source.machine_id] = source
            round_active[destination.machine_id] = destination
            source.account_send(words, enforce=False)
            destination.account_receive(words, enforce=False)
            total_words += words
            if store_tag is not None:
                receive_store[destination.machine_id] = (
                    receive_store.get(destination.machine_id, 0) + words
                )

        if store_tag is not None:
            for machine_id, words in receive_store.items():
                self.machine(machine_id).store(
                    words, tag=store_tag, enforce=self.enforce_limits and not split_oversized
                )

        self._round_active = list(round_active.values())
        max_sent = max((m.round_sent_words for m in self._round_active), default=0)
        max_received = max((m.round_received_words for m in self._round_active), default=0)
        max_volume = max(max_sent, max_received)
        rounds_needed = 1
        if max_volume > self._capacity:
            if self.enforce_limits and not split_oversized:
                direction = "sent" if max_sent >= max_received else "received"
                offender = max(
                    self._machines.values(),
                    key=lambda m: max(m.round_sent_words, m.round_received_words),
                )
                from repro.errors import CommunicationLimitExceeded

                raise CommunicationLimitExceeded(
                    offender.machine_id, direction, max_volume, self._capacity
                )
            rounds_needed = -(-max_volume // self._capacity)

        self.stats.record_round(label, total_words, max_sent, max_received)
        if self._tracer.enabled:
            self._tracer.metrics.inc("mpc.rounds")
            self._tracer.metrics.inc("mpc.words_sent", total_words)
        if rounds_needed > 1:
            self.charge_rounds(rounds_needed - 1, label=f"{label}:oversized-split")
        self._observe_memory()
        return rounds_needed

    def charge_rounds(self, count: int, label: str) -> None:
        """Charge ``count`` rounds for a standard constant-round primitive.

        The volume of such primitives is bounded by the data they touch, which
        the callers account separately via storage; here we only advance the
        round counter, mirroring how the paper cites [ASS+18] for the
        plumbing.
        """
        if count < 0:
            raise SimulationError("cannot charge a negative number of rounds")
        for _ in range(count):
            self.stats.record_round(label, 0, 0, 0)
        if count and self._tracer.enabled:
            self._tracer.metrics.inc("mpc.rounds", count)

    # ------------------------------------------------------------------ #
    # Sub-ledgers (parallel task fan-out: fork per task, merge_parallel)
    # ------------------------------------------------------------------ #

    def fork(
        self, config: MPCConfig | None = None, memory_quota: int | None = None
    ) -> "MPCCluster":
        """An empty child cluster with this cluster's provisioning.

        One parallel task records its rounds, communication, and storage into
        one fork; :meth:`merge_parallel` folds the forks back.  The child
        shares the (immutable) config and the enforcement flags but starts
        with fresh machines and an empty ledger, so it is cheap to create and
        safe to send to a worker process.

        ``config`` re-provisions the child: a *persistent* sub-ledger that
        accounts one tenant of a multiplexed service (see
        :class:`repro.stream.engine.StreamEngine`) is sized for that tenant's
        own input — the tenant then behaves, round for round, exactly like a
        standalone service on its own cluster, while the fold arithmetic
        (which never consults the config) still lands in this parent.
        Short-lived task forks keep the parent's config.

        ``memory_quota`` caps the child's *global memory peak*
        (:meth:`check_quota`); quotas are per-fork and never inherited —
        the parent aggregates many tenants, so a tenant-sized cap would be
        meaningless there.
        """
        return MPCCluster(
            self.config if config is None else config,
            enforce_limits=self.enforce_limits,
            enforce_global_memory=self.enforce_global_memory,
            memory_quota=memory_quota,
        )

    def check_quota(self) -> None:
        """Raise :class:`~repro.errors.QuotaExceededError` when this ledger's
        global memory peak exceeds its provisioned quota (no-op when uncapped)."""
        if (
            self.memory_quota is not None
            and self.stats.peak_global_memory_words > self.memory_quota
        ):
            raise QuotaExceededError(
                self.stats.peak_global_memory_words, self.memory_quota
            )

    def merge_parallel(self, branches) -> int:
        """Fold sibling forks back in as parallel supersteps.

        ``branches`` may be :class:`MPCCluster` forks or bare
        :class:`~repro.mpc.metrics.RoundStats` (what a worker process ships
        back).  Rounds fold as max-over-tasks, per-superstep volume as the
        sum, memory peaks as the sum — see the module docstring for the
        charging model.  An empty fold (no branches, or only empty deltas)
        charges zero rounds.  Quota-capped fork branches are checked
        (:meth:`check_quota`) *before* anything is folded, so a breach
        raises without half-merged state.  Returns the number of rounds
        charged.
        """
        branches = [branch for branch in branches if branch is not None]
        for branch in branches:
            if isinstance(branch, MPCCluster):
                branch.check_quota()
        stats = [
            branch.stats if isinstance(branch, MPCCluster) else branch
            for branch in branches
        ]
        return self.stats.merge_parallel(stats)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def load_graph(self, graph, tag: str = "input") -> None:
        """Distribute the input graph across machines (one word per edge endpoint).

        Models the arbitrary initial distribution of the input: edge ``(u, v)``
        is stored on the machine owning the edge's index, and every vertex id
        is stored on the machine owning the vertex.  Placement is batched per
        machine — one store call per machine instead of one per key — which
        keeps loading linear with a small constant even for 10^5-edge inputs.
        The memory observation at the end sees the same totals (stores only
        ever grow), so the recorded peaks are unchanged.
        """
        machine_of = self.config.machine_of
        words_by_machine: dict[int, int] = {}
        for v in range(graph.num_vertices):
            machine_id = machine_of(v)
            words_by_machine[machine_id] = words_by_machine.get(machine_id, 0) + 1
        base = graph.num_vertices
        for index in range(graph.num_edges):
            machine_id = machine_of(base + index)
            words_by_machine[machine_id] = words_by_machine.get(machine_id, 0) + 2
        for machine_id, words in words_by_machine.items():
            self.machine(machine_id).store(words, tag=tag, enforce=self.enforce_limits)
        self._observe_memory()

    def snapshot(self) -> dict[str, float]:
        """Summary of the execution so far (for the experiment harness)."""
        summary = self.stats.summary()
        summary["num_machines"] = float(self._num_machines)
        summary["words_per_machine"] = float(self._capacity)
        summary["global_budget_words"] = float(self._global_budget)
        return summary

    def __repr__(self) -> str:
        return (
            f"MPCCluster(machines={self._num_machines}, S={self._capacity} words, "
            f"rounds={self.stats.num_rounds})"
        )

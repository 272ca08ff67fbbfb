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
   the messages exchanged in a round as columns of source keys, destination
   keys and word sizes (integer keys whose machine placement is determined by
   :class:`~repro.mpc.config.MPCConfig`),
   verifies the per-machine send/receive caps, and increments the round
   counter.  This is used wherever the data movement matters for the memory
   argument (graph exponentiation, gathering tree views, layer broadcasts).

2. **Primitive charges** — :meth:`MPCCluster.charge_rounds` charges a constant
   number of rounds for a standard primitive (sorting, aggregation, broadcast
   trees) whose constant-round MPC implementations are classical
   [KSV10b, GSZ11, ASS+18] and which the paper likewise invokes as black boxes
   (Claim 3.5, Claim 3.11, Lemma 4.1).  The charged constants are documented
   in :mod:`repro.mpc.primitives`.

**Memory ledger.**  Every store is checked against the ``n^δ`` local-memory
cap, so violating it raises an exception rather than going unnoticed.  The
ledger keeps two kinds of storage, and its cost follows the number of
objects and keyed machines, never the machine count ``M``:

* *Keyed storage* is written by :meth:`MPCCluster.load_graph` only: each
  vertex and edge lands on the machine the placement hash picks for its key.
  It is recorded as one ``{machine: words}`` record per tag, every entry
  positive, so a load into a new tag is one ``dict(zip(machines, totals))``
  of its per-machine tallies, a load into a loaded tag adds to its entries,
  and dropping a tag drops one record.
* *Spread objects* (:meth:`MPCCluster.store_spread`,
  :meth:`MPCCluster.restore_spread`) are kept per tag as word totals.  A
  ``T``-word object puts ``⌈T/M⌉`` words on each machine from 0 upward and
  the remainder on the next one, so a machine's share is a closed form and
  machine 0 always holds the largest spread share.

Two running scalars answer the memory queries in O(1): the words in use
across the cluster and the largest per-machine value ever stored (the peak).
After a spread store only the first machine without keyed storage and the
keyed machines inside the covered prefix can set a new peak or be the first
capacity offender, so only those are checked.  A store that raises —
per-machine cap or global budget — changes nothing, and neither does a
round that breaks the communication cap.
A round's messages arrive as columns (source keys, destination keys,
words), or as per-key volumes (sent and received ``(keys, words)``);
:func:`repro.kernels.tally_by_machine` turns each key column into
per-machine word totals in one call, so no per-message object is built.
Rounds only move words: they never create storage records.

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
  combination work — e.g. the orientation merge, charged as a balanced
  aggregation tree — is charged separately on the parent (label
  ``merge-orientations``);
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

from array import array

from repro import kernels
from repro.errors import (
    CommunicationLimitExceeded,
    GlobalMemoryExceeded,
    MemoryLimitExceeded,
    QuotaExceededError,
    SimulationError,
)
from repro.mpc.config import MPCConfig
from repro.mpc.metrics import RoundStats
from repro.obs.tracer import NULL_TRACER

def _share(total: int, machines: int, machine_id: int) -> int:
    """Words of a ``total``-word spread object on ``machine_id``: ``⌈T/M⌉``
    on each machine from 0 upward, then the remainder, then nothing."""
    share = -(-total // machines)
    full = total // share
    if machine_id < full:
        return share
    return total - full * share if machine_id == full else 0


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
        # tag -> machine id -> keyed words (positive entries only).
        self._keyed: dict[str, dict[int, int]] = {}
        self._spread: dict[str, list[int]] = {}  # tag -> totals of its spread objects
        self._in_use = 0
        self._peak = 0
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

        Holds the keyed records, the spread totals per tag and the peak
        scalar; words in use are derived on restore.  The keyed records are
        listed per machine, ``[[machine, {tag: words}], ...]`` in ascending
        machine id; a cluster holding only spread objects has none.
        """
        by_machine: dict[int, dict[str, int]] = {}
        for tag, records in self._keyed.items():
            for machine_id, words in records.items():
                by_machine.setdefault(machine_id, {})[tag] = words
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
            "peak_machine_words": self._peak,
            "spread": {tag: list(totals) for tag, totals in self._spread.items()},
            "keyed": [[machine_id, tags] for machine_id, tags in sorted(by_machine.items())],
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
        cluster._peak = state["peak_machine_words"]
        for tag, totals in state["spread"].items():
            cluster._spread[str(tag)] = list(totals)
            cluster._in_use += sum(totals)
        for machine_id, tags in state["keyed"]:
            for tag, words in tags.items():
                cluster._keyed.setdefault(str(tag), {})[machine_id] = words
                cluster._in_use += words
        return cluster

    # ------------------------------------------------------------------ #
    # Storage accounting
    # ------------------------------------------------------------------ #

    @property
    def num_machines(self) -> int:
        """Number of machines in the cluster."""
        return self._num_machines

    @property
    def words_per_machine(self) -> int:
        """Local memory capacity ``S`` of each machine."""
        return self._capacity

    def machine_words(self, machine_id: int) -> int:
        """Words currently stored on one machine (keyed plus spread shares)."""
        if not 0 <= machine_id < self._num_machines:
            raise SimulationError(f"machine id {machine_id} out of range 0..{self._num_machines - 1}")
        return self._held(machine_id)

    def release_tag_everywhere(self, tag: str) -> None:
        """Drop all storage registered under ``tag`` on every machine."""
        self._in_use -= self._drop_keyed_tag(tag) + sum(self._spread.pop(tag, ()))

    def store_spread(self, total_words: int, tag: str = "data") -> None:
        """Store ``total_words`` spread evenly across all machines.

        Models large distributed objects (e.g. the collection of all tree
        views, whose *total* size is bounded by ``O(nB)`` while no single
        machine needs to hold more than its even share plus one object).  The
        even share is enforced against each machine's capacity (honoring
        ``enforce_limits``, like every other store; the first offender in
        ascending machine id raises); the global budget check applies too.
        """
        self._place_spread(total_words, tag, replace=False)

    def restore_spread(self, total_words: int, tag: str = "data") -> None:
        """Replace everything registered under ``tag`` with one spread object.

        Equivalent to :meth:`release_tag_everywhere` followed by
        :meth:`store_spread` — same final storage, peak, capacity enforcement
        and single memory observation — except that a raise leaves the old
        registration in place.  The streaming service re-registers its live
        graph this way at every batch boundary; the cost does not depend on
        the machine count (see the module docstring).
        """
        self._place_spread(total_words, tag, replace=True)

    def global_memory_in_use(self) -> int:
        """Total words currently stored across all machines."""
        return self._in_use

    def peak_machine_memory(self) -> int:
        """Largest per-machine storage observed so far."""
        return self._peak

    def _held(self, machine_id: int, without: str | None = None) -> int:
        """Words on ``machine_id``, ignoring everything under ``without``."""
        keyed = 0
        for tag, records in self._keyed.items():
            if tag != without:
                keyed += records.get(machine_id, 0)
        return keyed + self._spread_words(machine_id, without)

    def _spread_words(self, machine_id: int, without: str | None = None) -> int:
        """Spread-object words on ``machine_id``, ignoring tag ``without``."""
        machines = self._num_machines
        return sum(
            _share(total, machines, machine_id)
            for tag, totals in self._spread.items()
            if tag != without
            for total in totals
        )

    def _drop_keyed_tag(self, tag: str) -> int:
        """Remove the keyed record of ``tag``; returns the words dropped."""
        return sum(self._keyed.pop(tag, {}).values())

    def _keyed_peak(self, machines, words, keys) -> int:
        """The peak after adding ``words`` to ``machines`` (ascending ids).

        Under ``enforce_limits``, raises the first machine over capacity in
        the order its first key appears in the ``keys`` column.
        """
        if self._keyed or self._spread:
            held = self._held
            after = [stored + held(machine_id) for machine_id, stored in zip(machines, words)]
        else:
            after = words
        top = max(after, default=0)
        capacity = self._capacity
        if self.enforce_limits and top > capacity:
            stored_on = dict(zip(machines, after))
            machine_of = self.config.machine_of
            for key in keys:
                machine_id = machine_of(key)
                if stored_on[machine_id] > capacity:
                    raise MemoryLimitExceeded(machine_id, stored_on[machine_id], capacity)
        return max(self._peak, top)

    def _place_spread(self, total: int, tag: str, replace: bool) -> None:
        """Add (or, with ``replace``, substitute) a spread object, atomically."""
        if total < 0:
            raise SimulationError("total_words must be non-negative")
        without = tag if replace else None
        in_use = self._in_use + total
        if replace:
            in_use -= sum(self._spread.get(tag, ()))
            in_use -= sum(self._keyed.get(tag, {}).values())
        peak = self._spread_peak(total, without) if total else self._peak
        self._check_global(in_use)
        if replace:
            self._drop_keyed_tag(tag)
            self._spread.pop(tag, None)
        if total:
            self._spread.setdefault(tag, []).append(total)
        self._in_use = in_use
        self._peak = peak
        self._observe_memory()

    def _spread_peak(self, total: int, without: str | None) -> int:
        """Exact peak after placing a ``total``-word spread object.

        Candidates are the machines the object covers that hold keyed words,
        plus the first machine without any: every other covered machine
        holds only spread shares, which never grow with the machine id.
        Raises the first offender in ascending machine id under
        ``enforce_limits``.
        """
        share = -(-total // self._num_machines)
        full = total // share
        remainder = total - full * share
        covered = full + (remainder > 0)
        occupied = set().union(*self._keyed.values())
        first_plain = 0
        while first_plain in occupied:
            first_plain += 1
        candidates = [machine_id for machine_id in occupied if machine_id < covered]
        if first_plain < covered:
            candidates.append(first_plain)
        enforce = self.enforce_limits
        capacity = self._capacity
        peak = self._peak
        for machine_id in sorted(candidates):
            stored = self._held(machine_id, without) + (
                share if machine_id < full else remainder
            )
            if stored > peak:
                peak = stored
            if enforce and stored > capacity:
                raise MemoryLimitExceeded(machine_id, stored, capacity)
        return peak

    def _check_global(self, in_use: int) -> None:
        if self.enforce_global_memory and in_use > self._global_budget:
            raise GlobalMemoryExceeded(in_use, self._global_budget)

    def _observe_memory(self) -> None:
        self.stats.observe_memory(self._peak, self._in_use)

    # ------------------------------------------------------------------ #
    # Rounds
    # ------------------------------------------------------------------ #

    def communication_round(
        self,
        sources,
        destinations,
        words,
        label: str = "round",
        split_oversized: bool = True,
    ) -> int:
        """Execute one (or more) synchronous rounds exchanging a column of messages.

        Message ``i`` goes from key ``sources[i]`` to key ``destinations[i]``
        and carries ``words`` words (one int for every message) or
        ``words[i]`` (a column).  It is charged as outgoing traffic on the
        machine owning its source key and incoming traffic on the machine
        owning its destination key: the round is :meth:`volume_round` with
        ``(sources, words)`` sent and ``(destinations, words)`` received.
        Columns of different lengths raise
        :class:`~repro.errors.SimulationError`.  The round stores nothing:
        memory the payload occupies afterwards is the caller's to register
        (as a spread object).

        In the MPC model a machine can move at most ``S`` words per round.
        When the requested exchange would exceed that on some machine, the
        exchange genuinely needs several rounds; with ``split_oversized=True``
        (default) the simulator charges ``⌈max_volume / S⌉`` rounds for the
        exchange instead of failing, which keeps round counts honest.  With
        ``split_oversized=False`` a violation raises
        :class:`~repro.errors.CommunicationLimitExceeded` (used by tests that
        check an exchange fits in exactly one round), naming the lowest
        machine id that moved the largest volume.  Any raise leaves the
        ledger and the round stats untouched.

        Returns the number of rounds charged.
        """
        count = len(sources)
        sized = not isinstance(words, int)
        if len(destinations) != count or (sized and len(words) != count):
            lengths = f"{count} sources, {len(destinations)} destinations"
            if sized:
                lengths += f", {len(words)} words"
            raise SimulationError(f"message columns differ in length: {lengths}")
        return self.volume_round(
            (sources, words), (destinations, words), label=label, split_oversized=split_oversized
        )

    def volume_round(
        self,
        sent,
        received,
        label: str = "round",
        split_oversized: bool = True,
    ) -> int:
        """Execute one (or more) synchronous rounds given per-key volumes.

        ``sent`` and ``received`` are ``(keys, words)`` pairs: key
        ``keys[i]`` sends (or receives) ``words`` words in total (one int for
        every key) or ``words[i]`` (a column).  Each side is tallied per
        machine by :func:`repro.kernels.tally_by_machine`, so an exchange
        whose messages are only counted never has to be listed message by
        message.  A side whose columns differ in length, or two sides whose
        totals differ, raise :class:`~repro.errors.SimulationError`.  Caps,
        splitting and the round stats are those of
        :meth:`communication_round`, which charges through this method.

        Returns the number of rounds charged.
        """
        for side, (keys, words) in (("sent", sent), ("received", received)):
            if not isinstance(words, int) and len(words) != len(keys):
                raise SimulationError(
                    f"{side} volume columns differ in length: "
                    f"{len(keys)} keys, {len(words)} words"
                )
        machines = self._num_machines
        senders, sent = kernels.tally_by_machine(machines, *sent)
        receivers, received = kernels.tally_by_machine(machines, *received)
        total_words = sum(sent)
        if sum(received) != total_words:
            raise SimulationError(
                f"sent and received volumes differ: {total_words} words sent, "
                f"{sum(received)} received"
            )

        capacity = self._capacity
        max_sent = max(sent, default=0)
        max_received = max(received, default=0)
        max_volume = max(max_sent, max_received)
        rounds_needed = 1
        if max_volume > capacity:
            if self.enforce_limits and not split_oversized:
                if max_sent >= max_received:
                    direction, ids, volumes = "sent", senders, sent
                else:
                    direction, ids, volumes = "received", receivers, received
                offender = ids[volumes.index(max_volume)]
                raise CommunicationLimitExceeded(offender, direction, max_volume, capacity)
            rounds_needed = -(-max_volume // capacity)

        self.stats.record_round(label, total_words, max_sent, max_received)
        if self._tracer.enabled:
            self._tracer.metrics.inc("mpc.rounds")
            self._tracer.metrics.inc("mpc.words_sent", total_words)
        if rounds_needed > 1:
            self.charge_rounds(rounds_needed - 1, label=f"{label}:oversized-split")
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

        Models the arbitrary initial distribution of the input: vertex ``v``
        (one word) is stored on the machine owning key ``v``, and edge ``i``
        (two words) on the machine owning key ``n + i``.  The key column is
        tallied per machine in one kernel call and stored atomically under
        ``tag``, adding to what the tag already holds; the first machine over
        capacity in key order raises.  This is the ledger's only keyed store.
        """
        n, m = graph.num_vertices, graph.num_edges
        keys = range(n + m)
        words = array("l", [1]) * n + array("l", [2]) * m
        machines, totals = kernels.tally_by_machine(self._num_machines, keys, words)
        peak = self._keyed_peak(machines, totals, keys)
        in_use = self._in_use + n + 2 * m
        self._check_global(in_use)
        records = self._keyed.get(tag)
        if records is None:
            if machines:
                self._keyed[tag] = dict(zip(machines, totals))
        else:
            for machine_id, stored in zip(machines, totals):
                records[machine_id] = records.get(machine_id, 0) + stored
        self._in_use = in_use
        self._peak = peak
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

"""Exception hierarchy for the ``repro`` package.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch the whole family with a single ``except`` clause.  The MPC simulator
raises dedicated subclasses when the paper's resource constraints are violated
(local memory, per-round communication, or global memory), which lets the test
suite assert that the algorithms respect the model rather than merely claiming
so in documentation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (bad vertex ids, duplicate edges...)."""


class InvalidOrientationError(ReproError):
    """Raised when an orientation does not cover the edge set or is malformed."""


class InvalidColoringError(ReproError):
    """Raised when a coloring is not proper or misses vertices."""


class InvalidLayeringError(ReproError):
    """Raised when a layer assignment violates its declared out-degree bound."""


class ParameterError(ReproError):
    """Raised when algorithm parameters violate the paper's preconditions."""


class MPCModelError(ReproError):
    """Base class for violations of the MPC model constraints."""


class MemoryLimitExceeded(MPCModelError):
    """A machine exceeded its local memory capacity ``S`` (in words)."""

    def __init__(self, machine_id: int, used_words: int, capacity_words: int) -> None:
        self.machine_id = machine_id
        self.used_words = used_words
        self.capacity_words = capacity_words
        super().__init__(
            f"machine {machine_id} used {used_words} words, "
            f"exceeding its capacity of {capacity_words} words"
        )

    def __reduce__(self):
        # Multi-argument __init__: the default (cls, self.args) round-trip
        # breaks when a process-backend worker ships this error back.
        return (type(self), (self.machine_id, self.used_words, self.capacity_words))


class CommunicationLimitExceeded(MPCModelError):
    """A machine sent or received more than ``S`` words in a single round."""

    def __init__(self, machine_id: int, direction: str, volume_words: int, capacity_words: int) -> None:
        self.machine_id = machine_id
        self.direction = direction
        self.volume_words = volume_words
        self.capacity_words = capacity_words
        super().__init__(
            f"machine {machine_id} {direction} {volume_words} words in one round, "
            f"exceeding the per-round cap of {capacity_words} words"
        )

    def __reduce__(self):
        return (
            type(self),
            (self.machine_id, self.direction, self.volume_words, self.capacity_words),
        )


class GlobalMemoryExceeded(MPCModelError):
    """The total memory across all machines exceeded the configured budget."""

    def __init__(self, used_words: int, budget_words: int) -> None:
        self.used_words = used_words
        self.budget_words = budget_words
        super().__init__(
            f"global memory use of {used_words} words exceeds the budget of {budget_words} words"
        )

    def __reduce__(self):
        return (type(self), (self.used_words, self.budget_words))


class QuotaExceededError(MPCModelError):
    """A quota-capped sub-ledger (one tenant of a multiplexed service) exceeded
    its provisioned memory quota.

    Raised either *before* a batch is applied (the engine's projected-growth
    admission check — the batch stays queued) or at fold time (the backstop:
    a rebuild grew the tenant past its cap mid-batch).  Either way the tenant
    is left internally consistent and quarantined; sibling tenants are
    unaffected.
    """

    def __init__(self, used_words: int, quota_words: int, scope: str = "sub-ledger") -> None:
        self.used_words = used_words
        self.quota_words = quota_words
        self.scope = scope
        super().__init__(
            f"{scope} needs {used_words} words, exceeding its memory quota "
            f"of {quota_words} words"
        )

    def __reduce__(self):
        return (type(self), (self.used_words, self.quota_words, self.scope))


class SimulationError(ReproError):
    """Raised when the simulator is driven through an invalid sequence of calls."""


class LifecycleError(ReproError):
    """A tenant lifecycle transition that the state machine does not allow.

    The resident engine models every tenant as ``provisioning → active →
    quarantined → lifted → retired`` with an explicit transition table;
    anything off that graph (lifting a retired tenant, retiring twice, ...)
    raises this instead of silently mutating state.
    """

    def __init__(self, tenant: str, from_state: str, to_state: str) -> None:
        self.tenant = tenant
        self.from_state = from_state
        self.to_state = to_state
        super().__init__(
            f"tenant {tenant!r} cannot transition {from_state} -> {to_state}"
        )

    def __reduce__(self):
        return (type(self), (self.tenant, self.from_state, self.to_state))


class CheckpointError(ReproError):
    """A checkpoint file could not be read, validated, or restored.

    Raised for missing/truncated/corrupted snapshot files, format or version
    mismatches, checksum failures, and restored state whose fingerprint does
    not match the one recorded at checkpoint time.  Restore is all-or-nothing:
    when this is raised no partially-built engine escapes (anything created is
    closed before re-raising), and the engine that *wrote* the checkpoint is
    never touched by a failed restore.
    """


class WorkerCrashError(ReproError):
    """A process worker died mid-superstep (killed, OOM, hard crash).

    :class:`~repro.engine.pool.WorkerPool` discards the broken process
    executor when raising this, so the next parallel map spawns a fresh set
    of workers.  The failed superstep itself is lost; its tasks carried
    their inputs by value, so nothing the caller owns was touched.
    """

    def __init__(self, detail: str = "") -> None:
        self.detail = detail
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"a process worker died mid-superstep{suffix}; "
            f"the pool was discarded and will respawn on the next parallel map"
        )

    def __reduce__(self):
        return (type(self), (self.detail,))

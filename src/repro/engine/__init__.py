"""Superstep execution engine for parallel MPC task fan-out.

Public surface:

* :class:`~repro.engine.executor.ParallelExecutor` — serial / process
  backends with a determinism contract and serial auto-pick.
* :class:`~repro.engine.pool.WorkerPool` — resident workers plus a
  shared-memory shard registry: publish graph shards once, ship only task
  descriptors + deltas per superstep.
* :class:`~repro.engine.shm.ShardRegistry` / :func:`~repro.engine.shm.attach`
  — the generation-tagged shared-memory data plane behind the pool.
* :func:`~repro.engine.executor.derive_seed` /
  :func:`~repro.engine.executor.seed_stream` — per-task RNG streams.
* :class:`~repro.engine.ledger.SubLedger` — the fork/merge accounting
  protocol implemented by :class:`repro.mpc.cluster.MPCCluster`.
"""

from repro.engine.executor import (
    BACKENDS,
    PROCESS,
    SERIAL,
    ParallelExecutor,
    derive_seed,
    seed_stream,
)
from repro.engine.ledger import SubLedger, fork_ledgers
from repro.engine.pool import WorkerPool
from repro.engine.shm import ShardHandle, ShardRegistry

__all__ = [
    "BACKENDS",
    "PROCESS",
    "SERIAL",
    "ParallelExecutor",
    "ShardHandle",
    "ShardRegistry",
    "SubLedger",
    "WorkerPool",
    "derive_seed",
    "fork_ledgers",
    "seed_stream",
]

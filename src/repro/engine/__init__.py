"""Host fan-out for independent MPC tasks.

Public surface:

* :class:`~repro.engine.pool.WorkerPool` — runs a list of independent tasks
  serially or on process workers, results in submission order; the
  Lemma 2.1/2.2 parts of ``orient()`` and ``color()`` travel in the task
  tuples.
* :func:`~repro.engine.seeds.derive_seed` /
  :func:`~repro.engine.seeds.seed_stream` — per-task RNG streams.

The sub-ledger fold that charges a fan-out as max-over-parts lives on
:meth:`repro.mpc.cluster.MPCCluster.fork` /
:meth:`~repro.mpc.cluster.MPCCluster.merge_parallel`.
"""

from repro.engine.pool import WorkerPool
from repro.engine.seeds import derive_seed, seed_stream

__all__ = [
    "WorkerPool",
    "derive_seed",
    "seed_stream",
]

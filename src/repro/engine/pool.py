"""The persistent worker pool: resident workers + shared-memory graph shards.

:class:`WorkerPool` is the control plane matching :mod:`repro.engine.shm`'s
data plane.  It pairs one :class:`~repro.engine.executor.ParallelExecutor`
(whose process workers are spawned once and reused across every ``map`` for
the executor's lifetime) with one :class:`~repro.engine.shm.ShardRegistry`
(whose published shards live in named shared-memory segments for the pool's
lifetime).  Together they change the parallel stack's shipping model from

    *every superstep re-pickles CSR columns and part payloads into fresh
    tasks*

to

    *graph shards are published once per generation; every superstep ships
    only task descriptors (a :class:`~repro.engine.shm.ShardHandle` plus a
    part index) and its results.*

Both parallel consumers run on this layer: the large-λ ``orient()`` part
fan-out and the Theorem 1.2 ``color()`` part fan-out.  These static jobs are
the one place where host parallelism pays; the streaming stack runs
in-process and never builds a pool.  The determinism contract is untouched —
the serial backend resolves the same handles to the owner's original
objects (zero-copy), so there is exactly one code path for shard access and
the published partition fixes every task's input regardless of backend.

Failure semantics: a worker dying mid-superstep surfaces as a typed
:class:`~repro.errors.WorkerCrashError` (the executor discards the broken
pool; the next map respawns workers, and the published segments — owned by
the parent — survive).  Shard teardown is guaranteed by
:meth:`WorkerPool.close`, by a ``weakref`` finalizer on the registry, and by
an ``atexit`` sweep, all pid-guarded (see :mod:`repro.engine.shm`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.engine import shm
from repro.engine.executor import PROCESS, ParallelExecutor
from repro.engine.shm import ShardHandle, ShardRegistry


class WorkerPool:
    """Resident workers plus a shard registry; the parallel stack's runtime.

    Parameters
    ----------
    workers:
        Worker count for a pool-owned executor (ignored when ``executor`` is
        supplied).
    backend:
        Backend for a pool-owned executor (``None`` = auto-pick).
    executor:
        Optional pre-built executor to share.  The pool then *borrows* it:
        :meth:`close` releases only the registry, never a borrowed executor.
    """

    def __init__(
        self,
        workers: int = 1,
        backend: str | None = None,
        executor: ParallelExecutor | None = None,
    ) -> None:
        self._owns_executor = executor is None
        self.executor = (
            executor
            if executor is not None
            else ParallelExecutor(workers=workers, backend=backend)
        )
        self.registry = ShardRegistry()

    @property
    def workers(self) -> int:
        return self.executor.workers

    def instrument(self, tracer) -> None:
        """Attach a tracer to the executor and its metrics to the registry.

        Safe to call on a borrowed executor: instrumenting is
        observation-only, and re-instrumenting with the same tracer is
        idempotent.  ``None``
        restores the no-op defaults.
        """
        self.executor.instrument(tracer)
        self.registry.instrument(None if tracer is None else tracer.metrics)

    def stats(self) -> dict:
        """Health snapshot for diagnostics (cheap, side-effect free)."""
        generations = self.registry.generations()
        return {
            "workers": self.workers,
            "live_workers": self.executor.live_workers(),
            "tasks_run": self.executor.tasks_run,
            "respawns": self.executor.respawns,
            "segments": len(self.registry.segment_names()),
            "registry_keys": len(generations),
            "registry_generations": sum(generations.values()),
        }

    # ------------------------------------------------------------------ #
    # Publication (delegates to the registry's typed helpers)
    # ------------------------------------------------------------------ #

    def publish_edge_parts(self, key: str, num_vertices: int, parts) -> ShardHandle:
        """Publish Lemma 2.1 edge-partition parts under ``key``."""
        return shm.publish_edge_parts(self.registry, key, num_vertices, parts)

    def publish_vertex_parts(self, key: str, parts) -> ShardHandle:
        """Publish Lemma 2.2 vertex-partition parts under ``key``."""
        return shm.publish_vertex_parts(self.registry, key, parts)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def resolve_backend(
        self,
        num_tasks: int,
        total_work: int | None = None,
        backend: str | None = None,
    ) -> str:
        """The backend a :meth:`map` with these dimensions would use."""
        return self.executor.resolve_backend(num_tasks, total_work, backend=backend)

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Iterable[Sequence[Any]],
        total_work: int | None = None,
        backend: str | None = None,
        handles: Sequence[ShardHandle] = (),
    ) -> list[Any]:
        """Run ``fn`` over descriptor tasks; results in submission order.

        ``handles`` names the shard publications the tasks read.  Segments
        are materialised only when the resolved backend is ``process`` —
        serial maps resolve the same handles straight to the owner's
        objects, so in-process execution stays allocation-free.
        """
        task_list = [tuple(args) for args in tasks]
        resolved = self.executor.resolve_backend(
            len(task_list), total_work, backend=backend
        )
        if resolved == PROCESS:
            for handle in handles:
                self.registry.ensure_shared(handle)
        return self.executor.map(fn, task_list, total_work=total_work, backend=backend)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release what the pool owns: its registry's segments, its executor.

        A borrowed executor is left for its owner.
        """
        self.registry.close()
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.workers}, "
            f"backend={self.executor.backend or 'auto'}, "
            f"segments={len(self.registry.segment_names())}, "
            f"owns_executor={self._owns_executor})"
        )

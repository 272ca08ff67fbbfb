"""The superstep execution engine: run independent MPC tasks concurrently.

The paper's round bounds rest on work happening *in parallel across
machines*: the Lemma 2.1 edge-partition parts are oriented simultaneously,
and so are the Lemma 2.2 vertex-partition parts of the coloring.  The
simulated cost of such a superstep is charged on the ledger (max over the
parts); this module only decides where the host runs the parts.

:class:`ParallelExecutor` runs a list of independent tasks through one of two
backends:

* ``serial`` — a plain loop in the calling process (the reference semantics);
* ``process`` — :class:`concurrent.futures.ProcessPoolExecutor`, for
  CPU-bound pure-Python tasks on picklable inputs (the static ``orient()`` /
  ``color()`` part fan-out).  Task callables must be module-level functions.

The streaming stack does not use it: tenants and conflict groups run
in-process, one after another (see :mod:`repro.stream.engine`).

**Determinism contract.**  Results are identical for *any* worker count and
either backend: tasks receive no shared mutable state, task results are
returned in submission order, and randomness is consumed only through
per-task seed streams derived with :func:`derive_seed` — never through a
generator shared across tasks.

**Auto-picking serial.**  Spawning a pool costs more than small inputs are
worth.  When the backend is left unset (``backend=None``), the executor runs
serially unless there are at least two tasks, at least two workers, and the
caller-reported ``total_work`` clears :attr:`serial_work_threshold`; only
then does it use the process backend (the engine's tasks are CPU-bound).
An explicitly requested backend is always honored, which is what the
determinism tests use to pin each backend down on tiny inputs.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.errors import ParameterError, WorkerCrashError
from repro.obs.tracer import NULL_TRACER

SERIAL = "serial"
PROCESS = "process"
BACKENDS = (SERIAL, PROCESS)

_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int | None, index: int) -> int:
    """Deterministic per-task seed: splitmix64 of ``(base_seed, index)``.

    Tasks must not share one RNG (consumption order would then depend on the
    schedule); instead each task gets its own stream seeded by its *position*
    in the task list, so any worker count replays identical randomness.
    """
    x = ((0 if base_seed is None else base_seed) + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def seed_stream(base_seed: int | None, count: int) -> list[int]:
    """``count`` independent per-task seeds derived from one base seed."""
    if count < 0:
        raise ParameterError("count must be non-negative")
    return [derive_seed(base_seed, index) for index in range(count)]


def _timed_task(fn: Callable[..., Any], args: Sequence[Any]) -> tuple:
    """Run ``fn(*args)`` and report where/when it ran (tracing only).

    This wrapper is what stitches worker-side spans across the pickle
    boundary: it executes inside the worker and returns monotonic
    ``perf_counter_ns`` readings (CLOCK_MONOTONIC on Linux, comparable
    across processes on one machine) plus the worker's pid.  The parent
    unwraps the result in submission order, so tracing cannot reorder or
    alter what callers observe.
    """
    start_ns = time.perf_counter_ns()
    result = fn(*args)
    end_ns = time.perf_counter_ns()
    return result, os.getpid(), start_ns, end_ns


class ParallelExecutor:
    """Runs independent tasks concurrently, preserving submission order.

    Parameters
    ----------
    workers:
        Maximum number of concurrent workers (1 means serial).
    backend:
        ``"serial"``, ``"process"``, or ``None`` to auto-pick:
        serial for tiny inputs, process otherwise (see module docstring).
    serial_work_threshold:
        Auto-pick cutoff — with ``backend=None``, inputs whose reported
        ``total_work`` is below this run serially (pool startup would cost
        more than it buys).
    """

    def __init__(
        self,
        workers: int = 1,
        backend: str | None = None,
        serial_work_threshold: int = 20_000,
    ) -> None:
        if workers < 1:
            raise ParameterError("workers must be at least 1")
        if backend is not None and backend not in BACKENDS:
            raise ParameterError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.workers = workers
        self.backend = backend
        self.serial_work_threshold = serial_work_threshold
        # Pools are created lazily on first parallel map and then reused —
        # paying pool startup/teardown per call would swamp small inputs.
        self._pools: dict[str, ProcessPoolExecutor] = {}
        # Health counters, maintained whether or not tracing is attached —
        # `WorkerPool.stats()` reads them when diagnosing failures.
        self.tasks_run = 0
        self.respawns = 0
        self._tracer = NULL_TRACER

    def instrument(self, tracer) -> None:
        """Attach a tracer for map/task spans; ``None`` restores the no-op."""
        self._tracer = NULL_TRACER if tracer is None else tracer

    def live_workers(self) -> int:
        """Workers currently alive across this executor's lazy pools.

        Best-effort introspection of the stdlib pool internals (0 when no
        pool has been spun up yet) — used by ``WorkerPool.stats()``.
        """
        count = 0
        for pool in self._pools.values():
            processes = getattr(pool, "_processes", None) or {}
            count += sum(1 for process in processes.values() if process.is_alive())
        return count

    def resolve_backend(
        self,
        num_tasks: int,
        total_work: int | None = None,
        backend: str | None = None,
    ) -> str:
        """The backend a ``map`` call with these dimensions would use.

        ``backend`` is the per-call override (see :meth:`map`); when omitted
        the executor-level backend (or the auto pick) applies.
        """
        if self.workers <= 1 or num_tasks <= 1:
            return SERIAL
        if backend is None:
            backend = self.backend
        if backend is not None:
            return backend
        if total_work is not None and total_work < self.serial_work_threshold:
            return SERIAL
        return PROCESS

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Iterable[Sequence[Any]],
        total_work: int | None = None,
        backend: str | None = None,
    ) -> list[Any]:
        """Apply ``fn(*args)`` to every ``args`` tuple; results in task order.

        ``total_work`` is an optional size hint (e.g. total edges across
        parts) consulted by the auto backend pick.  ``backend`` overrides the
        executor-level backend for this call only.  On a failing task, the
        first (in-order) exception propagates — but only after pending
        sibling tasks are cancelled and running ones have finished, so the
        caller observes a quiescent state when it catches (the reused pool
        itself stays open until :meth:`close`).
        """
        if backend is not None and backend not in BACKENDS:
            raise ParameterError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        task_list = [tuple(args) for args in tasks]
        backend = self.resolve_backend(len(task_list), total_work, backend=backend)
        self.tasks_run += len(task_list)
        if self._tracer.enabled:
            return self._map_traced(fn, task_list, backend)
        if backend == SERIAL:
            return [fn(*args) for args in task_list]
        futures = self._submit_all(fn, task_list, backend)
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            # A worker died mid-superstep.  Discard the broken pool so the
            # next map respawns workers cleanly, and surface a typed error —
            # callers distinguish an infrastructure crash from a task bug.
            self._discard_pool(backend)
            raise WorkerCrashError(backend, str(exc)) from exc
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise

    def _map_traced(self, fn: Callable[..., Any], task_list: list, backend: str) -> list[Any]:
        """The :meth:`map` body with span recording (tracer attached).

        Identical result semantics: tasks run through the same backends in
        the same order; only timing is observed.  Pooled tasks run through
        :func:`_timed_task` and are unwrapped here in submission order.
        """
        tracer = self._tracer
        name = getattr(fn, "__name__", "task")
        with tracer.span(
            f"map:{name}", cat="executor", backend=backend, tasks=len(task_list)
        ) as map_span:
            if backend == SERIAL:
                results = []
                for args in task_list:
                    with tracer.span(f"task:{name}", cat="executor"):
                        results.append(fn(*args))
                return results
            submit_marks: list[int] = []
            futures = self._submit_all(
                _timed_task,
                [(fn, args) for args in task_list],
                backend,
                submit_marks=submit_marks,
            )
            try:
                outcomes = [future.result() for future in futures]
            except BrokenProcessPool as exc:
                self._discard_pool(backend)
                raise WorkerCrashError(backend, str(exc)) from exc
            except BaseException:
                for future in futures:
                    future.cancel()
                wait(futures)
                raise
            metrics = tracer.metrics
            results = []
            for outcome, submit_ns in zip(outcomes, submit_marks):
                result, worker, start_ns, end_ns = outcome
                tracer.record_span(
                    f"task:{name}",
                    start_ns,
                    end_ns,
                    cat="worker",
                    tid=worker,
                    parent=map_span.span_id,
                    args={"backend": backend},
                )
                metrics.observe(f"pool.queue_wait_ns.worker:{worker}", start_ns - submit_ns)
                metrics.observe(f"pool.run_ns.worker:{worker}", end_ns - start_ns)
                results.append(result)
            return results

    def _submit_all(
        self,
        fn: Callable[..., Any],
        task_list: list,
        backend: str,
        submit_marks: list[int] | None = None,
    ) -> list:
        """Submit every task to the (lazily created) pool for ``backend``."""
        pool = self._pools.get(backend)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pools[backend] = pool
        futures = []
        try:
            for args in task_list:
                if submit_marks is not None:
                    submit_marks.append(time.perf_counter_ns())
                futures.append(pool.submit(fn, *args))
        except BrokenProcessPool as exc:
            self._discard_pool(backend)
            raise WorkerCrashError(backend, str(exc)) from exc
        return futures

    def _discard_pool(self, backend: str) -> None:
        """Drop a (broken) pool; a later map lazily creates a fresh one."""
        pool = self._pools.pop(backend, None)
        if pool is not None:
            self.respawns += 1
            self._tracer.metrics.inc("pool.respawns")
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut down any pools this executor spun up (idempotent).

        Serial-only executors never create a pool, so closing them is free;
        owners of long-lived executors (services, benchmarks) should close
        on teardown to release worker processes promptly rather than waiting
        for garbage collection.
        """
        pools, self._pools = self._pools, {}
        for pool in pools.values():
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"ParallelExecutor(workers={self.workers}, backend={self.backend or 'auto'})"

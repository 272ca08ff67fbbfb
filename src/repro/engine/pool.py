"""The host fan-out: run independent MPC tasks concurrently.

The paper's round bounds rest on work happening *in parallel across
machines*: the Lemma 2.1 edge-partition parts are oriented simultaneously,
and so are the Lemma 2.2 vertex-partition parts of the coloring.  The
simulated cost of such a superstep is charged on the ledger (max over the
parts); this module only decides where the host runs the parts.

:class:`WorkerPool` runs a list of independent tasks either as a plain loop
in the calling process (the reference semantics) or on a lazily created
:class:`concurrent.futures.ProcessPoolExecutor`.  Task callables must be
module-level functions and their arguments picklable; a graph part travels
in the task tuple itself, which is cheap because ``Graph.__reduce__`` ships
only its two ``array('l')`` edge columns.  The streaming stack does not use
the pool: tenants and conflict groups run in-process (see
:mod:`repro.stream.engine`).

**Determinism contract.**  Results are identical for any worker count:
tasks receive no shared mutable state, results are returned in submission
order, and randomness is consumed only through per-task seed streams
(:func:`repro.engine.seeds.derive_seed`), never through a generator shared
across tasks.

**Serial or process.**  Spawning workers costs more than small inputs are
worth, so a map runs serially when ``workers <= 1``, when there is a single
task, or when the caller-reported ``total_work`` is below
:data:`SERIAL_WORK_THRESHOLD`.  Tests set the threshold to 0 to force the
process path on tiny inputs.

**Failure semantics.**  On a failing task the first (in-order) exception
propagates, but only after pending sibling tasks are cancelled and running
ones have finished, so the caller observes a quiescent state.  A worker
dying mid-superstep surfaces as a typed
:class:`~repro.errors.WorkerCrashError`; the broken executor is discarded
and the next map spawns fresh workers.
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

#: Maps whose reported ``total_work`` falls below this run serially.
SERIAL_WORK_THRESHOLD = 20_000


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


class WorkerPool:
    """Runs independent tasks concurrently, preserving submission order.

    ``workers`` is the maximum number of process workers (1 means serial).
    The process executor is created on the first parallel map and reused
    until :meth:`close`.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ParameterError("workers must be at least 1")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        self._tracer = NULL_TRACER

    def instrument(self, tracer) -> None:
        """Attach a tracer for map/task spans; ``None`` restores the no-op."""
        self._tracer = NULL_TRACER if tracer is None else tracer

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Iterable[Sequence[Any]],
        total_work: int | None = None,
    ) -> list[Any]:
        """Apply ``fn(*args)`` to every ``args`` tuple; results in task order.

        ``total_work`` is an optional size hint (e.g. total edges across
        parts) compared against :data:`SERIAL_WORK_THRESHOLD`.
        """
        task_list = [tuple(args) for args in tasks]
        parallel = (
            self.workers > 1
            and len(task_list) > 1
            and (total_work is None or total_work >= SERIAL_WORK_THRESHOLD)
        )
        if self._tracer.enabled:
            return self._map_traced(fn, task_list, parallel)
        if not parallel:
            return [fn(*args) for args in task_list]
        return self._run(fn, task_list)

    def _map_traced(self, fn: Callable[..., Any], task_list: list, parallel: bool) -> list[Any]:
        """The :meth:`map` body with span recording (tracer attached).

        Identical result semantics: tasks run on the same path in the same
        order; only timing is observed.  Process tasks run through
        :func:`_timed_task` and are unwrapped here in submission order.
        """
        tracer = self._tracer
        name = getattr(fn, "__name__", "task")
        backend = "process" if parallel else "serial"
        with tracer.span(
            f"map:{name}", cat="executor", backend=backend, tasks=len(task_list)
        ) as map_span:
            if not parallel:
                results = []
                for args in task_list:
                    with tracer.span(f"task:{name}", cat="executor"):
                        results.append(fn(*args))
                return results
            submit_marks: list[int] = []
            outcomes = self._run(
                _timed_task, [(fn, args) for args in task_list], submit_marks
            )
            metrics = tracer.metrics
            results = []
            for (result, worker, start_ns, end_ns), submit_ns in zip(outcomes, submit_marks):
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

    def _run(
        self,
        fn: Callable[..., Any],
        task_list: list,
        submit_marks: list[int] | None = None,
    ) -> list[Any]:
        """Run every task on the process executor; results in submission order."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        futures = []
        try:
            for args in task_list:
                if submit_marks is not None:
                    submit_marks.append(time.perf_counter_ns())
                futures.append(self._executor.submit(fn, *args))
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            # A worker died mid-superstep.  Discard the broken executor so the
            # next map respawns workers cleanly, and surface a typed error —
            # callers distinguish an infrastructure crash from a task bug.
            executor, self._executor = self._executor, None
            self._tracer.metrics.inc("pool.respawns")
            executor.shutdown(wait=False, cancel_futures=True)
            raise WorkerCrashError(str(exc)) from exc
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise

    def close(self) -> None:
        """Shut down the process workers, if any were spawned (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"WorkerPool(workers={self.workers})"

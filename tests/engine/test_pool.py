"""WorkerPool: ordering, the serial/process pick, failures, part shipping.

The pool is the only host fan-out object.  These tests pin its contract:

* results come back in submission order on either path, and a failing task
  propagates its exception;
* the serial/process pick follows ``workers``, the task count and
  :data:`repro.engine.pool.SERIAL_WORK_THRESHOLD`;
* a process worker dying mid-superstep surfaces as a typed
  :class:`~repro.errors.WorkerCrashError` and the next map respawns workers;
* the Lemma 2.1/2.2 parts that travel in the task tuples pickle to equal
  parts, and building a part's CSR does not grow its pickle.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.partitioning import random_edge_partition, random_vertex_partition
from repro.engine import WorkerPool
from repro.errors import ParameterError, WorkerCrashError
from repro.graph import generators
from repro.graph.generators import union_of_random_forests
from repro.obs import Tracer


def _square(x):
    return x * x


def _add(x, y):
    return x + y


def _boom(x):
    raise ValueError(f"task {x} failed")


def _pid():
    return os.getpid()


def _num_edges(part):
    return part.num_edges


def _die(part):  # pragma: no cover - runs in a worker it kills
    os._exit(13)


def _parts(seed=1, num_parts=4):
    graph = union_of_random_forests(200, arboricity=2, seed=seed)
    return random_edge_partition(graph, 8, seed=seed + 1, num_parts=num_parts).parts


class TestPathsAgree:
    def test_results_in_submission_order(self, fanout):
        with WorkerPool(3) as pool:
            assert pool.map(_square, [(i,) for i in range(17)]) == [
                i * i for i in range(17)
            ]

    def test_multi_argument_tasks(self, fanout):
        with WorkerPool(2) as pool:
            assert pool.map(_add, [(1, 2), (3, 4), (5, 6)]) == [3, 7, 11]

    def test_task_errors_propagate(self, fanout):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="task 1 failed"):
                pool.map(_boom, [(1,), (2,)])


class TestSerialOrProcess:
    def _pids(self, workers, num_tasks, total_work):
        with WorkerPool(workers) as pool:
            return set(pool.map(_pid, [()] * num_tasks, total_work=total_work))

    def test_single_worker_is_always_serial(self, force_process):
        assert self._pids(1, 4, 10**9) == {os.getpid()}

    def test_single_task_is_always_serial(self, force_process):
        assert self._pids(8, 1, 10**9) == {os.getpid()}

    def test_tiny_work_runs_serially(self):
        assert self._pids(2, 4, 100) == {os.getpid()}

    def test_large_work_runs_on_process_workers(self):
        assert os.getpid() not in self._pids(2, 4, 10**6)

    def test_unreported_work_runs_on_process_workers(self):
        assert os.getpid() not in self._pids(2, 4, None)

    def test_zero_threshold_forces_the_process_path(self, force_process):
        assert os.getpid() not in self._pids(2, 4, 100)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ParameterError, match="workers"):
            WorkerPool(workers)


class TestWorkerDeath:
    def test_death_mid_superstep_is_typed_and_the_pool_respawns(self, force_process):
        parts = _parts()
        tasks = [(part,) for part in parts]
        with WorkerPool(2) as pool:
            expected = pool.map(_num_edges, tasks)
            assert expected == [part.num_edges for part in parts]
            with pytest.raises(WorkerCrashError, match="respawn"):
                pool.map(_die, tasks)
            # The crash killed workers, not the pool: the next map respawns.
            assert pool.map(_num_edges, tasks) == expected

    def test_worker_crash_bumps_the_respawn_metric(self, force_process):
        tracer = Tracer()
        with WorkerPool(2) as pool:
            pool.instrument(tracer)
            with pytest.raises(WorkerCrashError):
                pool.map(_die, [(part,) for part in _parts()])
        assert tracer.metrics.snapshot()["counters"]["pool.respawns"] == 1

    def test_crash_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(WorkerCrashError("worker 7 gone")))
        assert isinstance(error, WorkerCrashError)
        assert error.detail == "worker 7 gone"
        assert "worker 7 gone" in str(error)


class TestLifecycle:
    def test_instrument_none_restores_the_null_tracer(self):
        with WorkerPool(1) as pool:
            tracer = Tracer()
            pool.instrument(tracer)
            assert pool._tracer is tracer
            pool.instrument(None)
            assert pool._tracer.enabled is False

    def test_close_is_idempotent(self, force_process):
        pool = WorkerPool(2)
        pool.map(_square, [(1,), (2,)])
        pool.close()
        pool.close()
        # A closed pool spawns fresh workers if it is used again.
        assert pool.map(_square, [(3,), (4,)]) == [9, 16]
        pool.close()


FAMILIES = ["union_forests", "power_law", "planted_dense", "grid", "gnp"]


def _family_graph(family):
    return generators.generate(family, 300, seed=5)


class TestPartShipping:
    """Parts travel by value in the task tuple; the pickle is the data plane."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_edge_partition_parts_round_trip(self, family):
        graph = _family_graph(family)
        for part in random_edge_partition(graph, 32, seed=2, num_parts=4).parts:
            clone = pickle.loads(pickle.dumps(part))
            assert type(clone) is type(part)
            assert clone == part
            assert clone.num_vertices == graph.num_vertices

    @pytest.mark.parametrize("family", FAMILIES)
    def test_vertex_partition_parts_round_trip_with_parent_ids(self, family):
        graph = _family_graph(family)
        for part in random_vertex_partition(graph, 32, seed=2, num_parts=4).parts:
            clone = pickle.loads(pickle.dumps(part))
            assert type(clone) is type(part)
            assert clone == part
            assert clone.parent_ids == part.parent_ids
            assert all(
                clone.to_local(parent) == local
                for local, parent in enumerate(part.parent_ids)
            )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_building_the_csr_does_not_grow_the_pickle(self, family):
        graph = _family_graph(family)
        parts = [
            *random_edge_partition(graph, 32, seed=2, num_parts=4).parts,
            *random_vertex_partition(graph, 32, seed=2, num_parts=4).parts,
        ]
        for part in parts:
            before = len(pickle.dumps(part))
            part.csr_indptr  # builds the CSR arrays
            assert len(pickle.dumps(part)) == before

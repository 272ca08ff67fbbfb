"""WorkerPool + ShardRegistry lifecycle edge cases (ISSUE 6 satellite).

Three failure modes the resident-pool refactor must survive:

* a process worker dying mid-superstep surfaces as a typed
  :class:`~repro.errors.WorkerCrashError`, the published segments (owned by
  the parent) survive, and the next map respawns workers and succeeds;
* a handle from a retired generation — republished or invalidated — is
  rejected with :class:`~repro.errors.StaleShardError` on every backend,
  never silently served old data through the pool's ``map`` gate;
* no shared-memory segments outlive their owner: explicit ``close`` and
  the ``atexit`` sweep for an owner that never closed both leave nothing
  behind (asserted by name-probing from a separate
  process with its own resource tracker).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.engine import PROCESS, WorkerPool, shm
from repro.errors import StaleShardError, WorkerCrashError
from repro.core.partitioning import random_edge_partition
from repro.graph.generators import union_of_random_forests

_PYTHONPATH = os.pathsep.join(
    path
    for path in (
        os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
        os.environ.get("PYTHONPATH", ""),
    )
    if path
)


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _PYTHONPATH
    return env


def _segment_exists(name: str) -> bool:
    """Probe a shared-memory segment by name from a separate process.

    The probe attaches (the only portable existence test), then unregisters
    from its *own* resource tracker before closing — otherwise the probe
    process would unlink the parent's live segment at exit.
    """
    script = (
        "import sys\n"
        "from multiprocessing import shared_memory, resource_tracker\n"
        "try:\n"
        "    segment = shared_memory.SharedMemory(name=sys.argv[1])\n"
        "except FileNotFoundError:\n"
        "    print('absent')\n"
        "else:\n"
        "    resource_tracker.unregister(segment._name, 'shared_memory')\n"
        "    segment.close()\n"
        "    print('present')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, name],
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip() == "present"


def _graph_and_parts(seed=1, num_parts=4):
    graph = union_of_random_forests(200, arboricity=2, seed=seed)
    parts = random_edge_partition(graph, 8, seed=seed + 1, num_parts=num_parts).parts
    return graph, parts


def _read_part_edges(handle, index):
    return shm.shard_graph(handle, index).num_edges


def _die(handle, index):  # pragma: no cover - runs in a worker it kills
    os._exit(13)


class TestWorkerDeath:
    def test_death_mid_superstep_is_typed_and_the_pool_respawns(self):
        graph, parts = _graph_and_parts()
        with WorkerPool(workers=2, backend=PROCESS) as pool:
            handle = pool.publish_edge_parts("parts", graph.num_vertices, parts)
            tasks = [(handle, i) for i in range(len(parts))]
            expected = pool.map(
                _read_part_edges, tasks, backend=PROCESS, handles=(handle,)
            )
            assert expected == [part.num_edges for part in parts]

            with pytest.raises(WorkerCrashError, match="respawn"):
                pool.map(_die, tasks, backend=PROCESS, handles=(handle,))

            # The crash killed workers, not segments: the publication is
            # still materialised and the next map respawns and succeeds.
            assert pool.registry.segment_names()
            again = pool.map(
                _read_part_edges, tasks, backend=PROCESS, handles=(handle,)
            )
            assert again == expected


class TestStaleGenerations:
    def test_republish_stales_old_handles_in_process(self):
        graph, parts = _graph_and_parts()
        with WorkerPool(workers=1) as pool:
            old = pool.publish_edge_parts("parts", graph.num_vertices, parts)
            assert shm.shard_graph(old, 0).num_edges == parts[0].num_edges
            fresh = pool.publish_edge_parts("parts", graph.num_vertices, parts)
            assert fresh.generation == old.generation + 1
            with pytest.raises(StaleShardError, match="republished as generation 2"):
                shm.shard_graph(old, 0)
            assert shm.shard_graph(fresh, 0).num_edges == parts[0].num_edges

    def test_invalidate_stales_handles_and_generation_never_reverts(self):
        graph, parts = _graph_and_parts()
        with WorkerPool(workers=1) as pool:
            old = pool.publish_edge_parts("parts", graph.num_vertices, parts)
            pool.registry.invalidate("parts")
            with pytest.raises(StaleShardError, match="invalidated"):
                shm.shard_graph(old, 0)
            # The tombstone carries the counter forward: a retired generation
            # number is never reused, so the old handle stays stale forever.
            fresh = pool.publish_edge_parts("parts", graph.num_vertices, parts)
            assert fresh.generation == old.generation + 1
            with pytest.raises(StaleShardError):
                shm.shard_graph(old, 0)

    def test_process_map_rejects_stale_handles_at_the_gate(self):
        graph, parts = _graph_and_parts()
        with WorkerPool(workers=2, backend=PROCESS) as pool:
            old = pool.publish_edge_parts("parts", graph.num_vertices, parts)
            pool.publish_edge_parts("parts", graph.num_vertices, parts)
            tasks = [(old, i) for i in range(len(parts))]
            # ensure_shared runs before any task ships: the stale handle is
            # rejected parent-side, workers never see it.
            with pytest.raises(StaleShardError, match="republished"):
                pool.map(_read_part_edges, tasks, backend=PROCESS, handles=(old,))

    def test_worker_attach_of_a_never_materialised_segment_is_typed(self):
        """A stale handle smuggled past the gate (not listed in ``handles``)
        still fails typed in the worker: the segment was never created, so
        the attach raises StaleShardError — which must survive the pickle
        trip back to the parent."""
        graph, parts = _graph_and_parts()
        with WorkerPool(workers=2, backend=PROCESS) as pool:
            handle = pool.publish_edge_parts("parts", graph.num_vertices, parts)
            tasks = [(handle, i) for i in range(len(parts))]
            with pytest.raises(StaleShardError, match="never materialised"):
                pool.map(_read_part_edges, tasks, backend=PROCESS, handles=())


class TestStatsAndInstrumentation:
    def test_stats_counts_tasks_segments_and_generations(self):
        graph, parts = _graph_and_parts()
        with WorkerPool(workers=2) as pool:
            stats = pool.stats()
            assert stats["workers"] == 2
            assert stats["tasks_run"] == 0
            assert stats["respawns"] == 0
            handle = pool.publish_edge_parts("parts", graph.num_vertices, parts)
            pool.registry.ensure_shared(handle)
            pool.map(_read_part_edges, [(handle, i) for i in range(len(parts))])
            stats = pool.stats()
            assert stats["tasks_run"] == len(parts)
            assert stats["segments"] >= 1
            assert stats["registry_keys"] >= 1
            assert stats["registry_generations"] >= 1
            pool.publish_edge_parts("parts", graph.num_vertices, parts)
            assert pool.stats()["registry_generations"] >= 2

    def test_worker_crash_bumps_the_respawn_counter_and_metric(self):
        from repro.obs import Tracer

        graph, parts = _graph_and_parts()
        tracer = Tracer()
        with WorkerPool(workers=2, backend=PROCESS) as pool:
            pool.instrument(tracer)
            handle = pool.publish_edge_parts("parts", graph.num_vertices, parts)
            tasks = [(handle, i) for i in range(len(parts))]
            with pytest.raises(WorkerCrashError):
                pool.map(_die, tasks, backend=PROCESS, handles=(handle,))
            assert pool.stats()["respawns"] == 1
            assert tracer.metrics.snapshot()["counters"]["pool.respawns"] == 1
            assert tracer.metrics.snapshot()["counters"]["shm.publishes"] == 1

    def test_instrument_none_restores_the_null_tracer(self):
        from repro.obs import Tracer

        with WorkerPool(workers=1) as pool:
            tracer = Tracer()
            pool.instrument(tracer)
            assert pool.executor._tracer is tracer
            pool.instrument(None)
            assert pool.executor._tracer.enabled is False
            assert pool.registry.metrics.enabled is False

class TestSegmentCleanup:
    def test_pool_close_unlinks_every_segment(self):
        graph, parts = _graph_and_parts()
        pool = WorkerPool(workers=1)
        handle = pool.publish_edge_parts("parts", graph.num_vertices, parts)
        pool.registry.ensure_shared(handle)
        names = pool.registry.segment_names()
        assert names
        assert all(_segment_exists(name) for name in names)
        pool.close()
        assert pool.registry.segment_names() == ()
        assert not any(_segment_exists(name) for name in names)

    def test_atexit_sweep_reclaims_a_forgotten_owners_segments(self):
        """An owner that exits without ever calling close leaks nothing: the
        module's atexit sweep unlinks whatever the process still owns."""
        script = (
            "from repro.engine.shm import ShardRegistry, publish_edge_parts\n"
            "from repro.graph.graph import Graph\n"
            "registry = ShardRegistry()\n"
            "handle = publish_edge_parts(registry, 'probe', 2, [Graph(2, [(0, 1)])])\n"
            "registry.ensure_shared(handle)\n"
            "print(handle.segment_name)\n"
            "# deliberately no close(): atexit must sweep\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=_subprocess_env(),
        )
        name = result.stdout.strip()
        assert name.startswith("rp")
        assert not _segment_exists(name)

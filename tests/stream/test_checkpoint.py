"""Checkpoint/restore: byte-identity, the crash matrix, and corruption.

ISSUE 10 acceptance: restore-after-crash is byte-identical to the
uninterrupted run across kernels {pure, numpy} × scheduling policies × crash
ticks; a truncated or corrupted snapshot raises a typed :class:`~repro.errors.CheckpointError` and the engine under
construction is torn down, never half-restored.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.engine import derive_seed
from repro.errors import CheckpointError, GraphError, QuotaExceededError
from repro.graph.generators import union_of_random_forests
from repro.stream import checkpoint
from repro.stream.engine import StreamEngine, TenantState
from repro.stream.scheduler import POLICIES, make_planner
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch
from repro.stream.workloads import multi_tenant_traces


def _fleet(seed=5):
    return multi_tenant_traces(
        num_tenants=3,
        num_vertices=64,
        num_batches=3,
        batch_size=30,
        seed=seed,
    )


def _loaded_engine(traces, seed=9, **kwargs):
    engine = StreamEngine(seed=seed, **kwargs)
    for trace in traces:
        engine.add_tenant(trace.name, trace.initial)
        engine.submit_all(trace.name, trace.batches)
    return engine


def _reference_fingerprint(traces, seed=9, **kwargs):
    """Fingerprint of the uninterrupted run."""
    with _loaded_engine(traces, seed=seed, **kwargs) as engine:
        engine.run_until_drained()
        engine.verify()
        return checkpoint.fingerprint(engine)


def _summary_rows(summary):
    return [tuple(sorted(report.as_dict().items())) for report in summary.reports]


class TestRoundtrip:
    def test_restore_is_byte_identical_at_every_tick_boundary(self, tmp_path):
        """Checkpoint after each tick; every restore must match the original
        engine field-for-field — heads, colors, rounds, queues, ticks."""
        traces = _fleet()
        with _loaded_engine(traces) as engine:
            tick_index = 0
            while engine.pending():
                engine.tick()
                tick_index += 1
                path = tmp_path / f"tick-{tick_index}.json"
                saved = engine.checkpoint(path)
                assert saved["fingerprint"] == checkpoint.fingerprint_digest(engine)
                restored = StreamEngine.restore(path)
                try:
                    assert checkpoint.fingerprint(restored) == (
                        checkpoint.fingerprint(engine)
                    )
                    assert restored.pending() == engine.pending()
                    assert len(restored.ticks) == len(engine.ticks)
                    assert _summary_rows(restored.summary) == (
                        _summary_rows(engine.summary)
                    )
                    for name in engine.tenant_names():
                        assert _summary_rows(restored.tenant_summary(name)) == (
                            _summary_rows(engine.tenant_summary(name))
                        )
                finally:
                    restored.close()

    def test_restored_engine_drains_to_the_uninterrupted_outcome(self, tmp_path):
        traces = _fleet()
        reference = _reference_fingerprint(traces)
        path = tmp_path / "ck.json"
        with _loaded_engine(traces) as engine:
            engine.tick()
            engine.checkpoint(path)
        # the ``with`` closed the engine: that is the crash
        restored = StreamEngine.restore(path)
        try:
            restored.run_until_drained()
            restored.verify()
            assert checkpoint.fingerprint(restored) == reference
        finally:
            restored.close()

    def test_checkpoint_file_is_a_versioned_checksummed_container(self, tmp_path):
        path = tmp_path / "ck.json"
        with _loaded_engine(_fleet()) as engine:
            engine.run_until_drained()
            engine.checkpoint(path)
        container = json.loads(path.read_text())
        assert container["format"] == checkpoint.CHECKPOINT_FORMAT
        assert container["version"] == checkpoint.CHECKPOINT_VERSION
        assert len(container["checksum"]) == 64
        assert container["payload"]["fingerprint"]
        # atomic write: no temp file left behind
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_planner_credits_survive_the_roundtrip(self, tmp_path):
        """DRR deficits and cursor are part of the contract: a restored
        engine must schedule the next tick exactly like the original."""
        traces = _fleet()
        path = tmp_path / "ck.json"
        with _loaded_engine(
            traces, planner="deficit-round-robin", round_budget=40
        ) as engine:
            engine.tick()
            engine.checkpoint(path)
            expected = engine.planner.state_dict()
            restored = StreamEngine.restore(path)
            try:
                assert restored.planner.state_dict() == expected
                restored.run_until_drained()
                restored.verify()
                engine.run_until_drained()
                assert checkpoint.fingerprint(restored) == (
                    checkpoint.fingerprint(engine)
                )
            finally:
                restored.close()


class TestCrashRestoreMatrix:
    """The acceptance matrix: crash after each tick (0 = before the first,
    3 = after the last batch under serve-all), restore, drain —
    byte-identical to the uninterrupted run under every scheduling policy,
    re-run per kernel backend via the ``kernel_backend`` fixture."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("crash_after", [0, 1, 2, 3])
    def test_crash_restore_matches_uninterrupted(
        self, crash_after, policy, kernel_backend, tmp_path
    ):
        traces = _fleet()
        reference = _reference_fingerprint(traces, **self._options(policy))
        path = tmp_path / "crash.json"
        with _loaded_engine(traces, **self._options(policy)) as engine:
            for _ in range(crash_after):
                engine.tick()
            engine.checkpoint(path)

        restored = StreamEngine.restore(path)
        try:
            restored.run_until_drained()
            restored.verify()
            assert checkpoint.fingerprint(restored) == reference
        finally:
            restored.close()

    @staticmethod
    def _options(policy):
        """Engine options for ``policy``: a fresh planner per engine, since
        planners carry scheduling state."""
        if policy == "top-k-backlog":
            return {"planner": make_planner("top-k-backlog", k=1)}
        if policy == "deficit-round-robin":
            return {"planner": "deficit-round-robin", "round_budget": 40}
        return {"planner": policy}


class TestCheckpointDuringInFlightTick:
    def test_checkpoint_waits_for_the_tick_boundary(self, tmp_path, monkeypatch):
        """A checkpoint issued while a tick is mid-flight must block on the
        engine lock and snapshot the *post*-tick state."""
        entered = threading.Event()
        original = StreamingService.apply

        def slow_apply(service, batch):
            entered.set()
            # hold the tick (and the engine lock) long enough for the main
            # thread to be blocked inside checkpoint()
            threading.Event().wait(0.2)
            return original(service, batch)

        monkeypatch.setattr(StreamingService, "apply", slow_apply)
        traces = _fleet()
        path = tmp_path / "inflight.json"
        with _loaded_engine(traces) as engine:
            ticker = threading.Thread(target=engine.tick)
            ticker.start()
            assert entered.wait(5.0)  # the tick holds the lock from here on
            engine.checkpoint(path)
            ticker.join(5.0)
            assert not ticker.is_alive()
            restored = StreamEngine.restore(path)
            try:
                assert len(restored.ticks) == 1  # post-tick, never mid-tick
                assert checkpoint.fingerprint(restored) == (
                    checkpoint.fingerprint(engine)
                )
            finally:
                restored.close()


class TestLifecycleStatesSurvive:
    @staticmethod
    def _quota_for(initial, seed):
        probe = StreamingService(initial, seed=seed)
        peak = probe.cluster.stats.peak_global_memory_words
        in_use = probe.cluster.global_memory_in_use()
        return max(peak, in_use) + 20

    @staticmethod
    def _breaching_batch(initial, count=30):
        ops = []
        for u in range(initial.num_vertices):
            for v in range(u + 1, initial.num_vertices):
                if not initial.has_edge(u, v):
                    ops.append(("+", u, v))
                    if len(ops) == count:
                        return UpdateBatch.from_ops(ops)
        raise AssertionError("graph too dense")

    def test_quarantine_survives_and_lift_resumes_after_restore(self, tmp_path):
        initial = union_of_random_forests(48, arboricity=1, seed=3)
        quota = self._quota_for(initial, derive_seed(5, 0))
        path = tmp_path / "quarantined.json"
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("hog", initial, memory_quota=quota)
            engine.submit("hog", self._breaching_batch(initial))
            with pytest.raises(QuotaExceededError):
                engine.tick()
            assert engine.tenant_state("hog") is TenantState.QUARANTINED
            engine.checkpoint(path)
            original_breach = str(engine.quarantined()["hog"])
        restored = StreamEngine.restore(path)
        try:
            assert restored.tenant_state("hog") is TenantState.QUARANTINED
            assert str(restored.quarantined()["hog"]) == original_breach
            assert restored.pending("hog") == 1  # the queue survived intact
            restored.lift_quarantine("hog", new_quota=quota + 1000)
            restored.run_until_drained(max_ticks=10)
            restored.verify()
            assert restored.tenant_summary("hog").num_batches == 1
        finally:
            restored.close()

    def test_retired_tenant_survives_with_its_frozen_summary(self, tmp_path):
        traces = _fleet()
        path = tmp_path / "retired.json"
        with _loaded_engine(traces) as engine:
            engine.run_until_drained()
            final = engine.retire_tenant(traces[0].name)
            engine.checkpoint(path)
        restored = StreamEngine.restore(path)
        try:
            name = traces[0].name
            assert restored.tenant_state(name) is TenantState.RETIRED
            assert _summary_rows(restored.tenant_summary(name)) == (
                _summary_rows(final)
            )
            with pytest.raises(GraphError, match="retired"):
                restored.tenant_service(name)
            with pytest.raises(GraphError, match="cannot submit"):
                restored.submit(name, UpdateBatch.from_ops([("+", 0, 1)]))
            # live siblings still drain and verify
            restored.verify()
        finally:
            restored.close()


class TestCorruption:
    """Every malformed snapshot raises a typed CheckpointError, and a failed
    restore leaves nothing behind — no engine, no threads, no segments."""

    @pytest.fixture()
    def snapshot(self, tmp_path):
        path = tmp_path / "good.json"
        with _loaded_engine(_fleet()) as engine:
            engine.tick()
            engine.checkpoint(path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            StreamEngine.restore(tmp_path / "absent.json")

    def test_truncated_file(self, snapshot):
        blob = snapshot.read_bytes()
        snapshot.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupted"):
            StreamEngine.restore(snapshot)

    def test_wrong_format_marker(self, snapshot):
        container = json.loads(snapshot.read_text())
        container["format"] = "not-a-checkpoint"
        snapshot.write_text(json.dumps(container))
        with pytest.raises(CheckpointError, match="is not a"):
            StreamEngine.restore(snapshot)

    def test_unsupported_version(self, snapshot):
        container = json.loads(snapshot.read_text())
        container["version"] = checkpoint.CHECKPOINT_VERSION + 1
        snapshot.write_text(json.dumps(container))
        with pytest.raises(CheckpointError, match="version"):
            StreamEngine.restore(snapshot)

    def test_version_1_container_is_refused(self, snapshot):
        """Version 1 stored per-machine ledger records; version 2 stores keyed
        records, spread totals and the peak, so a v1 file cannot restore."""
        assert checkpoint.CHECKPOINT_VERSION == 2
        container = json.loads(snapshot.read_text())
        container["version"] = 1
        snapshot.write_text(json.dumps(container))
        with pytest.raises(CheckpointError, match="has version 1; this build restores version 2"):
            StreamEngine.restore(snapshot)

    def test_missing_checksum(self, snapshot):
        container = json.loads(snapshot.read_text())
        del container["checksum"]
        snapshot.write_text(json.dumps(container))
        with pytest.raises(CheckpointError, match="missing payload or checksum"):
            StreamEngine.restore(snapshot)

    def test_bit_rot_fails_the_checksum(self, snapshot):
        container = json.loads(snapshot.read_text())
        container["payload"]["seed"] += 1  # payload altered, checksum stale
        snapshot.write_text(json.dumps(container))
        with pytest.raises(CheckpointError, match="failed its checksum"):
            StreamEngine.restore(snapshot)

    @staticmethod
    def _reseal(snapshot, container):
        """Recompute the checksum after a hand-edit (a plausible attacker /
        fat-fingered operator) so only the deeper defenses can catch it."""
        container["checksum"] = checkpoint.fingerprint_digest(container["payload"])
        snapshot.write_text(json.dumps(container))

    def test_resealed_edit_fails_the_fingerprint_check(self, snapshot):
        container = json.loads(snapshot.read_text())
        tenants = container["payload"]["tenants"]
        tenants[0]["service"]["coloring"]["colors"][0] += 1
        self._reseal(snapshot, container)
        with pytest.raises(CheckpointError, match="does not match"):
            StreamEngine.restore(snapshot)

    def test_live_tenant_without_service_state_is_rejected(self, snapshot):
        container = json.loads(snapshot.read_text())
        container["payload"]["tenants"][0]["service"] = None
        self._reseal(snapshot, container)
        with pytest.raises(CheckpointError, match="not retired"):
            StreamEngine.restore(snapshot)

    def test_unknown_planner_policy_is_a_checkpoint_error(self, snapshot):
        container = json.loads(snapshot.read_text())
        container["payload"]["planner"]["policy"] = "bogus-policy"
        self._reseal(snapshot, container)
        with pytest.raises(CheckpointError, match="malformed"):
            StreamEngine.restore(snapshot)

    def test_structurally_broken_payload_is_a_checkpoint_error(self, snapshot):
        container = json.loads(snapshot.read_text())
        service = container["payload"]["tenants"][0]["service"]
        del service["dynamic"]["journal_ops"]
        self._reseal(snapshot, container)
        with pytest.raises(CheckpointError, match="malformed"):
            StreamEngine.restore(snapshot)

    def test_failed_restores_leak_no_threads(self, snapshot):
        container = json.loads(snapshot.read_text())
        container["payload"]["tenants"][0]["service"]["coloring"]["colors"][0] += 1
        self._reseal(snapshot, container)
        before = threading.active_count()
        for _ in range(3):
            with pytest.raises(CheckpointError):
                StreamEngine.restore(snapshot)
        assert threading.active_count() == before

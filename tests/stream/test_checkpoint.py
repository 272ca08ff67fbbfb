"""Checkpoint/restore: byte-identity, the crash matrix, and corruption.

ISSUE 10 acceptance: restore-after-crash is byte-identical to the
uninterrupted run across kernels {pure, numpy} × scheduling policies × crash
ticks; a truncated or corrupted snapshot raises a typed :class:`~repro.errors.CheckpointError` and the engine under
construction is torn down, never half-restored.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _read_container(path):
    """The container as one dict: the header fields plus the parsed payload."""
    head, _, body = path.read_bytes().partition(b"\n")
    container = json.loads(head)
    container["payload"] = json.loads(body)
    return container


def _write_container(path, container):
    """Write a hand-edited container back in the header-line + body layout.

    The header fields go on line 1 and the canonical payload follows, with
    ``payload_bytes`` set to the body's length as the writer does.  The
    checksum is written as given, so a stale one stays stale.
    """
    header = {key: value for key, value in container.items() if key != "payload"}
    body = json.dumps(
        container["payload"], sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    header["payload_bytes"] = len(body)
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + body)


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
        container = _read_container(path)
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
        container = _read_container(snapshot)
        container["format"] = "not-a-checkpoint"
        _write_container(snapshot, container)
        with pytest.raises(CheckpointError, match="is not a"):
            StreamEngine.restore(snapshot)

    def test_unsupported_version(self, snapshot):
        container = _read_container(snapshot)
        container["version"] = checkpoint.CHECKPOINT_VERSION + 1
        _write_container(snapshot, container)
        with pytest.raises(CheckpointError, match="version"):
            StreamEngine.restore(snapshot)

    @pytest.mark.parametrize("old_version", [1, 2])
    def test_version_1_and_2_containers_are_refused(self, snapshot, old_version):
        """Versions 1 and 2 held the payload inline in one JSON object (and
        version 1 stored per-machine ledger records), so neither restores."""
        assert checkpoint.CHECKPOINT_VERSION == 5
        container = _read_container(snapshot)
        container["version"] = old_version
        snapshot.write_text(json.dumps(container))  # the old one-object layout
        with pytest.raises(
            CheckpointError,
            match=f"has version {old_version}; this build restores version 5",
        ):
            StreamEngine.restore(snapshot)

    def test_version_3_container_is_refused(self, snapshot):
        """Version 3 had today's layout, but its orientation state carried a
        ``proactive_flips`` switch that could be off; such a file must be
        refused by its version, not restored into different behaviour."""
        container = _read_container(snapshot)
        for tenant in container["payload"]["tenants"]:
            if tenant["service"] is not None:
                tenant["service"]["orientation"]["proactive_flips"] = False
        container["version"] = 3
        self._reseal(snapshot, container)
        with pytest.raises(
            CheckpointError, match="has version 3; this build restores version 5"
        ):
            StreamEngine.restore(snapshot)

    def test_version_4_container_is_refused(self, snapshot):
        """Version 4 stored each graph's op-log journal columns in place of
        the sorted overlay key columns; such a file is refused by version."""
        container = _read_container(snapshot)
        for tenant in container["payload"]["tenants"]:
            dynamic = tenant["service"]["dynamic"]
            stride = dynamic["num_vertices"]
            ops = [(1, key) for key in dynamic.pop("added_keys")]
            ops += [(0, key) for key in dynamic.pop("removed_keys")]
            del dynamic["journal_length"]
            dynamic["journal_ops"] = [op for op, _ in ops]
            dynamic["journal_u"] = [key // stride for _, key in ops]
            dynamic["journal_v"] = [key % stride for _, key in ops]
        container["version"] = 4
        self._reseal(snapshot, container)
        with pytest.raises(
            CheckpointError, match="has version 4; this build restores version 5"
        ):
            StreamEngine.restore(snapshot)

    def test_missing_checksum(self, snapshot):
        container = _read_container(snapshot)
        del container["checksum"]
        _write_container(snapshot, container)
        with pytest.raises(CheckpointError, match="missing payload or checksum"):
            StreamEngine.restore(snapshot)

    def test_bit_rot_fails_the_checksum(self, snapshot):
        container = _read_container(snapshot)
        container["payload"]["seed"] += 1  # payload altered, checksum stale
        _write_container(snapshot, container)
        with pytest.raises(CheckpointError, match="failed its checksum"):
            StreamEngine.restore(snapshot)

    @staticmethod
    def _reseal(snapshot, container):
        """Recompute the checksum after a hand-edit (a plausible attacker /
        fat-fingered operator) so only the deeper defenses can catch it."""
        container["checksum"] = checkpoint.fingerprint_digest(container["payload"])
        _write_container(snapshot, container)

    def test_resealed_edit_fails_the_fingerprint_check(self, snapshot):
        container = _read_container(snapshot)
        tenants = container["payload"]["tenants"]
        tenants[0]["service"]["coloring"]["colors"][0] += 1
        self._reseal(snapshot, container)
        with pytest.raises(CheckpointError, match="does not match"):
            StreamEngine.restore(snapshot)

    def test_live_tenant_without_service_state_is_rejected(self, snapshot):
        container = _read_container(snapshot)
        container["payload"]["tenants"][0]["service"] = None
        self._reseal(snapshot, container)
        with pytest.raises(CheckpointError, match="not retired"):
            StreamEngine.restore(snapshot)

    def test_unknown_planner_policy_is_a_checkpoint_error(self, snapshot):
        container = _read_container(snapshot)
        container["payload"]["planner"]["policy"] = "bogus-policy"
        self._reseal(snapshot, container)
        with pytest.raises(CheckpointError, match="malformed"):
            StreamEngine.restore(snapshot)

    def test_structurally_broken_payload_is_a_checkpoint_error(self, snapshot):
        container = _read_container(snapshot)
        service = container["payload"]["tenants"][0]["service"]
        del service["dynamic"]["removed_keys"]
        self._reseal(snapshot, container)
        with pytest.raises(CheckpointError, match="malformed"):
            StreamEngine.restore(snapshot)

    @staticmethod
    def _break_overlay(dynamic, how):
        added, removed = dynamic["added_keys"], dynamic["removed_keys"]
        n = dynamic["num_vertices"]
        base = {u * n + v for u, v in zip(dynamic["base_u"], dynamic["base_v"])}
        if how == "unsorted":
            added[0], added[1] = added[1], added[0]
        elif how == "duplicate":
            removed.append(removed[-1])
        elif how == "negative":
            removed.insert(0, -1)
        elif how == "out-of-range":
            added.append(n * n)  # u = n
        elif how == "not-canonical":
            added.append((n - 1) * n)  # (n - 1, 0)
        elif how == "added-in-base":
            added[:] = sorted({*added, min(base)})
        elif how == "removed-not-in-base":
            off_base = min(u * n + v for u in range(n) for v in range(u + 1, n)
                           if u * n + v not in base)
            removed[:] = sorted({*removed, off_base})

    @pytest.mark.parametrize(
        "how",
        ["unsorted", "duplicate", "negative", "out-of-range", "not-canonical",
         "added-in-base", "removed-not-in-base"],
    )
    def test_malformed_overlay_columns_are_refused(self, snapshot, how):
        """The fingerprint cannot see an unsorted or duplicated key column
        (the restored sets would match), so the restore itself refuses any
        overlay column that is not strictly ascending keys of in-range
        canonical edges — additions off the base, tombstones on it."""
        container = _read_container(snapshot)
        self._break_overlay(container["payload"]["tenants"][0]["service"]["dynamic"], how)
        self._reseal(snapshot, container)
        before = threading.active_count()
        with pytest.raises(CheckpointError, match="malformed: overlay column"):
            StreamEngine.restore(snapshot)
        assert threading.active_count() == before

    def test_failed_restores_leak_no_threads(self, snapshot):
        container = _read_container(snapshot)
        container["payload"]["tenants"][0]["service"]["coloring"]["colors"][0] += 1
        self._reseal(snapshot, container)
        before = threading.active_count()
        for _ in range(3):
            with pytest.raises(CheckpointError):
                StreamEngine.restore(snapshot)
        assert threading.active_count() == before

    def test_body_truncated_under_an_intact_header(self, snapshot):
        blob = snapshot.read_bytes()
        snapshot.write_bytes(blob[:-1])  # header intact, last body byte gone
        with pytest.raises(CheckpointError, match="truncated or corrupted"):
            StreamEngine.restore(snapshot)

    def test_one_flipped_body_byte_fails_the_checksum(self, snapshot):
        blob = bytearray(snapshot.read_bytes())
        blob[(blob.index(b"\n") + len(blob)) // 2] ^= 0x01  # mid-body
        snapshot.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="failed its checksum"):
            StreamEngine.restore(snapshot)

    def test_header_without_newline_is_refused(self, snapshot):
        head = snapshot.read_bytes().partition(b"\n")[0]
        snapshot.write_bytes(head)
        with pytest.raises(CheckpointError, match="missing payload or checksum"):
            StreamEngine.restore(snapshot)

    def test_empty_file_is_refused(self, snapshot):
        snapshot.write_bytes(b"")
        with pytest.raises(CheckpointError, match="truncated or corrupted"):
            StreamEngine.restore(snapshot)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (str, "malformed payload_bytes"),
            (float, "malformed payload_bytes"),
            (lambda size: True, "malformed payload_bytes"),
            (lambda size: -1, "malformed payload_bytes"),
            (lambda size: None, "missing payload or checksum"),
            (lambda size: size + 1, "truncated or corrupted"),
            (lambda size: size - 1, "truncated or corrupted"),
        ],
        ids=["str", "float", "bool", "negative", "null", "one-long", "one-short"],
    )
    def test_bad_payload_bytes_is_refused(self, snapshot, edit, message):
        head, _, body = snapshot.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["payload_bytes"] = edit(header["payload_bytes"])
        snapshot.write_bytes(json.dumps(header).encode("ascii") + b"\n" + body)
        with pytest.raises(CheckpointError, match=message):
            StreamEngine.restore(snapshot)

    def test_checksummed_body_that_is_not_json_is_refused(self, snapshot):
        header = json.loads(snapshot.read_bytes().partition(b"\n")[0])
        body = b'{"seed":'
        header["payload_bytes"] = len(body)
        header["checksum"] = hashlib.sha256(body).hexdigest()
        snapshot.write_bytes(json.dumps(header).encode("ascii") + b"\n" + body)
        with pytest.raises(CheckpointError, match="payload is not valid JSON"):
            StreamEngine.restore(snapshot)


class TestContainer:
    def test_body_is_the_canonical_payload_under_a_one_line_header(self, tmp_path):
        path = tmp_path / "ck.json"
        with _loaded_engine(_fleet()) as engine:
            engine.tick()
            engine.checkpoint(path)
        head, newline, body = path.read_bytes().partition(b"\n")
        assert newline and b"\n" not in body
        header = json.loads(head)
        assert sorted(header) == ["checksum", "format", "payload_bytes", "version"]
        assert header["payload_bytes"] == len(body)
        payload = checkpoint.read_checkpoint(path)
        assert body == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("ascii")
        # the checksum value is the one earlier versions recorded
        assert header["checksum"] == hashlib.sha256(body).hexdigest()
        assert header["checksum"] == checkpoint.fingerprint_digest(payload)

    def test_orientation_state_carries_no_behaviour_switch(self, tmp_path):
        """Version 5 stores the orientation's heads, λ̂, cap, counters and
        maintenance parameters, and no ``proactive_flips`` switch."""
        path = tmp_path / "ck.json"
        with _loaded_engine(_fleet()) as engine:
            engine.tick()
            engine.checkpoint(path)
        container = _read_container(path)
        assert container["version"] == checkpoint.CHECKPOINT_VERSION == 5
        states = [
            tenant["service"]["orientation"]
            for tenant in container["payload"]["tenants"]
            if tenant["service"] is not None
        ]
        assert len(states) == 3
        for state in states:
            assert sorted(state) == [
                "delta",
                "flip_slack",
                "flips",
                "heads",
                "indptr",
                "lambda_bound",
                "opportunistic_flips",
                "outdegree_cap",
                "quality_interval",
                "rebuild_reasons",
                "rebuilds",
                "seed",
                "updates_since_check",
            ]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "ck"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            checkpoint.write_checkpoint(target, {"seed": 1})
        assert os.listdir(tmp_path) == ["ck"]
        assert os.listdir(target) == []


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=12,
)


@settings(max_examples=25, deadline=None)
@given(payload=_JSON_VALUES)
@example(payload={"line\nbreak": ["é\n€ 𝔸", 2**64 + 1, -(2**70), 0.1, True, None]})
def test_any_json_payload_roundtrips_and_every_prefix_is_refused(
    tmp_path_factory, payload
):
    path = tmp_path_factory.mktemp("roundtrip") / "ck.json"
    checkpoint.write_checkpoint(path, payload)
    assert checkpoint.read_checkpoint(path) == payload
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            checkpoint.read_checkpoint(path)

"""Exported trace shape: event fields, parent chains, laminar nesting.

The Chrome payload is the contract the ``--trace`` CLI flag and the CI
trace-smoke step rely on: every event a complete ("X") event with
``ph/ts/dur/pid/tid``, the engine's tick → tenant → batch parent chain
intact, planner decisions annotated on tick spans, and — per tid — spans
forming a laminar family (properly nested, never partially overlapping).
"""

from __future__ import annotations

import pytest

from repro.core.coloring import color
from repro.core.orientation import orient
from repro.graph.generators import union_of_random_forests
from repro.obs import Tracer
from repro.stream.engine import StreamEngine
from repro.stream.scheduler import make_planner
from repro.stream.workloads import multi_tenant_traces

REQUIRED_EVENT_FIELDS = ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args")


@pytest.fixture(scope="module")
def engine_payload():
    """One traced budgeted multi-tenant run, shared across the module."""
    tracer = Tracer()
    traces = multi_tenant_traces(
        num_tenants=3, num_vertices=64, num_batches=2, batch_size=24, seed=7
    )
    with StreamEngine(
        seed=7,
        tracer=tracer,
        planner=make_planner("top-k-backlog", k=2),
        round_budget=48,
    ) as engine:
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial)
            engine.submit_all(trace.name, trace.batches)
        engine.run_until_drained(max_ticks=50)
        engine.verify()
    return tracer.chrome_payload()


def _events_by_id(payload):
    return {event["args"]["id"]: event for event in payload["traceEvents"]}


class TestEventSchema:
    def test_every_event_is_a_complete_event_with_required_fields(self, engine_payload):
        events = engine_payload["traceEvents"]
        assert events
        for event in events:
            for field in REQUIRED_EVENT_FIELDS:
                assert field in event, event
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0

    def test_events_are_sorted_by_timestamp(self, engine_payload):
        timestamps = [event["ts"] for event in engine_payload["traceEvents"]]
        assert timestamps == sorted(timestamps)

    def test_metrics_snapshot_rides_along(self, engine_payload):
        counters = engine_payload["metrics"]["counters"]
        tick_count = sum(
            1 for event in engine_payload["traceEvents"] if event["name"] == "tick"
        )
        assert counters["engine.ticks"] == tick_count
        assert counters["engine.tenants_served"] > 0
        assert counters["engine.tenants_deferred"] > 0  # K=2 of 3 defers someone


class TestParentChains:
    def test_tick_tenant_batch_chain(self, engine_payload):
        by_id = _events_by_id(engine_payload)
        chains = 0
        for event in engine_payload["traceEvents"]:
            if event["name"] != "batch":
                continue
            tenant = by_id.get(event["args"].get("parent"))
            assert tenant is not None and tenant["name"] == "tenant", event
            tick = by_id.get(tenant["args"].get("parent"))
            assert tick is not None and tick["name"] == "tick", tenant
            chains += 1
        assert chains > 0

    def test_tick_spans_carry_planner_decisions_and_ledger_deltas(self, engine_payload):
        ticks = [
            event for event in engine_payload["traceEvents"] if event["name"] == "tick"
        ]
        assert ticks
        for event in ticks:
            args = event["args"]
            assert args["policy"] == "top-k-backlog"
            assert args["round_budget"] == 48
            assert isinstance(args["planned"], list)
            assert isinstance(args["served"], list)
            assert args["rounds"] >= 0
            assert args["volume"] >= 0
        # Somebody was actually deferred under K=2 with 3 backlogged tenants.
        assert any(event["args"]["deferred"] for event in ticks)

    def test_repair_spans_nest_inside_batches(self, engine_payload):
        by_id = _events_by_id(engine_payload)
        repairs = [
            event
            for event in engine_payload["traceEvents"]
            if event["name"] in ("repair", "recolor", "quality")
        ]
        assert repairs
        for event in repairs:
            parent = by_id.get(event["args"].get("parent"))
            assert parent is not None and parent["name"] == "batch", event


class TestLaminarNesting:
    def test_per_tid_intervals_form_a_laminar_family(self, engine_payload):
        by_tid: dict[int, list[dict]] = {}
        for event in engine_payload["traceEvents"]:
            by_tid.setdefault(event["tid"], []).append(event)
        for tid, group in by_tid.items():
            group.sort(key=lambda event: (event["ts"], -event["dur"]))
            open_ends: list[float] = []
            for event in group:
                start = event["ts"]
                end = start + event["dur"]
                while open_ends and open_ends[-1] <= start + 1e-9:
                    open_ends.pop()
                if open_ends:
                    assert end <= open_ends[-1] + 1e-6, (tid, event)
                open_ends.append(end)


def _assert_worker_spans_stitched(tracer, job: str) -> None:
    """The ``<job>:fanout``/``<job>:merge`` spans, ``map:`` spans with the
    process workers' ``task:`` spans under them, and the pool histograms."""
    names = [record.name for record in tracer.records]
    assert any(name == f"{job}:fanout" for name in names)
    assert any(name == f"{job}:merge" for name in names)
    assert any(name.startswith("map:") for name in names)
    task_records = [
        record for record in tracer.records if record.name.startswith("task:")
    ]
    assert task_records
    map_ids = {
        record.span_id
        for record in tracer.records
        if record.name.startswith("map:")
    }
    worker_pids = set()
    for record in task_records:
        assert record.cat == "worker"
        assert record.parent_id in map_ids
        worker_pids.add(record.tid)
    # Process-backend task spans are keyed by worker pid, not our threads.
    import os

    assert os.getpid() not in worker_pids
    histograms = tracer.metrics.snapshot()["histograms"]
    assert any(name.startswith("pool.queue_wait_ns.") for name in histograms)
    assert any(name.startswith("pool.run_ns.") for name in histograms)


class TestWorkerStitching:
    def test_process_fanout_records_worker_spans_and_queue_metrics(self, force_process):
        graph = union_of_random_forests(200, arboricity=4, seed=11)
        tracer = Tracer()
        run = orient(
            graph,
            seed=11,
            workers=2,
            force_edge_partitioning=True,
            tracer=tracer,
        )
        assert run.used_edge_partitioning
        _assert_worker_spans_stitched(tracer, "orient")

    def test_color_process_fanout_records_worker_spans_and_queue_metrics(
        self, force_process
    ):
        graph = union_of_random_forests(200, arboricity=4, seed=11)
        tracer = Tracer()
        run = color(
            graph,
            seed=11,
            workers=2,
            force_vertex_partitioning=True,
            tracer=tracer,
        )
        assert run.used_vertex_partitioning and run.num_parts > 1
        _assert_worker_spans_stitched(tracer, "color")

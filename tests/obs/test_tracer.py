"""Tracer span nesting, ledger deltas, ring buffer, exports, and the no-op."""

from __future__ import annotations

import json
import pickle
import threading
import time

import pytest

from repro.graph.generators import union_of_random_forests
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.obs import NULL_TRACER, NullTracer, Tracer


def _make_cluster():
    graph = union_of_random_forests(32, arboricity=2, seed=1)
    cluster = MPCCluster(MPCConfig.for_graph(graph))
    cluster.load_graph(graph)
    return cluster


class TestSpanNesting:
    def test_inner_span_parents_under_the_outer(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        records = {record.name: record for record in tracer.records}
        assert records["outer"].parent_id is None
        assert records["inner"].parent_id == outer.span_id
        assert records["inner"].start_ns >= records["outer"].start_ns
        assert records["inner"].end_ns <= records["outer"].end_ns

    def test_explicit_parent_overrides_the_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("adopted", parent=999):
                pass
        adopted = next(r for r in tracer.records if r.name == "adopted")
        assert adopted.parent_id == 999
        assert adopted.parent_id != outer.span_id

    def test_sibling_threads_do_not_nest_under_each_other(self):
        tracer = Tracer()
        done = threading.Event()

        def child():
            with tracer.span("on-thread"):
                pass
            done.set()

        with tracer.span("main"):
            worker = threading.Thread(target=child)
            worker.start()
            worker.join()
        assert done.is_set()
        on_thread = next(r for r in tracer.records if r.name == "on-thread")
        assert on_thread.parent_id is None  # thread-local stacks are separate

    def test_annotate_lands_in_args(self):
        tracer = Tracer()
        with tracer.span("tick", policy="serve-all") as span:
            span.annotate(served=3)
        record = tracer.records[0]
        assert record.args["policy"] == "serve-all"
        assert record.args["served"] == 3

    def test_current_span_id_tracks_the_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current_span_id() is None
        with tracer.span("outer") as outer:
            assert tracer.current_span_id() == outer.span_id
        assert tracer.current_span_id() is None


class TestLedgerDeltas:
    def test_span_carries_rounds_and_volume_charged_while_open(self):
        cluster = _make_cluster()
        tracer = Tracer()
        cluster.instrument(tracer)
        cluster.communication_round([0], [1], 3)
        with tracer.span("work", cluster=cluster):
            cluster.communication_round([0], [1], 2)
            cluster.communication_round([1], [0], 1)
        record = tracer.records[0]
        assert record.args["rounds"] == 2  # the pre-span round is not charged
        assert record.args["volume"] == 3

    def test_span_without_cluster_has_no_ledger_args(self):
        tracer = Tracer()
        with tracer.span("plain"):
            pass
        assert "rounds" not in tracer.records[0].args

    def test_instrumented_cluster_counts_rounds_and_words(self):
        cluster = _make_cluster()
        tracer = Tracer()
        cluster.instrument(tracer)
        cluster.communication_round([0], [1], 3)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["mpc.rounds"] == 1
        assert counters["mpc.words_sent"] == 3

    def test_pickled_cluster_sheds_its_tracer(self):
        cluster = _make_cluster()
        tracer = Tracer()
        cluster.instrument(tracer)
        clone = pickle.loads(pickle.dumps(cluster))
        assert clone._tracer is not tracer
        assert clone._tracer.enabled is False


class TestRingBufferAndExport:
    def test_capacity_bounds_the_record_window(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        names = [record.name for record in tracer.records]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_chrome_export_is_sorted_complete_events(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", cat="engine"):
            with tracer.span("inner"):
                pass
        tracer.metrics.inc("hits", 2)
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert [event["name"] for event in events] == ["outer", "inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == tracer.pid
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        assert payload["metrics"]["counters"] == {"hits": 2}

    def test_chrome_export_bytes_are_one_json_dumps_call(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", cat="engine", label="λ̂ → cap\n"):
            with tracer.span("inner", sizes=[1, 2**70], ratio=0.5, flag=None):
                pass
        tracer.metrics.inc("hits", 3)
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        assert path.read_text(encoding="utf-8") == (
            json.dumps(tracer.chrome_payload()) + "\n"
        )

    def test_jsonl_export_round_trips_every_span(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", tag="x"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["name"] == "a"
        assert lines[0]["args"]["tag"] == "x"

    def test_record_span_rebases_absolute_timestamps(self):
        tracer = Tracer()
        start = time.perf_counter_ns()
        end = start + 1000
        record = tracer.record_span("worker-task", start, end, tid=4242, parent=7)
        assert record.start_ns >= 0
        assert record.duration_ns == 1000
        assert record.tid == 4242
        assert record.parent_id == 7


class TestNullTracer:
    def test_disabled_shared_span_and_empty_records(self):
        assert NULL_TRACER.enabled is False
        span_a = NULL_TRACER.span("a", cluster=object(), parent=3, anything=1)
        span_b = NULL_TRACER.span("b")
        assert span_a is span_b  # one shared inert span, no allocation
        with span_a as span:
            span.annotate(ignored=True)
            assert span.span_id is None
        assert NULL_TRACER.records == []
        assert NULL_TRACER.record_span("x", 0, 1) is None
        assert NULL_TRACER.current_span_id() is None

    def test_picklable(self):
        clone = pickle.loads(pickle.dumps(NULL_TRACER))
        assert isinstance(clone, NullTracer)
        assert clone.enabled is False

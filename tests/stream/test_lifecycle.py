"""Resident StreamEngine: lifecycle state machine, ticker, fault injection.

ISSUE 10 acceptance: the tenant lifecycle
(provisioning → active → quarantined → lifted → retired) is a typed state
machine; the background ticker drains concurrent submissions to the same
byte-identical outcomes as drive-by ticking; and the PR 4/5 consistency
claims survive ≥20 randomized fault-injection iterations per scenario —
worker death mid-superstep, tenant failure mid-tick, quota quarantine.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.engine import WorkerPool, derive_seed
from repro.errors import (
    GraphError,
    LifecycleError,
    QuotaExceededError,
    WorkerCrashError,
)
from repro.core.partitioning import random_edge_partition
from repro.graph.generators import union_of_random_forests
from repro.graph.graph import Graph
from repro.stream import checkpoint
from repro.obs import Tracer
from repro.stream.engine import StreamEngine, TenantState
from repro.stream.scheduler import ServeAllPlanner
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch
from repro.stream.workloads import multi_tenant_traces, uniform_churn_trace


def _fleet(seed=5):
    return multi_tenant_traces(
        num_tenants=3,
        num_vertices=64,
        num_batches=3,
        batch_size=30,
        seed=seed,
    )


def _tenant_fingerprint(service):
    return (
        tuple(tuple(sorted(out)) for out in service.orientation._out),
        tuple(service.coloring._colors),
        service.orientation.flips,
        service.orientation.rebuilds,
        service.cluster.stats.num_rounds,
    )


def _summary_rows(summary):
    return [tuple(sorted(report.as_dict().items())) for report in summary.reports]


def _quota_for(initial, seed, headroom=20):
    probe = StreamingService(initial, seed=seed)
    peak = probe.cluster.stats.peak_global_memory_words
    in_use = probe.cluster.global_memory_in_use()
    return max(peak, in_use) + headroom


def _absent_edge_inserts(initial, count):
    ops = []
    for u in range(initial.num_vertices):
        for v in range(u + 1, initial.num_vertices):
            if not initial.has_edge(u, v):
                ops.append(("+", u, v))
                if len(ops) == count:
                    return UpdateBatch.from_ops(ops)
    raise AssertionError("graph too dense")


class TestLifecycleStateMachine:
    def test_happy_path_walks_every_live_state(self):
        """active → quarantined → lifted → active → retired, each edge typed
        and observable through tenant_state()."""
        initial = union_of_random_forests(48, arboricity=1, seed=3)
        quota = _quota_for(initial, derive_seed(5, 0))
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", initial, memory_quota=quota)
            assert engine.tenant_state("t") is TenantState.ACTIVE
            engine.submit("t", _absent_edge_inserts(initial, 30))
            with pytest.raises(QuotaExceededError):
                engine.tick()
            assert engine.tenant_state("t") is TenantState.QUARANTINED
            engine.lift_quarantine("t", new_quota=quota + 1000)
            assert engine.tenant_state("t") is TenantState.LIFTED
            engine.run_until_drained(max_ticks=5)
            assert engine.tenant_state("t") is TenantState.ACTIVE
            engine.retire_tenant("t")
            assert engine.tenant_state("t") is TenantState.RETIRED

    def test_retiring_a_quarantined_tenant_is_allowed(self):
        initial = union_of_random_forests(48, arboricity=1, seed=3)
        quota = _quota_for(initial, derive_seed(5, 0))
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", initial, memory_quota=quota)
            engine.submit("t", _absent_edge_inserts(initial, 30))
            with pytest.raises(QuotaExceededError):
                engine.tick()
            summary = engine.retire_tenant("t")
            assert engine.tenant_state("t") is TenantState.RETIRED
            assert summary.num_batches == 0  # the breaching batch never landed
            assert engine.pending("t") == 0  # retirement drops the queue
            assert engine.quarantined() == {}  # retired ≠ quarantined

    def test_lifting_a_retired_tenant_raises_a_typed_error(self):
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", union_of_random_forests(32, arboricity=2, seed=1))
            engine.retire_tenant("t")
            with pytest.raises(LifecycleError) as excinfo:
                engine.lift_quarantine("t")
            assert excinfo.value.tenant == "t"
            assert excinfo.value.from_state == "retired"
            assert excinfo.value.to_state == "lifted"
            assert "retired -> lifted" in str(excinfo.value)

    def test_retiring_twice_raises_a_typed_error(self):
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", union_of_random_forests(32, arboricity=2, seed=1))
            engine.retire_tenant("t")
            with pytest.raises(LifecycleError, match="retired -> retired"):
                engine.retire_tenant("t")

    def test_retired_tenants_reject_submissions_and_service_access(self):
        traces = _fleet()
        with StreamEngine(seed=9) as engine:
            for trace in traces:
                engine.add_tenant(trace.name, trace.initial)
                engine.submit_all(trace.name, trace.batches)
            engine.run_until_drained()
            live_rows = _summary_rows(engine.tenant_summary(traces[0].name))
            final = engine.retire_tenant(traces[0].name)
            # the frozen summary is the pre-retirement one
            assert _summary_rows(final) == live_rows
            assert _summary_rows(engine.tenant_summary(traces[0].name)) == live_rows
            with pytest.raises(GraphError, match="cannot submit"):
                engine.submit(traces[0].name, UpdateBatch.from_ops([("+", 0, 1)]))
            with pytest.raises(GraphError, match="service is gone"):
                engine.tenant_service(traces[0].name)
            # the name stays registered: no reuse, stable seed derivation
            with pytest.raises(GraphError, match="already registered"):
                engine.add_tenant(traces[0].name, traces[0].initial)
            assert traces[0].name in engine.tenant_names()

    def test_lifecycle_history_is_reconstructible_from_the_obs_layer(self):
        """Every transition emits a per-state counter and a zero-width span
        carrying the edge, so a fleet's lifecycle history survives in the
        trace alone (the PR 7 contract extended to PR 10)."""
        from repro.obs import Tracer

        initial = union_of_random_forests(48, arboricity=1, seed=3)
        quota = _quota_for(initial, derive_seed(5, 0))
        tracer = Tracer()
        with StreamEngine(seed=5, tracer=tracer) as engine:
            engine.add_tenant("t", initial, memory_quota=quota)
            engine.submit("t", _absent_edge_inserts(initial, 30))
            with pytest.raises(QuotaExceededError):
                engine.tick()
            engine.lift_quarantine("t", new_quota=quota + 1000)
            engine.run_until_drained(max_ticks=5)
            engine.retire_tenant("t")
        counters = tracer.metrics.snapshot()["counters"]
        for state in ("provisioning", "active", "quarantined", "lifted", "retired"):
            assert counters[f"engine.lifecycle.{state}"] >= 1
        assert counters["engine.tenants_retired"] == 1
        edges = [
            record.args["transition"]
            for record in tracer.records
            if record.name == "lifecycle"
        ]
        assert "active -> quarantined" in edges
        assert "quarantined -> lifted" in edges
        assert "lifted -> active" in edges
        assert "active -> retired" in edges

    def test_retirement_spares_siblings_mid_drain(self):
        """Retire one tenant between ticks; the survivors drain to the same
        outcomes as standalone services."""
        traces = _fleet()
        with StreamEngine(seed=9) as engine:
            for trace in traces:
                engine.add_tenant(trace.name, trace.initial)
                engine.submit_all(trace.name, trace.batches)
            engine.tick()
            engine.retire_tenant(traces[1].name)
            engine.run_until_drained()
            engine.verify()
            for index in (0, 2):
                standalone = StreamingService(
                    traces[index].initial, seed=derive_seed(9, index)
                )
                standalone.apply_all(traces[index].batches)
                assert _tenant_fingerprint(
                    engine.tenant_service(traces[index].name)
                ) == _tenant_fingerprint(standalone)


class TestResidentTicker:
    def test_resident_drain_matches_drive_by_ticking(self):
        """All batches submitted before start(): the ticker must produce the
        exact tick sequence — full engine fingerprint equality."""
        traces = _fleet()
        with StreamEngine(seed=9) as reference:
            for trace in traces:
                reference.add_tenant(trace.name, trace.initial)
                reference.submit_all(trace.name, trace.batches)
            reference.run_until_drained()
            expected = checkpoint.fingerprint(reference)
        with StreamEngine(seed=9) as engine:
            for trace in traces:
                engine.add_tenant(trace.name, trace.initial)
                engine.submit_all(trace.name, trace.batches)
            engine.start(tick_interval=0.01)
            assert engine.running
            engine.wait_until_drained(timeout=30.0)
            engine.stop()
            assert not engine.running
            engine.verify()
            assert checkpoint.fingerprint(engine) == expected

    def test_concurrent_submissions_drain_to_standalone_outcomes(self):
        """Each tenant's batches arrive from its own thread while the ticker
        runs; interleaving may change tick shapes but never per-tenant
        results (disjoint state + per-batch atomicity)."""
        traces = _fleet()
        with StreamEngine(seed=9) as engine:
            for trace in traces:
                engine.add_tenant(trace.name, trace.initial)
            engine.start(tick_interval=0.005)

            def feed(trace):
                for batch in trace.batches:
                    engine.submit(trace.name, batch)
                    time.sleep(0.002)

            feeders = [
                threading.Thread(target=feed, args=(trace,)) for trace in traces
            ]
            for thread in feeders:
                thread.start()
            for thread in feeders:
                thread.join()
            engine.wait_until_drained(timeout=30.0)
            engine.stop()
            engine.verify()
            for index, trace in enumerate(traces):
                standalone = StreamingService(
                    trace.initial, seed=derive_seed(9, index)
                )
                standalone.apply_all(trace.batches)
                assert _tenant_fingerprint(
                    engine.tenant_service(trace.name)
                ) == _tenant_fingerprint(standalone)

    def test_ticker_absorbs_bad_batches_and_serves_siblings(self):
        """A failing head batch must not kill the ticker: the error lands in
        tick_errors, the bad queue stays, the sibling drains."""
        trace = uniform_churn_trace(64, num_batches=2, batch_size=30, seed=2)
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("good", trace.initial)
            engine.add_tenant("bad", Graph(64))  # any delete is dead
            engine.start(tick_interval=0.005)
            engine.submit("bad", UpdateBatch.from_ops([("-", 0, 1)]))
            engine.submit_all("good", trace.batches)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    engine.tenant_summary("good").num_batches == 2
                    and engine.tick_errors
                ):
                    break
                time.sleep(0.01)
            engine.stop()
            assert engine.tenant_summary("good").num_batches == 2
            assert engine.pending("bad") == 1
            assert any("dead edge" in str(exc) for exc in engine.tick_errors)
            engine.verify()

    def test_unexpected_error_stops_the_ticker_and_is_reported(self):
        """A non-library exception (here a planner bug) must not vanish with
        the ticker thread: it is recorded and counted, the ticker exits, and
        wait_until_drained names it instead of claiming start() was never
        called."""

        class BrokenPlanner(ServeAllPlanner):
            def plan(self, loads, round_budget=None):
                raise RuntimeError("planner bug")

        tracer = Tracer()
        trace = uniform_churn_trace(64, num_batches=1, batch_size=20, seed=2)
        with StreamEngine(seed=5, planner=BrokenPlanner(), tracer=tracer) as engine:
            engine.add_tenant("t", trace.initial)
            engine.submit_all("t", trace.batches)
            engine.start(tick_interval=0.005)
            with pytest.raises(GraphError, match="unexpected error.*planner bug"):
                engine.wait_until_drained(timeout=5.0)
            assert not engine.running
            assert [type(exc) for exc in engine.tick_errors] == [RuntimeError]
            counters = tracer.metrics.snapshot()["counters"]
            assert counters["engine.ticker_errors"] == 1
            assert engine.pending("t") == 1
            # A dead ticker is still reported on later waits.
            with pytest.raises(GraphError, match="planner bug"):
                engine.wait_until_drained(timeout=5.0)

    def test_start_validates_state_and_interval(self):
        with StreamEngine(seed=5) as engine:
            with pytest.raises(GraphError, match="must be positive"):
                engine.start(tick_interval=0.0)
            with pytest.raises(GraphError, match="not running"):
                engine.wait_until_drained()
            engine.start(tick_interval=0.05)
            with pytest.raises(GraphError, match="already running"):
                engine.start()
            engine.stop()
            engine.stop()  # stop when stopped is a no-op
        with pytest.raises(GraphError, match="closed"):
            engine.start()

    @pytest.mark.parametrize(
        "interval",
        [float("nan"), float("inf"), 1e12, threading.TIMEOUT_MAX * 2, True, -0.5, "0.05", None],
    )
    def test_start_refuses_an_interval_the_ticker_cannot_wait(self, interval):
        """NaN would hot-spin the idle ticker and ``inf`` or ``1e12`` would kill
        it inside ``Event.wait``, outside its error net; every such value is
        refused before a thread starts."""
        before = threading.active_count()
        with StreamEngine(seed=5) as engine:
            with pytest.raises(GraphError, match="tick_interval must be positive"):
                engine.start(tick_interval=interval)
            assert not engine.running
            assert threading.active_count() == before


class TestCloseIdempotency:
    def test_double_close_with_live_ticker_leaks_nothing(self):
        """The ISSUE 10 fix: close() joins the ticker before releasing the
        pool, twice over, and the thread count returns to baseline."""
        baseline = threading.active_count()
        trace = uniform_churn_trace(64, num_batches=2, batch_size=30, seed=2)
        engine = StreamEngine(seed=5)
        engine.add_tenant("t", trace.initial)
        engine.submit_all("t", trace.batches)
        engine.start(tick_interval=0.005)
        assert engine.running
        engine.close()
        assert not engine.running
        engine.close()  # idempotent: no error, no double-release
        deadline = time.monotonic() + 10.0
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == baseline
        with pytest.raises(GraphError, match="closed"):
            engine.tick()
        with pytest.raises(GraphError, match="closed"):
            engine.checkpoint("unused.json")

    def test_context_manager_close_then_explicit_close(self):
        trace = uniform_churn_trace(64, num_batches=1, batch_size=20, seed=2)
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", trace.initial)
            engine.submit_all("t", trace.batches)
            engine.run_until_drained()
        engine.close()  # after __exit__ already closed it


class TestFaultInjectionWorkerDeath:
    """PR 4 claim under repetition: a process worker dying mid-superstep is
    typed, and the pool recovers — every time."""

    ITERATIONS = 20

    def test_repeated_worker_kills_recover(self, force_process):
        rng = random.Random(0xC0FFEE)
        graph = union_of_random_forests(200, arboricity=2, seed=1)
        with WorkerPool(2) as pool:
            for _iteration in range(self.ITERATIONS):
                seed = rng.randint(0, 2**31)
                parts = random_edge_partition(
                    graph, 8, seed=seed, num_parts=4
                ).parts
                tasks = [(part,) for part in parts]
                with pytest.raises(WorkerCrashError, match="respawn"):
                    pool.map(_die, tasks)
                # the next map respawns workers and sees the same parts
                counts = pool.map(_num_edges, tasks)
                assert counts == [part.num_edges for part in parts]


def _num_edges(part):
    return part.num_edges


def _die(part):  # pragma: no cover - runs in a worker it kills
    os._exit(13)


class TestFaultInjectionTenantFailure:
    """PR 4/5 claims under repetition: a tenant failing mid-tick leaves its
    batch queued and its siblings byte-identical, across ≥20 randomized
    rounds in one engine."""

    ITERATIONS = 20

    def test_repeated_mid_tick_failures_keep_the_engine_consistent(self):
        rng = random.Random(0xFEED)
        trace = uniform_churn_trace(
            64, num_batches=self.ITERATIONS, batch_size=15, seed=7
        )
        mirror = StreamingService(trace.initial, seed=derive_seed(5, 0))
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("good", trace.initial)
            engine.add_tenant("bad", Graph(64))
            for iteration in range(self.ITERATIONS):
                u = rng.randrange(63)
                dead = UpdateBatch.from_ops([("-", u, rng.randrange(u + 1, 64))])
                engine.submit("bad", dead)
                engine.submit("good", trace.batches[iteration])
                with pytest.raises(GraphError, match="dead edge"):
                    engine.tick()
                # the failed batch is still queued, object-identical
                assert engine.pending("bad") == iteration + 1
                assert engine._tenants["bad"].queue[iteration] is dead
                # the sibling was served in the same partial tick
                assert (
                    engine.tenant_summary("good").num_batches == iteration + 1
                )
                mirror.apply(trace.batches[iteration])
                assert _tenant_fingerprint(
                    engine.tenant_service("good")
                ) == _tenant_fingerprint(mirror)
            assert engine.tenant_summary("bad").num_batches == 0
            assert len(engine.ticks) == self.ITERATIONS
            engine.verify()


class TestFaultInjectionQuarantine:
    """PR 5 claim under repetition: every quota breach quarantines exactly
    the offender; an accumulating population of quarantined tenants never
    perturbs the survivor."""

    ITERATIONS = 20

    def test_repeated_breaches_isolate_only_the_offenders(self):
        rng = random.Random(0xBEEF)
        trace = uniform_churn_trace(
            64, num_batches=self.ITERATIONS, batch_size=15, seed=11
        )
        mirror = StreamingService(trace.initial, seed=derive_seed(5, 0))
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("good", trace.initial)
            for iteration in range(self.ITERATIONS):
                hog_name = f"hog-{iteration}"
                hog_initial = union_of_random_forests(
                    48, arboricity=1, seed=rng.randint(0, 2**31)
                )
                quota = _quota_for(
                    hog_initial, derive_seed(5, iteration + 1)
                )
                engine.add_tenant(hog_name, hog_initial, memory_quota=quota)
                engine.submit(hog_name, _absent_edge_inserts(hog_initial, 30))
                engine.submit("good", trace.batches[iteration])
                with pytest.raises(QuotaExceededError, match=hog_name):
                    engine.tick()
                assert engine.tenant_state(hog_name) is TenantState.QUARANTINED
                assert engine.pending(hog_name) == 1
                assert engine.tenant_service(hog_name).dynamic.num_edges == (
                    hog_initial.num_edges
                )
                mirror.apply(trace.batches[iteration])
                assert _tenant_fingerprint(
                    engine.tenant_service("good")
                ) == _tenant_fingerprint(mirror)
            assert len(engine.quarantined()) == self.ITERATIONS
            assert engine.tenant_state("good") is TenantState.ACTIVE
            engine.verify()

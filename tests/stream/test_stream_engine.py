"""StreamEngine: multi-tenant isolation, round folds, and determinism.

ISSUE 4 acceptance: an engine with N=4 tenants must report per-tenant
summaries identical to running each tenant on its own
:class:`~repro.stream.service.StreamingService` with the same seeds, while
the aggregate ledger charges parallel ticks as max-over-tenants.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.engine import derive_seed
from repro.errors import GraphError, QuotaExceededError
from repro.graph.generators import union_of_random_forests
from repro.graph.graph import Graph
from repro.mpc.config import MPCConfig
from repro.stream.engine import StreamEngine, TenantState
from repro.stream.scheduler import POLICIES
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch
from repro.stream.workloads import multi_tenant_traces, uniform_churn_trace


def _fleet(num_tenants=4, num_vertices=128, num_batches=4, batch_size=60, seed=3):
    return multi_tenant_traces(
        num_tenants=num_tenants,
        num_vertices=num_vertices,
        num_batches=num_batches,
        batch_size=batch_size,
        seed=seed,
    )


def _run_engine(traces, seed=9, planner=None):
    engine = StreamEngine(seed=seed, planner=planner)
    for trace in traces:
        engine.add_tenant(trace.name, trace.initial)
        engine.submit_all(trace.name, trace.batches)
    engine.run_until_drained()
    engine.verify()
    return engine


def _report_rows(summary):
    return [tuple(sorted(report.as_dict().items())) for report in summary.reports]


def _tenant_fingerprint(service):
    return (
        tuple(tuple(sorted(out)) for out in service.orientation._out),
        tuple(service.coloring._colors),
        service.orientation.flips,
        service.orientation.rebuilds,
        service.cluster.stats.num_rounds,
    )


class TestTenantIsolation:
    def test_per_tenant_summaries_match_standalone_services(self):
        """The acceptance criterion: hosting on the engine changes nothing a
        tenant can observe — same reports, same heads/colors, same rounds —
        on a rebuild-heavy mixed fleet."""
        traces = _fleet()
        with _run_engine(traces, seed=9) as engine:
            assert sum(
                engine.tenant_summary(name).total_rebuilds
                for name in engine.tenant_names()
            ) > 0  # the densifying tenant must exercise the rebuild path
            for index, trace in enumerate(traces):
                standalone = StreamingService(
                    trace.initial, seed=derive_seed(9, index)
                )
                standalone.apply_all(trace.batches)
                standalone.verify()
                hosted = engine.tenant_service(trace.name)
                assert _report_rows(engine.tenant_summary(trace.name)) == _report_rows(
                    standalone.summary
                )
                assert _tenant_fingerprint(hosted) == _tenant_fingerprint(standalone)

    def test_unknown_and_duplicate_tenants_are_rejected(self):
        with StreamEngine() as engine:
            initial = union_of_random_forests(32, arboricity=2, seed=1)
            engine.add_tenant("a", initial)
            with pytest.raises(GraphError, match="already registered"):
                engine.add_tenant("a", initial)
            with pytest.raises(GraphError, match="unknown tenant"):
                engine.submit("b", None)

    def test_add_tenant_rejects_bad_weights(self):
        with StreamEngine() as engine:
            initial = union_of_random_forests(32, arboricity=2, seed=1)
            with pytest.raises(GraphError, match="weight must be an integer"):
                engine.add_tenant("w", initial, weight=0)
            with pytest.raises(GraphError, match="weight must be an integer"):
                engine.add_tenant("w", initial, weight=1.5)
            with pytest.raises(GraphError, match="weight must be an integer"):
                engine.add_tenant("w", initial, weight=True)
            assert engine.cluster is None  # rejected before provisioning
            engine.add_tenant("w", initial, weight=2)
            assert engine.tenant_names() == ("w",)

    def test_add_tenant_takes_no_maintenance_options(self):
        """Every tenant runs the service's one configuration: the removed
        knobs are refused and the refused call provisions nothing."""
        with StreamEngine() as engine:
            initial = union_of_random_forests(32, arboricity=2, seed=1)
            for option, value in (
                ("flip_slack", 3),
                ("quality_interval", 8),
                ("maintain_coloring", False),
                ("proactive_flips", False),
                ("lambda_seed", "coreness"),
            ):
                with pytest.raises(TypeError, match=option):
                    engine.add_tenant("w", initial, **{option: value})
            assert engine.tenant_names() == ()
            assert engine.cluster is None

    def test_tenant_seeds_derive_from_registration_position(self):
        traces = _fleet(num_tenants=2)
        with _run_engine(traces, seed=31) as engine:
            names = engine.tenant_names()
            assert names == tuple(trace.name for trace in traces)
            for index, name in enumerate(names):
                expected = derive_seed(31, index)
                assert engine.tenant_service(name).orientation._seed == expected


class TestTickAccounting:
    def test_tick_rounds_fold_as_max_over_tenants(self):
        """Aggregate rounds for a tick = max over the served tenants' deltas;
        the sequential sum is what the old one-after-another charge was."""
        with _run_engine(_fleet(), seed=9) as engine:
            assert engine.ticks
            for tick in engine.ticks:
                per_tenant = [report.rounds for report in tick.reports.values()]
                assert tick.rounds == max(per_tenant)
                assert tick.sequential_rounds == sum(per_tenant)
                if len([rounds for rounds in per_tenant if rounds > 0]) > 1:
                    assert tick.rounds < tick.sequential_rounds

    def test_aggregate_summary_rows_mirror_ticks(self):
        with _run_engine(_fleet(), seed=9) as engine:
            assert engine.summary.num_batches == len(engine.ticks)
            for tick, report in zip(engine.ticks, engine.summary.reports):
                assert report.rounds == tick.rounds
                assert report.num_inserts == sum(
                    r.num_inserts for r in tick.reports.values()
                )
                assert report.flips == sum(r.flips for r in tick.reports.values())
            # Structure metrics are engine-wide snapshots at tick time; the
            # final row must describe the final fleet state.
            final = engine.summary.final_report()
            assert final.num_edges == sum(
                engine.tenant_service(name).dynamic.num_edges
                for name in engine.tenant_names()
            )
            assert final.max_outdegree == max(
                engine.tenant_service(name).orientation.max_outdegree()
                for name in engine.tenant_names()
            )

    def test_shared_ledger_covers_builds_plus_tick_folds(self):
        """Tenant construction charges sequentially at registration; every
        tick adds its max-over-tenants fold on top."""
        traces = _fleet(num_tenants=2)
        engine = StreamEngine(seed=9)
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial)
        build_rounds = engine.cluster.stats.num_rounds
        assert build_rounds == sum(
            engine.tenant_service(name).cluster.stats.num_rounds
            for name in engine.tenant_names()
        )
        for trace in traces:
            engine.submit_all(trace.name, trace.batches)
        summary = engine.run_until_drained()
        assert engine.cluster.stats.num_rounds == build_rounds + summary.total_rounds
        engine.close()

    def test_uneven_queues_serve_only_pending_tenants(self):
        """A tick serves the tenants with queued batches; the others idle."""
        trace = uniform_churn_trace(64, num_batches=2, batch_size=30, seed=2)
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("busy", trace.initial)
            engine.add_tenant("idle", union_of_random_forests(64, arboricity=2, seed=1))
            engine.submit_all("busy", trace.batches)
            first = engine.tick()
            assert set(first.reports) == {"busy"}
            assert engine.pending() == 1
            assert engine.tick().num_tenants_served == 1
            assert engine.tick() is None
            assert engine.tenant_summary("idle").num_batches == 0

    def test_failed_tenant_batch_leaves_the_engine_consistent(self):
        """A tenant raising mid-tick must not corrupt the engine: its batch
        stays queued (per-batch atomicity), siblings' applied batches are
        consumed, and the rounds they charged fold into a recorded partial
        tick instead of misattributing to the next one."""
        trace = uniform_churn_trace(64, num_batches=1, batch_size=30, seed=2)
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("good", trace.initial)
            engine.add_tenant("bad", Graph(64))  # empty: every delete is dead
            engine.submit_all("good", trace.batches)
            engine.submit("bad", UpdateBatch.from_ops([("-", 0, 1)]))
            rounds_before = engine.cluster.stats.num_rounds
            with pytest.raises(GraphError, match="dead edge"):
                engine.tick()
            assert engine.pending("good") == 0
            assert engine.pending("bad") == 1
            assert engine.tenant_summary("good").num_batches == 1
            assert engine.tenant_summary("bad").num_batches == 0
            assert len(engine.ticks) == 1
            assert set(engine.ticks[0].reports) == {"good"}
            assert engine.cluster.stats.num_rounds > rounds_before
            engine.verify()

    def test_tick_memory_fold_sums_idle_tenants_too(self):
        """Co-residency: a tick's memory fold sums every tenant's peaks —
        tenants occupy the fleet whether or not they were served."""
        trace = uniform_churn_trace(64, num_batches=1, batch_size=30, seed=2)
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("busy", trace.initial)
            engine.add_tenant("idle", union_of_random_forests(64, arboricity=2, seed=1))
            engine.submit_all("busy", trace.batches)
            engine.tick()
            tenant_peaks = sum(
                engine.tenant_service(name).cluster.stats.peak_global_memory_words
                for name in engine.tenant_names()
            )
            assert engine.cluster.stats.peak_global_memory_words >= tenant_peaks

    def test_run_until_drained_respects_max_ticks(self):
        trace = uniform_churn_trace(64, num_batches=3, batch_size=20, seed=2)
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", trace.initial)
            engine.submit_all("t", trace.batches)
            with pytest.raises(GraphError, match="still queued"):
                engine.run_until_drained(max_ticks=1)


def _absent_edge_ops(graph, count):
    """``count`` insert ops for edges absent from ``graph``, scan order."""
    ops = []
    for u in range(graph.num_vertices):
        for v in range(u + 1, graph.num_vertices):
            if not graph.has_edge(u, v):
                ops.append(("+", u, v))
                if len(ops) == count:
                    return ops
    raise AssertionError("graph too dense to build the insert batch")


def _absent_edge_inserts(graph, count):
    """A batch of ``count`` inserts of edges absent from ``graph``."""
    return UpdateBatch.from_ops(_absent_edge_ops(graph, count))


class TestMemoryQuotas:
    """ISSUE 5: tenant-level memory quotas on the shared ledger."""

    @staticmethod
    def _standalone_peaks(initial, seed):
        """Build peak + steady-state words of a standalone service (the probe
        that sizes quotas without hard-coding provisioning constants)."""
        probe = StreamingService(initial, seed=seed)
        return (
            probe.cluster.stats.peak_global_memory_words,
            probe.cluster.global_memory_in_use(),
        )

    def test_registration_rejects_a_quota_below_the_initial_graph(self):
        initial = union_of_random_forests(48, arboricity=2, seed=3)
        words = initial.num_vertices + 2 * initial.num_edges
        with StreamEngine(seed=5) as engine:
            with pytest.raises(QuotaExceededError, match="initial graph"):
                engine.add_tenant("hog", initial, memory_quota=words - 1)
            assert engine.tenant_names() == ()
            assert engine.cluster is None  # nothing was provisioned

    @pytest.mark.parametrize("quota", [0, -3, 2.5, True, False, "5"])
    def test_registration_rejects_a_malformed_quota(self, quota):
        """A quota that is not an integer ≥ 1 is a bad argument, not a
        breach, and it is refused before the engine is provisioned."""
        with StreamEngine(seed=5) as engine:
            with pytest.raises(GraphError, match="memory_quota must be None or an integer"):
                engine.add_tenant("z", Graph.empty(0), memory_quota=quota)
            assert engine.tenant_names() == ()
            assert engine.cluster is None

    def test_a_failed_build_rolls_back_the_provisioned_cluster(self, monkeypatch):
        """Any failure while building the first tenant leaves the engine
        unprovisioned, and a later registration provisions it afresh."""
        initial = union_of_random_forests(48, arboricity=2, seed=3)

        def failing_service(*args, **kwargs):
            raise RuntimeError("build failed")

        with StreamEngine(seed=5) as engine:
            monkeypatch.setattr("repro.stream.engine.StreamingService", failing_service)
            with pytest.raises(RuntimeError, match="build failed"):
                engine.add_tenant("t", initial)
            assert engine.tenant_names() == ()
            assert engine.cluster is None
            monkeypatch.undo()
            engine.add_tenant("t", initial)
            assert engine.tenant_names() == ("t",)
            assert engine.cluster.config == MPCConfig.for_graph(initial, delta=0.5)

    def test_registration_admits_a_quota_the_build_fits(self):
        initial = union_of_random_forests(48, arboricity=2, seed=3)
        build_peak, in_use = self._standalone_peaks(initial, derive_seed(5, 0))
        with StreamEngine(seed=5) as engine:
            service = engine.add_tenant(
                "ok", initial, memory_quota=max(build_peak, in_use)
            )
            assert engine.tenant_names() == ("ok",)
            assert service.cluster.memory_quota == max(build_peak, in_use)

    def test_quota_breach_quarantines_the_tenant_and_spares_siblings(self):
        """The acceptance scenario: the offending tenant is quarantined with
        its batch re-queued intact, sibling tenants' results are unchanged,
        and the tick is recorded as partial."""
        hog_initial = union_of_random_forests(48, arboricity=1, seed=3)
        trace = uniform_churn_trace(48, num_batches=2, batch_size=20, seed=2)
        build_peak, in_use = self._standalone_peaks(hog_initial, derive_seed(5, 1))
        quota = max(build_peak, in_use) + 20  # room for ≤10 net inserts
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("good", trace.initial)
            engine.add_tenant("hog", hog_initial, memory_quota=quota)
            engine.submit_all("good", trace.batches)
            hog_batch = _absent_edge_inserts(hog_initial, 30)  # +60 words
            engine.submit("hog", hog_batch)

            with pytest.raises(QuotaExceededError, match="tenant 'hog'"):
                engine.tick()

            # Offender: quarantined, batch intact, state untouched.
            assert set(engine.quarantined()) == {"hog"}
            assert engine.pending("hog") == 1
            assert engine.tenant_summary("hog").num_batches == 0
            assert engine.tenant_service("hog").dynamic.num_edges == (
                hog_initial.num_edges
            )
            # Sibling: served in the same (partial) tick.
            assert engine.tenant_summary("good").num_batches == 1
            assert len(engine.ticks) == 1
            assert engine.ticks[0].quota_breached == ("hog",)
            assert set(engine.ticks[0].reports) == {"good"}
            assert engine.summary.reports[-1].quota_breaches == 1

            # Draining continues for the sibling; the hog's queue survives.
            engine.run_until_drained(max_ticks=20)
            assert engine.tenant_summary("good").num_batches == 2
            assert engine.pending("hog") == 1
            engine.verify()

            # Sibling results are byte-identical to its standalone run.
            standalone = StreamingService(trace.initial, seed=derive_seed(5, 0))
            standalone.apply_all(trace.batches)
            assert _tenant_fingerprint(engine.tenant_service("good")) == (
                _tenant_fingerprint(standalone)
            )

    def test_lift_quarantine_resumes_byte_identical(self):
        """ISSUE 6 satellite: after the operator raises the quota, the lifted
        tenant drains its intact queue and ends byte-identical to a
        standalone service that was never quarantined."""
        initial = union_of_random_forests(48, arboricity=1, seed=3)
        build_peak, in_use = self._standalone_peaks(initial, derive_seed(5, 0))
        quota = max(build_peak, in_use) + 20
        ops = _absent_edge_ops(initial, 45)
        batches = [
            UpdateBatch.from_ops(ops[:30]),  # +60 words: breaches the quota
            UpdateBatch.from_ops(  # mixed follow-up once the quota is raised
                [("-", u, v) for _op, u, v in ops[:10]] + ops[30:]
            ),
        ]
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", initial, memory_quota=quota)
            engine.submit_all("t", batches)
            with pytest.raises(QuotaExceededError):
                engine.tick()
            assert set(engine.quarantined()) == {"t"}
            assert engine.pending("t") == 2  # projection path: nothing consumed

            breach = engine.lift_quarantine("t", new_quota=quota + 1000)
            assert isinstance(breach, QuotaExceededError)
            assert engine.quarantined() == {}
            assert engine.tenant_service("t").cluster.memory_quota == quota + 1000

            engine.run_until_drained(max_ticks=10)
            engine.verify()
            assert engine.tenant_summary("t").num_batches == len(batches)

            standalone = StreamingService(initial, seed=derive_seed(5, 0))
            standalone.apply_all(batches)
            standalone.verify()
            assert _tenant_fingerprint(engine.tenant_service("t")) == (
                _tenant_fingerprint(standalone)
            )
            assert _report_rows(engine.tenant_summary("t")) == _report_rows(
                standalone.summary
            )

    def test_lift_quarantine_validates_its_inputs(self):
        initial = union_of_random_forests(48, arboricity=1, seed=3)
        build_peak, in_use = self._standalone_peaks(initial, derive_seed(5, 0))
        quota = max(build_peak, in_use) + 20
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", initial, memory_quota=quota)
            with pytest.raises(GraphError, match="unknown tenant"):
                engine.lift_quarantine("ghost")
            with pytest.raises(GraphError, match="not quarantined"):
                engine.lift_quarantine("t")
            engine.submit("t", _absent_edge_inserts(initial, 30))
            with pytest.raises(QuotaExceededError):
                engine.tick()
            with pytest.raises(GraphError, match="at least 1 word"):
                engine.lift_quarantine("t", new_quota=0)
            assert set(engine.quarantined()) == {"t"}  # failed lifts change nothing

    @pytest.mark.parametrize("new_quota", [True, 2.5, "5", 1e9, -1])
    def test_lift_refuses_a_quota_that_is_not_a_word_count(self, new_quota):
        """``new_quota`` takes the check ``add_tenant`` gives ``memory_quota``:
        a bool, a float or a string is refused up front, never installed or
        reported as a quota breach."""
        initial = union_of_random_forests(48, arboricity=1, seed=3)
        build_peak, in_use = self._standalone_peaks(initial, derive_seed(5, 0))
        quota = max(build_peak, in_use) + 20
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", initial, memory_quota=quota)
            engine.submit("t", _absent_edge_inserts(initial, 30))
            with pytest.raises(QuotaExceededError):
                engine.tick()
            with pytest.raises(GraphError, match="new_quota must be an integer"):
                engine.lift_quarantine("t", new_quota=new_quota)
            assert set(engine.quarantined()) == {"t"}
            assert engine.tenant_service("t").cluster.memory_quota == quota

    def test_lift_rejects_a_quota_the_frozen_peak_already_breaches(self):
        """The fold-time path applies the batch before the breach is seen, so
        a lift whose quota the recorded peak still exceeds must refuse —
        otherwise the next fold re-quarantines immediately."""
        initial = union_of_random_forests(48, arboricity=1, seed=3)
        build_peak, in_use = self._standalone_peaks(initial, derive_seed(5, 0))
        quota = max(build_peak, in_use) + 20
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", initial, memory_quota=quota)
            engine.submit("t", _absent_edge_inserts(initial, 30))
            with pytest.raises(QuotaExceededError):
                engine.tick()
            peak = engine.tenant_service("t").cluster.stats.peak_global_memory_words
            with pytest.raises(QuotaExceededError, match="lifting quarantine"):
                engine.lift_quarantine("t", new_quota=max(1, peak - 1))
            assert set(engine.quarantined()) == {"t"}
            assert engine.tenant_service("t").cluster.memory_quota == quota

    def test_quota_fits_when_growth_stays_inside_the_cap(self):
        """The same shape of batch passes when the quota leaves headroom —
        the admission check is about growth, not about having a quota."""
        initial = union_of_random_forests(48, arboricity=1, seed=3)
        build_peak, in_use = self._standalone_peaks(initial, derive_seed(5, 0))
        with StreamEngine(seed=5) as engine:
            engine.add_tenant(
                "ok", initial, memory_quota=max(build_peak, in_use) + 100
            )
            engine.submit("ok", _absent_edge_inserts(initial, 30))
            engine.run_until_drained(max_ticks=5)
            assert engine.quarantined() == {}
            assert engine.tenant_summary("ok").num_batches == 1
            engine.verify()


class TestEngineDeterminism:
    """ISSUE 4 satellite: same seed ⇒ byte-identical tenant structures and
    aggregate rounds on a rebuild-heavy fleet, under either kernel backend
    and every scheduling policy."""

    @staticmethod
    def _engine_fingerprint(engine):
        return tuple(
            _tenant_fingerprint(engine.tenant_service(name))
            for name in engine.tenant_names()
        ) + (
            engine.cluster.stats.num_rounds,
            tuple(tick.rounds for tick in engine.ticks),
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_kernel_backends_are_byte_identical(self, policy, kernel_backend):
        with kernels.use_backend(kernels.PURE):
            with _run_engine(_fleet(), seed=9, planner=policy) as reference:
                expected = self._engine_fingerprint(reference)
        with _run_engine(_fleet(), seed=9, planner=policy) as engine:
            assert self._engine_fingerprint(engine) == expected

    def test_verify_failure_names_the_tenant(self):
        initial = union_of_random_forests(48, arboricity=2, seed=3)
        with StreamEngine(seed=5) as engine:
            engine.add_tenant("t", initial)

            def boom():
                raise GraphError("invariant broken")

            engine.tenant_service("t").verify = boom
            with pytest.raises(GraphError, match=r"^tenant 't': invariant broken$"):
                engine.verify()


class TestBacklogCount:
    """Each tenant's running queued-update count equals the sum over its
    queue after every engine step that can change a queue."""

    @staticmethod
    def _check(engine, tick=None):
        for tenant in engine._tenants.values():
            assert tenant.queued_updates == sum(len(batch) for batch in tenant.queue)
        if tick is not None:
            assert tick.backlog_updates == sum(
                sum(len(batch) for batch in tenant.queue)
                for tenant in engine._tenants.values()
                if tenant.state in (TenantState.ACTIVE, TenantState.LIFTED)
            )

    def _tick(self, engine):
        try:
            tick = engine.tick()
        except GraphError:
            tick = None  # the poison batch stays queued
        self._check(engine, tick)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_running_count_tracks_the_queue(self, policy, tmp_path):
        traces = _fleet(num_tenants=3, num_batches=4, batch_size=20)
        engine = StreamEngine(seed=9, planner=policy)
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial)
            self._check(engine)
        first, second, third = (trace.name for trace in traces)
        engine.submit(first, traces[0].batches[0])
        self._check(engine)
        engine.submit_all(second, iter(traces[1].batches))  # a one-shot iterable
        self._check(engine)
        engine.submit_all(third, traces[2].batches[:2])
        engine.submit(first, UpdateBatch.from_ops([("+", 0, 10**6)]))  # poison
        self._check(engine)
        for _ in range(2):
            self._tick(engine)
        engine.checkpoint(tmp_path / "ck.json")
        engine.close()
        engine = StreamEngine.restore(tmp_path / "ck.json")
        self._check(engine)
        engine.submit_all(third, traces[2].batches[2:])
        self._check(engine)
        for _ in range(3):
            self._tick(engine)
        assert engine._tenants[first].queued_updates == 1  # the poison batch
        engine.retire_tenant(first)
        self._check(engine)
        assert engine._tenants[first].queued_updates == 0
        summary = engine.run_until_drained()
        self._check(engine)
        assert summary.max_backlog_updates > 0
        engine.close()

"""Property suite for the cross-tenant scheduler (ISSUE 5).

Randomised multi-tenant traces — varying tenant counts, policies, budgets,
and seeds — must satisfy four contracts regardless of configuration:

(a) **conservation** — every submitted update is eventually applied, none
    duplicated (per-tenant applied counts equal submitted counts and the
    maintained invariants hold at drain);
(b) **no starvation** under deficit-round-robin — every continuously
    backlogged tenant is served within a bounded number of ticks;
(c) **budget cap** — per-tick folded rounds never exceed ``round_budget``
    beyond the documented head-of-line allowance (and never at all on the
    rebuild-free fleets used here, where the cost estimates are upper
    bounds);
(d) **schedule transparency** — a tenant served under any policy is
    byte-identical to the same tenant run standalone.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import derive_seed
from repro.errors import GraphError
from repro.stream.engine import StreamEngine
from repro.stream.scheduler import (
    DeficitRoundRobinPlanner,
    TenantLoad,
    admit_within_budget,
    estimate_batch_rounds,
    make_planner,
)
from repro.stream.service import StreamingService
from repro.stream.workloads import skewed_tenant_traces

MAX_TICKS = 500


def _fleet(num_tenants, seed, num_batches=3, batch_size=20):
    return skewed_tenant_traces(
        num_tenants=num_tenants,
        num_vertices=48,
        num_bursty=max(1, num_tenants // 3),
        num_batches=num_batches,
        batch_size=batch_size,
        burst_factor=3,
        burst_period=2,
        seed=seed,
    )


def _run(traces, policy, round_budget, seed=7, **options):
    engine = StreamEngine(
        seed=seed, planner=make_planner(policy, **options), round_budget=round_budget
    )
    for trace in traces:
        engine.add_tenant(trace.name, trace.initial)
        engine.submit_all(trace.name, trace.batches)
    engine.run_until_drained(max_ticks=MAX_TICKS)
    engine.verify()
    return engine


def _max_estimate(engine, traces):
    """The largest head-batch estimate any tick of this run could see."""
    return max(
        estimate_batch_rounds(
            max(len(batch) for batch in trace.batches),
            engine.tenant_service(trace.name).cluster.words_per_machine,
            engine.tenant_service(trace.name).dynamic.min_compaction_journal,
        )
        for trace in traces
    )


def _random_configs(count, seed):
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        policy = rng.choice(["serve-all", "top-k-backlog", "deficit-round-robin"])
        options = {}
        if policy == "top-k-backlog":
            options["k"] = rng.choice([1, 2, 3])
        if policy == "deficit-round-robin":
            options["quantum"] = rng.choice([2, 4, 8])
        configs.append(
            dict(
                num_tenants=rng.choice([2, 3, 4]),
                policy=policy,
                options=options,
                round_budget=rng.choice([None, 12, 24]),
                seed=rng.randrange(2**20),
            )
        )
    return configs


class TestConservation:
    """(a) Every submitted update is applied exactly once, whatever the plan."""

    @pytest.mark.parametrize("config", _random_configs(8, seed=100), ids=repr)
    def test_all_updates_applied_exactly_once(self, config):
        traces = _fleet(config["num_tenants"], config["seed"])
        engine = _run(
            traces, config["policy"], config["round_budget"], **config["options"]
        )
        try:
            for trace in traces:
                summary = engine.tenant_summary(trace.name)
                assert summary.num_batches == len(trace.batches)
                assert summary.total_updates == trace.num_updates
            # Served counts across ticks match too: nothing double-served.
            assert engine.summary.total_served == sum(
                len(trace.batches) for trace in traces
            )
            assert engine.pending() == 0
        finally:
            engine.close()


class TestNoStarvation:
    """(b) Deficit-round-robin serves every backlogged tenant within a bound."""

    @pytest.mark.parametrize("seed", [3, 17, 51])
    @pytest.mark.parametrize("quantum,budget", [(4, 12), (2, 24), (8, None)])
    def test_backlogged_tenants_are_served_within_the_bound(
        self, seed, quantum, budget
    ):
        traces = _fleet(4, seed, num_batches=4)
        engine = _run(
            traces, "deficit-round-robin", budget, quantum=quantum
        )
        try:
            bound = 2 * (len(traces) + -(-_max_estimate(engine, traces) // quantum)) + 2
            waits = {trace.name: 0 for trace in traces}
            for tick in engine.ticks:
                for name in tick.deferred:
                    waits[name] += 1
                    assert waits[name] <= bound, (
                        f"tenant {name} backlogged {waits[name]} consecutive "
                        f"ticks (bound {bound}) at tick {tick.tick_index}"
                    )
                for name in tick.reports:
                    waits[name] = 0
        finally:
            engine.close()

    @pytest.mark.parametrize("seed", [3, 17])
    def test_weighted_tenants_meet_the_scaled_bound(self, seed):
        """ISSUE 6 satellite: under weighted deficit-round-robin every tenant
        keeps the no-starvation bound scaled by its own weight —
        ``⌈E/(quantum·w)⌉ + N`` ticks of eligibility wait plus the documented
        budget slack — and drains completely."""
        quantum = 2
        traces = _fleet(4, seed, num_batches=4)
        weights = dict(zip((trace.name for trace in traces), (3, 1, 2, 1)))
        engine = StreamEngine(
            seed=7,
            planner=make_planner("deficit-round-robin", quantum=quantum),
            round_budget=12,
        )
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial, weight=weights[trace.name])
            engine.submit_all(trace.name, trace.batches)
        try:
            engine.run_until_drained(max_ticks=MAX_TICKS)
            engine.verify()
            estimate = _max_estimate(engine, traces)
            waits = {trace.name: 0 for trace in traces}
            for tick in engine.ticks:
                for name in tick.deferred:
                    waits[name] += 1
                    eligibility = -(-estimate // (quantum * weights[name]))
                    bound = 2 * (len(traces) + eligibility) + 2
                    assert waits[name] <= bound, (
                        f"weight-{weights[name]} tenant {name} backlogged "
                        f"{waits[name]} consecutive ticks (bound {bound}) "
                        f"at tick {tick.tick_index}"
                    )
                for name in tick.reports:
                    waits[name] = 0
            # Conservation and transparency survive weighting: everything
            # drains and weights change *when*, never *what*.
            for index, trace in enumerate(traces):
                summary = engine.tenant_summary(trace.name)
                assert summary.num_batches == len(trace.batches)
                standalone = StreamingService(
                    trace.initial, seed=derive_seed(7, index)
                )
                standalone.apply_all(trace.batches)
                hosted = engine.tenant_service(trace.name)
                assert TestScheduleTransparency._fingerprint(hosted) == (
                    TestScheduleTransparency._fingerprint(standalone)
                )
        finally:
            engine.close()

    def test_drained_tenants_forfeit_their_credit(self):
        planner = DeficitRoundRobinPlanner(quantum=4)
        load = TenantLoad(
            name="a",
            index=0,
            backlog_batches=1,
            backlog_updates=10,
            head_updates=10,
            estimated_rounds=4,
        )
        assert planner.plan([load]) == ["a"]
        assert planner.deficit("a") == 0
        planner.plan([load])
        assert planner.deficit("a") == 0
        planner.plan([])  # "a" drained: credit must not survive idleness
        assert planner.deficit("a") == 0


class TestBudgetCap:
    """(c) Folded tick rounds stay within the budget (+ head-of-line case)."""

    @pytest.mark.parametrize("config", _random_configs(8, seed=200), ids=repr)
    def test_folded_rounds_respect_the_budget(self, config):
        budget = config["round_budget"] or 12
        traces = _fleet(config["num_tenants"], config["seed"])
        engine = _run(traces, config["policy"], budget, **config["options"])
        try:
            assert engine.ticks
            for tick in engine.ticks:
                # The plan never promises more than the budget, except for a
                # lone head-of-line batch (the documented progress allowance).
                if len(tick.planned) > 1:
                    assert tick.planned_rounds <= budget
                if tick.planned_rounds <= budget:
                    # Rebuild-free fleet: estimates upper-bound actuals, so
                    # the folded (max-over-tenants) charge obeys the cap.
                    assert all(r.rebuilds == 0 for r in tick.reports.values())
                    assert tick.rounds <= budget, (
                        f"tick {tick.tick_index} folded {tick.rounds} rounds "
                        f"over budget {budget} (planned {tick.planned})"
                    )
        finally:
            engine.close()

    def test_per_tenant_actual_rounds_never_exceed_their_estimate(self):
        """The estimator contract the budget guarantee rests on."""
        traces = _fleet(3, seed=9, num_batches=4)
        engine = _run(traces, "serve-all", None)
        try:
            for trace in traces:
                service = engine.tenant_service(trace.name)
                for batch, report in zip(
                    trace.batches, engine.tenant_summary(trace.name).reports
                ):
                    estimate = estimate_batch_rounds(
                        len(batch),
                        service.cluster.words_per_machine,
                        service.dynamic.min_compaction_journal,
                    )
                    assert report.rebuilds == 0
                    assert report.rounds <= estimate, (
                        f"{trace.name}: batch of {len(batch)} charged "
                        f"{report.rounds} rounds, estimate {estimate}"
                    )
        finally:
            engine.close()

    def test_budget_exhausted_tick_serves_nobody_and_charges_zero_rounds(self):
        """ISSUE 5 satellite: an empty fold charges 0 rounds, not 1 (and does
        not crash) — deficit-round-robin with a slow quantum produces real
        zero-service warm-up ticks."""
        traces = _fleet(2, seed=5, num_batches=2)
        engine = StreamEngine(
            seed=7, planner=make_planner("deficit-round-robin", quantum=1)
        )
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial)
            engine.submit_all(trace.name, trace.batches)
        try:
            rounds_before = engine.cluster.stats.num_rounds
            report = engine.tick()  # quantum 1 < any estimate: nobody eligible
            assert report is not None
            assert report.num_tenants_served == 0
            assert report.rounds == 0
            assert set(report.deferred) == {trace.name for trace in traces}
            assert engine.cluster.stats.num_rounds == rounds_before
            assert engine.ticks and engine.ticks[-1] is report
            assert engine.pending() == sum(len(t.batches) for t in traces)
            engine.run_until_drained(max_ticks=MAX_TICKS)  # credit accrues
            engine.verify()
        finally:
            engine.close()


class TestScheduleTransparency:
    """(d) Served tenants are byte-identical to their standalone runs."""

    @staticmethod
    def _fingerprint(service):
        return (
            tuple(tuple(sorted(out)) for out in service.orientation._out),
            tuple(service.coloring._colors),
            service.orientation.flips,
            service.orientation.rebuilds,
            service.cluster.stats.num_rounds,
            [tuple(sorted(r.as_dict().items())) for r in service.summary.reports],
        )

    @pytest.mark.parametrize(
        "policy,options,budget",
        [
            ("top-k-backlog", {"k": 2}, 12),
            ("deficit-round-robin", {"quantum": 4}, 12),
            ("serve-all", {}, 10),
        ],
        ids=lambda value: str(value),
    )
    def test_hosted_tenants_match_standalone_services(self, policy, options, budget):
        traces = _fleet(3, seed=21, num_batches=3)
        engine = _run(traces, policy, budget, seed=13, **options)
        try:
            for index, trace in enumerate(traces):
                standalone = StreamingService(
                    trace.initial, seed=derive_seed(13, index)
                )
                standalone.apply_all(trace.batches)
                standalone.verify()
                hosted = engine.tenant_service(trace.name)
                assert self._fingerprint(hosted) == self._fingerprint(standalone), (
                    f"tenant {trace.name} diverged under {policy}"
                )
        finally:
            engine.close()


class TestPlannerUnits:
    """Planner-level behaviours that don't need an engine run."""

    @staticmethod
    def _loads(*estimates):
        return [
            TenantLoad(
                name=f"t{i}",
                index=i,
                backlog_batches=1,
                backlog_updates=10 * (i + 1),
                head_updates=10,
                estimated_rounds=estimate,
            )
            for i, estimate in enumerate(estimates)
        ]

    def test_admission_is_work_conserving(self):
        loads = self._loads(4, 10, 4)
        assert admit_within_budget(loads, 9) == ["t0", "t2"]

    def test_head_of_line_is_always_admitted(self):
        loads = self._loads(40)
        assert admit_within_budget(loads, 5) == ["t0"]

    def test_no_budget_admits_everyone(self):
        loads = self._loads(4, 10, 4)
        assert admit_within_budget(loads, None) == ["t0", "t1", "t2"]

    def test_top_k_prefers_backlog_then_registration_order(self):
        planner = make_planner("top-k-backlog", k=2)
        loads = self._loads(4, 4, 4)  # backlogs 10, 20, 30
        assert planner.plan(loads) == ["t2", "t1"]
        ties = [
            TenantLoad(
                name=f"t{i}",
                index=i,
                backlog_batches=1,
                backlog_updates=10,
                head_updates=10,
                estimated_rounds=4,
            )
            for i in range(3)
        ]
        assert planner.plan(ties) == ["t0", "t1"]

    def test_weight_scales_credit_accrual(self):
        """A weight-3 tenant reaches eligibility in one tick where its
        weight-1 sibling with the same estimate needs three."""
        planner = DeficitRoundRobinPlanner(quantum=2)
        loads = [
            TenantLoad(
                name="heavy",
                index=0,
                backlog_batches=5,
                backlog_updates=50,
                head_updates=10,
                estimated_rounds=6,
                weight=3,
            ),
            TenantLoad(
                name="light",
                index=1,
                backlog_batches=5,
                backlog_updates=50,
                head_updates=10,
                estimated_rounds=6,
                weight=1,
            ),
        ]
        assert planner.plan(loads) == ["heavy"]  # 6 credits vs 2
        assert planner.plan(loads) == ["heavy"]  # 6 vs 4
        assert planner.plan(loads) == ["light", "heavy"]  # light reaches 6
        assert planner.deficit("heavy") == 0
        assert planner.deficit("light") == 0

    def test_planner_rejects_weights_below_one(self):
        planner = DeficitRoundRobinPlanner(quantum=2)
        load = TenantLoad(
            name="bad",
            index=0,
            backlog_batches=1,
            backlog_updates=10,
            head_updates=10,
            estimated_rounds=4,
            weight=0,
        )
        with pytest.raises(GraphError, match="weights must be integers >= 1"):
            planner.plan([load])

    def test_estimate_is_monotone_and_zero_for_empty(self):
        assert estimate_batch_rounds(0, 32) == 0
        previous = 0
        for length in (1, 10, 64, 65, 200):
            estimate = estimate_batch_rounds(length, 32)
            assert estimate >= previous
            previous = estimate

    def test_make_planner_rejects_unknown_policies_and_options(self):
        with pytest.raises(GraphError, match="unknown scheduling policy"):
            make_planner("fifo")
        with pytest.raises(GraphError, match="bad options"):
            make_planner("serve-all", k=3)
        with pytest.raises(GraphError, match="k >= 1"):
            make_planner("top-k-backlog", k=0)
        with pytest.raises(GraphError, match="quantum >= 1"):
            make_planner("deficit-round-robin", quantum=0)

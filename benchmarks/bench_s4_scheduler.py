"""S4 — round-budgeted cross-tenant scheduling on a skewed fleet.

The S4 registry suite serves one fleet shape — 8 tenants (2 bursty,
6 steady) — under the three scheduling policies and two round budgets.  The
headline trade is **tail latency / backlog vs. round budget**: ``serve-all``
unbudgeted has zero latency but unbounded per-tick work; the budgeted
policies defer tenants (their batches carry over intact) to keep every
tick's folded rounds within the cap.

Checks (the ISSUE 5 acceptance scenario):

* with ``top-k-backlog, K=3`` the per-tick folded rounds stay ≤ the round
  budget on **every** tick;
* total updates applied equals total submitted for every policy
  (conservation — nothing lost or duplicated by deferral);
* each served tenant's final orientation/coloring/report stream is
  byte-identical to the same tenant run standalone;
* a quota-breaching tenant is quarantined while its siblings' results are
  unchanged.

Run directly (``python benchmarks/bench_s4_scheduler.py``) for the table,
``--smoke`` for the tiny CI mode (contract checks only), or through pytest
(``pytest benchmarks/bench_s4_scheduler.py``).
"""

from __future__ import annotations

import argparse
import sys

import pytest

from repro.engine import derive_seed
from repro.errors import QuotaExceededError
from repro.experiments.registry import get_experiment
from repro.experiments.streaming import run_scheduler_experiment
from repro.stream.engine import StreamEngine
from repro.stream.scheduler import make_planner
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch
from repro.stream.workloads import skewed_tenant_traces

SPEC = get_experiment("S4")

SMOKE_FLEET = dict(
    num_tenants=4,
    num_vertices=48,
    num_bursty=1,
    num_batches=2,
    batch_size=16,
    burst_factor=3,
    burst_period=2,
    seed=3,
)
SMOKE_BUDGET = 12


def _service_fingerprint(service):
    return (
        tuple(tuple(sorted(out)) for out in service.orientation._out),
        tuple(service.coloring._colors),
        [tuple(sorted(report.as_dict().items())) for report in service.summary.reports],
    )


def run_acceptance_checks(
    fleet_params=None, policy="top-k-backlog", options=None, budget=SMOKE_BUDGET, seed=9
):
    """The S4 contracts on one fleet/policy/budget; returns a metrics dict."""
    fleet_params = fleet_params or SMOKE_FLEET
    options = options if options is not None else {"k": 3}
    traces = skewed_tenant_traces(**fleet_params)
    submitted = sum(trace.num_updates for trace in traces)
    with StreamEngine(
        seed=seed, planner=make_planner(policy, **options), round_budget=budget
    ) as engine:
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial)
            engine.submit_all(trace.name, trace.batches)
        engine.run_until_drained(max_ticks=500)
        engine.verify()
        budget_ok = all(tick.rounds <= budget for tick in engine.ticks)
        applied = sum(
            engine.tenant_summary(name).total_updates for name in engine.tenant_names()
        )
        identical = True
        for index, trace in enumerate(traces):
            standalone = StreamingService(trace.initial, seed=derive_seed(seed, index))
            standalone.apply_all(trace.batches)
            identical = identical and (
                _service_fingerprint(engine.tenant_service(trace.name))
                == _service_fingerprint(standalone)
            )
        return {
            "ticks": float(len(engine.ticks)),
            "deferred": float(engine.summary.total_deferred),
            "budget_ok": 1.0 if budget_ok else 0.0,
            "submitted": float(submitted),
            "applied": float(applied),
            "identical": 1.0 if identical else 0.0,
        }


def run_quota_isolation_check(seed=9):
    """A quota-breaching tenant is quarantined; its sibling is unchanged."""
    traces = skewed_tenant_traces(
        num_tenants=1, num_vertices=48, num_bursty=0, num_batches=2,
        batch_size=16, seed=4,
    )
    good = traces[0]
    hog_initial = good.initial
    probe = StreamingService(hog_initial, seed=derive_seed(seed, 1))
    quota = max(
        probe.cluster.stats.peak_global_memory_words,
        probe.cluster.global_memory_in_use(),
    ) + 4  # room for ≤2 net inserts
    inserts = []
    for u in range(hog_initial.num_vertices):
        for v in range(u + 1, hog_initial.num_vertices):
            if not hog_initial.has_edge(u, v):
                inserts.append(("+", u, v))
                if len(inserts) == 10:
                    break
        if len(inserts) == 10:
            break
    with StreamEngine(seed=seed) as engine:
        engine.add_tenant(good.name, good.initial)
        engine.add_tenant("hog", hog_initial, memory_quota=quota)
        engine.submit_all(good.name, good.batches)
        engine.submit("hog", UpdateBatch.from_ops(inserts))
        breached = False
        try:
            engine.run_until_drained(max_ticks=50)
        except QuotaExceededError:
            breached = True
            engine.run_until_drained(max_ticks=50)  # siblings keep draining
        engine.verify()
        standalone = StreamingService(good.initial, seed=derive_seed(seed, 0))
        standalone.apply_all(good.batches)
        sibling_ok = _service_fingerprint(
            engine.tenant_service(good.name)
        ) == _service_fingerprint(standalone)
        return {
            "breached": 1.0 if breached else 0.0,
            "quarantined": 1.0 if set(engine.quarantined()) == {"hog"} else 0.0,
            "hog_batch_intact": 1.0 if engine.pending("hog") == 1 else 0.0,
            "sibling_identical": 1.0 if sibling_ok else 0.0,
        }


@pytest.mark.parametrize("workload", SPEC.workloads, ids=lambda w: w.name)
def test_s4_scheduler_row(workload):
    # Imported here so the module also runs directly (`python benchmarks/...`),
    # where the benchmarks package is not importable.
    from benchmarks.conftest import record_row

    row = run_scheduler_experiment(workload)
    data = row.as_dict()
    record_row("S4 — " + SPEC.claim, SPEC.columns, data)
    assert data["budget_ok"] == 1.0, data
    assert data["conserved"] == 1.0, data
    assert data["proper"] == 1.0, data


def test_s4_budgeted_policies_defer_while_serve_all_does_not():
    rows = {
        workload.name: run_scheduler_experiment(workload).as_dict()
        for workload in SPEC.workloads
    }
    assert rows["serve-all-unbudgeted"]["deferred"] == 0.0
    assert rows["serve-all-unbudgeted"]["tail_latency"] == 0.0
    for name, data in rows.items():
        if name != "serve-all-unbudgeted":
            assert data["deferred"] > 0.0, (name, data)
            assert data["tail_latency"] > 0.0, (name, data)
    # A larger budget can only help the same policy's latency.
    assert (
        rows["top3-backlog-b36"]["tail_latency"]
        <= rows["top3-backlog-b18"]["tail_latency"]
    )


def test_s4_acceptance_contracts():
    results = run_acceptance_checks()
    assert results["budget_ok"] == 1.0, results
    assert results["applied"] == results["submitted"], results
    assert results["identical"] == 1.0, results
    assert results["deferred"] > 0.0, results  # the budget actually bound


def test_s4_quota_breach_isolation():
    results = run_quota_isolation_check()
    assert results == {
        "breached": 1.0,
        "quarantined": 1.0,
        "hog_batch_intact": 1.0,
        "sibling_identical": 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fleet, contract checks only (CI smoke mode)",
    )
    args = parser.parse_args(argv)

    ok = True
    print("S4 scheduling contracts (top-k-backlog, K=3, smoke fleet)")
    contracts = run_acceptance_checks()
    width = max(len(key) for key in contracts)
    for key, value in contracts.items():
        print(f"  {key:<{width}}  {value:,.1f}")
    ok = ok and contracts["budget_ok"] == 1.0
    ok = ok and contracts["applied"] == contracts["submitted"]
    ok = ok and contracts["identical"] == 1.0

    print("\nquota breach isolation")
    quota = run_quota_isolation_check()
    width = max(len(key) for key in quota)
    for key, value in quota.items():
        print(f"  {key:<{width}}  {value:,.1f}")
    ok = ok and all(value == 1.0 for value in quota.values())

    if not args.smoke:
        from repro.analysis.reporting import Table

        table = Table(title="S4 — " + SPEC.claim, columns=list(SPEC.columns))
        for workload in SPEC.workloads:
            table.add_row(run_scheduler_experiment(workload).as_dict())
        table.print()

    print(f"\ncontracts: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

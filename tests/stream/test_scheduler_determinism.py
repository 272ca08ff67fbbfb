"""Cross-policy determinism matrix (ISSUE 5 satellite).

Extends PR 3's determinism contract to the scheduler layer: same seed ⇒
byte-identical per-tenant structures, tick schedule, and shared-ledger rounds
across kernel backends {pure, numpy} × all three scheduling policies × every
way of driving the engine: synchronous ticks, the resident ticker thread, a
traced run, and a checkpoint after the first tick restored into a fresh
engine.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.obs import Tracer
from repro.stream.engine import StreamEngine
from repro.stream.scheduler import POLICIES, make_planner
from repro.stream.workloads import skewed_tenant_traces

SEED = 11
BUDGET = 14
MODES = ("sync", "ticker", "traced", "restored")


def _fleet():
    return skewed_tenant_traces(
        num_tenants=3,
        num_vertices=48,
        num_bursty=1,
        num_batches=2,
        batch_size=20,
        burst_factor=3,
        burst_period=2,
        seed=4,
    )


def _options(policy):
    if policy == "top-k-backlog":
        return {"k": 2}
    if policy == "deficit-round-robin":
        return {"quantum": 4}
    return {}


def _run(policy, mode="sync", tmp_path=None):
    engine = StreamEngine(
        seed=SEED,
        planner=make_planner(policy, **_options(policy)),
        round_budget=BUDGET,
        tracer=Tracer() if mode == "traced" else None,
    )
    for trace in _fleet():
        engine.add_tenant(trace.name, trace.initial)
        engine.submit_all(trace.name, trace.batches)
    if mode == "ticker":
        engine.start(tick_interval=0.005)
        engine.wait_until_drained(timeout=30.0)
        engine.stop()
    elif mode == "restored":
        engine.tick()
        path = tmp_path / "mid-run.json"
        engine.checkpoint(path)
        engine.close()
        engine = StreamEngine.restore(path)
        engine.run_until_drained(max_ticks=200)
    else:
        engine.run_until_drained(max_ticks=200)
    engine.verify()
    return engine


def _fingerprint(engine):
    tenants = tuple(
        (
            tuple(
                tuple(sorted(out))
                for out in engine.tenant_service(name).orientation._out
            ),
            tuple(engine.tenant_service(name).coloring._colors),
            engine.tenant_service(name).cluster.stats.num_rounds,
        )
        for name in engine.tenant_names()
    )
    schedule = tuple(
        (tick.planned, tick.deferred, tick.rounds) for tick in engine.ticks
    )
    return tenants + (schedule, engine.cluster.stats.num_rounds)


@pytest.fixture(scope="module")
def references():
    cache = {}
    with kernels.use_backend(kernels.PURE):
        for policy in POLICIES:
            with _run(policy) as engine:
                cache[policy] = _fingerprint(engine)
    return cache


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", POLICIES)
def test_matrix_is_byte_identical(references, policy, mode, kernel_backend, tmp_path):
    # ``kernel_backend`` re-runs every cell per kernel backend against the
    # synchronous pure-backend references.
    with _run(policy, mode, tmp_path) as engine:
        assert _fingerprint(engine) == references[policy], (
            f"{policy} diverged when driven {mode} under kernels={kernel_backend}"
        )


def test_policies_actually_schedule_differently():
    """The matrix is only meaningful if the policies produce distinct
    schedules on this fleet — guard against a degenerate configuration."""
    schedules = {}
    for policy in POLICIES:
        with _run(policy) as engine:
            schedules[policy] = tuple(tick.planned for tick in engine.ticks)
    assert len(set(schedules.values())) > 1, schedules

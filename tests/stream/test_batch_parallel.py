"""Conflict-group flip repair: planning, group order, determinism, proactive flips."""

from __future__ import annotations

import json
import random

import pytest

from repro import kernels
from repro.graph.generators import (
    chung_lu_power_law,
    grid_2d,
    random_forest,
    union_of_random_forests,
)
from repro.graph.graph import Graph
from repro.obs import Tracer
from repro.stream.dynamic_graph import DynamicGraph
from repro.stream.orientation import IncrementalOrientation, plan_conflict_groups
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch
from repro.stream.workloads import (
    densifying_core_trace,
    sliding_window_trace,
    uniform_churn_trace,
)
from tests.conftest import apply_one


def install_heads(orientation, directed_edges):
    """Hand-build state: add each ``(tail, head)`` edge to the dynamic graph,
    orient it ``tail -> head``, and derive every piece of the orientation's
    running state (outdegree column, histogram, maximum) from the heads."""
    out = [set(heads) for heads in orientation._out]
    for tail, head in directed_edges:
        orientation._dynamic.add_edge(tail, head)
        out[tail].add(head)
    orientation._set_heads(out)


class TestConflictGroupPlanning:
    def test_disjoint_updates_get_singleton_groups(self):
        batch = UpdateBatch.from_ops([("+", 0, 1), ("+", 2, 3), ("+", 4, 5)])
        assert plan_conflict_groups(batch.updates) == [[0], [1], [2]]

    def test_shared_endpoint_merges_groups(self):
        batch = UpdateBatch.from_ops([("+", 0, 1), ("+", 2, 3), ("+", 1, 2)])
        assert plan_conflict_groups(batch.updates) == [[0, 1, 2]]

    def test_groups_are_vertex_disjoint_and_cover_the_batch(self):
        rng = random.Random(0)
        ops = []
        live = set()
        for _ in range(300):
            u, v = rng.randrange(64), rng.randrange(64)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in live:
                live.discard(e)
                ops.append(("-", *e))
            else:
                live.add(e)
                ops.append(("+", *e))
        batch = UpdateBatch.from_ops(ops)
        groups = plan_conflict_groups(batch.updates)
        seen_updates = [i for group in groups for i in group]
        assert sorted(seen_updates) == list(range(len(batch)))
        touched: list[set[int]] = []
        for group in groups:
            vertices = set()
            for index in group:
                vertices.add(batch.updates[index].u)
                vertices.add(batch.updates[index].v)
            touched.append(vertices)
        for i, a in enumerate(touched):
            for b in touched[i + 1:]:
                assert not (a & b)

    def test_group_order_is_deterministic(self):
        batch = UpdateBatch.from_ops([("+", 5, 6), ("+", 0, 1), ("+", 6, 7)])
        assert plan_conflict_groups(batch.updates) == [[0, 2], [1]]


class TestApplyBatch:
    def test_batch_equals_flat_state(self):
        """Grouped application must land on a legal, cap-respecting state
        covering exactly the live edges."""
        base = union_of_random_forests(96, arboricity=2, seed=5)
        dynamic = DynamicGraph(base)
        orientation = IncrementalOrientation(dynamic)
        batch = UpdateBatch.from_ops(
            [("-", *e) for e in list(base.edges)[:20]]
            + [("+", 90, 91), ("+", 91, 92), ("+", 90, 92)]
        )
        for update in batch.updates:
            if update.is_insert:
                dynamic.add_edge(update.u, update.v)
            else:
                dynamic.remove_edge(update.u, update.v)
        report = orientation.apply_batch(batch.updates)
        assert report.num_updates == len(batch)
        assert report.num_groups >= 2
        assert orientation.oriented_edge_count() == dynamic.num_edges
        assert orientation.max_outdegree() <= orientation.outdegree_cap

    def test_empty_batch_is_a_noop(self):
        orientation = IncrementalOrientation(DynamicGraph.empty(4))
        report = orientation.apply_batch(())
        assert report.num_updates == 0
        assert report.num_groups == 0

    def test_drifted_state_raises_instead_of_silently_skipping(self):
        """Without a mid-batch rebuild, a delete of an unoriented edge (or an
        insert of an oriented one) means the orientation drifted from the
        live edge set — the batch path must raise."""
        from repro.errors import GraphError

        dynamic = DynamicGraph.empty(6)
        orientation = IncrementalOrientation(dynamic)
        dynamic.add_edge(0, 1)
        apply_one(orientation, "+", 0, 1)
        orientation._out[0].discard(1)  # induce drift: live edge unoriented
        dynamic.remove_edge(0, 1)
        with pytest.raises(GraphError, match="not oriented"):
            orientation.apply_batch(UpdateBatch.from_ops([("-", 0, 1)]).updates)

        dynamic2 = DynamicGraph.empty(6)
        orientation2 = IncrementalOrientation(dynamic2)
        orientation2._out[0].add(1)  # induce drift: phantom orientation
        dynamic2.add_edge(0, 1)
        with pytest.raises(GraphError, match="drifted"):
            orientation2.apply_batch(UpdateBatch.from_ops([("+", 0, 1)]).updates)

    def test_cap_safe_groups_run_before_flip_prone_groups(self):
        """Pins the group execution order.  Group 0 overflows vertex 0, whose
        flip path reverses 0 -> 1; group 1 is cap-safe and inserts {1, 9}.
        Run plainly in group order, the flip lands first and the insert
        orients 9 -> 1; cap-safe-first runs the insert on the pre-flip
        degrees and orients 1 -> 9."""

        def build():
            dynamic = DynamicGraph.empty(10)
            orientation = IncrementalOrientation(dynamic, lambda_bound=1, flip_slack=2)
            assert orientation.outdegree_cap == 2
            install_heads(orientation, ((0, 1), (0, 2), (3, 4), (3, 5)))
            batch = UpdateBatch.from_ops([("+", 0, 3), ("+", 1, 9)])
            for update in batch.updates:
                dynamic.add_edge(update.u, update.v)
            return orientation, batch

        plain, batch = build()
        for group in plan_conflict_groups(batch.updates):
            plain._apply_group([batch.updates[i] for i in group], plain.rebuilds)
        assert plain.head(1, 9) == 1

        orientation, batch = build()
        report = orientation.apply_batch(batch.updates)
        assert (report.num_groups, report.parallel_groups, report.serial_groups) == (2, 1, 1)
        assert orientation.head(1, 9) == 9
        assert orientation.head(0, 1) == 0
        assert orientation.out_neighbors(1) == (0, 9)


def _hot_batch(graph, seed, deletes=20, inserts=40, hot=10):
    """A mixed batch over ``graph``: deletes of live edges plus inserts that
    each touch a small hot vertex set, so on low-degeneracy graphs some
    conflict groups stay cap-safe and some need a flip path."""
    rng = random.Random(seed)
    live = sorted(graph.edges)
    ops = [("-", *edge) for edge in rng.sample(live, min(deletes, len(live)))]
    hot_set = rng.sample(range(graph.num_vertices), hot)
    seen = set(live)
    while len(ops) < deletes + inserts:
        u = rng.choice(hot_set)
        v = rng.choice(hot_set) if rng.random() < 0.6 else rng.randrange(graph.num_vertices)
        edge = (min(u, v), max(u, v))
        if u == v or edge in seen:
            continue
        seen.add(edge)
        ops.append(("+", *edge))
    rng.shuffle(ops)
    return UpdateBatch.from_ops(ops)


# forest and grid batches include flip-prone groups (forest ones rebuild);
# two-forests and power-law batches are all cap-safe.
FAMILIES = {
    "forest": lambda seed: random_forest(128, num_trees=4, seed=seed),
    "two-forests": lambda seed: union_of_random_forests(128, arboricity=2, seed=seed),
    "grid": lambda seed: grid_2d(8, 16),
    "power-law": lambda seed: chung_lu_power_law(
        128, exponent=2.3, average_degree=3.0, seed=seed
    ),
}


def _prepared(family, seed):
    """An orientation over a family graph with the hot batch already applied
    to its dynamic graph (``apply_batch``'s precondition)."""
    graph = FAMILIES[family](seed)
    dynamic = DynamicGraph(graph)
    orientation = IncrementalOrientation(dynamic, flip_slack=2)
    batch = _hot_batch(graph, seed)
    for update in batch.updates:
        if update.is_insert:
            dynamic.add_edge(update.u, update.v)
        else:
            dynamic.remove_edge(update.u, update.v)
    return orientation, dynamic, batch


def _heads(orientation):
    return tuple(tuple(sorted(out)) for out in orientation._out)


class TestSinglePathProperties:
    """Random mixed batches through ``apply_batch`` on several graph
    families: the result is a legal orientation of exactly the live edges,
    the report adds up, and it is the same under either kernel backend and
    after a checkpoint round trip of the pre-batch state."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_batch_lands_on_a_legal_state(self, family, seed, kernel_backend):
        with kernels.use_backend(kernels.PURE):
            reference, _dynamic, batch = _prepared(family, seed)
            reference.apply_batch(batch.updates)
        orientation, dynamic, batch = _prepared(family, seed)
        repair_flips = orientation.flips - orientation.opportunistic_flips
        opportunistic = orientation.opportunistic_flips
        rebuilds = orientation.rebuilds

        report = orientation.apply_batch(batch.updates)

        live = set(dynamic.snapshot().edges)
        oriented = {
            (min(tail, head), max(tail, head))
            for tail, heads in enumerate(orientation._out)
            for head in heads
        }
        assert oriented == live
        assert orientation.oriented_edge_count() == len(live)
        assert orientation.max_outdegree() <= orientation.outdegree_cap
        assert report.num_updates == len(batch)
        assert report.num_groups == len(plan_conflict_groups(batch.updates))
        assert report.parallel_groups + report.serial_groups == report.num_groups
        assert report.proactive_flips == orientation.opportunistic_flips - opportunistic
        if report.serial_groups == 0:
            # cap-safe groups never start a flip search or a rebuild
            assert orientation.flips - orientation.opportunistic_flips == repair_flips
            assert orientation.rebuilds == rebuilds
        assert _heads(orientation) == _heads(reference)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_restored_orientation_replays_the_batch_identically(
        self, family, seed, kernel_backend
    ):
        """An orientation restored from a JSON ``state_dict`` (heads rebuilt
        from sorted lists) repairs the same batch exactly like the original:
        same report, heads, counters, λ̂ and cap."""
        graph = FAMILIES[family](seed)
        original = IncrementalOrientation(DynamicGraph(graph), flip_slack=2)
        state = json.loads(json.dumps(original.state_dict()))
        restored = IncrementalOrientation.from_state(state, DynamicGraph(graph))
        batch = _hot_batch(graph, seed)
        results = []
        for orientation in (original, restored):
            dynamic = orientation._dynamic
            for update in batch.updates:
                if update.is_insert:
                    dynamic.add_edge(update.u, update.v)
                else:
                    dynamic.remove_edge(update.u, update.v)
            report = orientation.apply_batch(batch.updates)
            results.append((
                report,
                _heads(orientation),
                orientation.flips,
                orientation.opportunistic_flips,
                orientation.rebuilds,
                orientation.lambda_bound,
                orientation.outdegree_cap,
            ))
        assert results[0] == results[1]

    def test_families_cover_both_phases(self):
        """The matrix is only meaningful if some batches need the flip-prone
        phase (with and without a rebuild) and some are all cap-safe."""
        outcomes = set()
        for family in FAMILIES:
            for seed in range(3):
                orientation, _dynamic, batch = _prepared(family, seed)
                report = orientation.apply_batch(batch.updates)
                outcomes.add((report.serial_groups > 0, orientation.rebuilds > 0))
        assert outcomes >= {(True, True), (True, False), (False, False)}


class TestServiceDeterminism:
    """Same seed ⇒ byte-identical structures under either kernel backend, on
    every trace family (including rebuild-heavy ones), whether the batches
    run straight through, with tracing on, or through a JSON
    ``state_dict``/``from_state`` round trip after every batch."""

    @staticmethod
    def _fingerprint(service: StreamingService):
        return (
            tuple(tuple(sorted(out)) for out in service.orientation._out),
            tuple(service.coloring._colors),
            service.orientation.flips,
            service.orientation.opportunistic_flips,
            service.orientation.rebuilds,
            service.cluster.stats.num_rounds,
        )

    @pytest.mark.parametrize(
        "make_trace",
        [
            lambda: uniform_churn_trace(192, num_batches=5, batch_size=120, seed=2),
            lambda: sliding_window_trace(128, window=256, num_batches=5,
                                         batch_size=80, seed=3),
            lambda: densifying_core_trace(96, core_size=32, num_batches=6,
                                          batch_size=100, seed=4),
        ],
        ids=["churn", "window", "densify"],
    )
    @pytest.mark.parametrize("mode", ["straight", "traced", "restored"])
    def test_kernel_backends_identical(self, make_trace, mode, kernel_backend):
        with kernels.use_backend(kernels.PURE):
            trace = make_trace()
            service = StreamingService(trace.initial, seed=7)
            service.apply_all(trace.batches)
            service.verify()
            expected = self._fingerprint(service)
        trace = make_trace()
        if mode == "restored":
            service = StreamingService(trace.initial, seed=7)
            for batch in trace.batches:
                service.apply(batch)
                state = json.loads(json.dumps(service.state_dict()))
                service = StreamingService.from_state(state)
        else:
            tracer = Tracer() if mode == "traced" else None
            service = StreamingService(trace.initial, seed=7, tracer=tracer)
            service.apply_all(trace.batches)
        service.verify()
        assert self._fingerprint(service) == expected

    def test_parallel_groups_are_reported(self):
        trace = uniform_churn_trace(256, num_batches=3, batch_size=150, seed=8)
        service = StreamingService(trace.initial, seed=8)
        summary = service.apply_all(trace.batches)
        assert all(r.conflict_groups >= r.parallel_groups for r in summary.reports)
        assert sum(r.parallel_groups for r in summary.reports) > 0


class TestProactiveFlips:
    def test_proactive_flip_drains_an_at_cap_vertex(self):
        """Direct scenario: w sits at the cap with an out-edge into t; a
        deletion frees a slot at t; the maintainer must flip w->t to t->w."""
        n = 6
        dynamic = DynamicGraph.empty(n)
        orientation = IncrementalOrientation(dynamic, lambda_bound=2, flip_slack=2)
        cap = orientation.outdegree_cap
        # Hand-build the state (legal: edge-set matches, caps respected).
        # w = 0 at cap: 0 -> 1, 0 -> 2, 0 -> 3, 0 -> 4 (cap = 4);
        # t = 1 owns one extra edge 1 -> 5.
        install_heads(orientation, [(0, w) for w in range(1, cap + 1)] + [(1, 5)])
        assert orientation.outdegree(0) == cap
        assert orientation.max_outdegree() == cap
        # Deleting {1, 5} frees a slot at 1; 0 is an at-cap in-neighbor of 1.
        dynamic.remove_edge(1, 5)
        apply_one(orientation, "-", 1, 5)
        assert orientation.opportunistic_flips == 1
        assert orientation.outdegree(0) == cap - 1
        assert orientation.head(0, 1) == 0  # flipped toward the freed slot
        assert orientation.max_outdegree() <= cap

    def test_delete_flips_nothing_when_no_in_neighbor_is_at_cap(self):
        dynamic = DynamicGraph.empty(6)
        orientation = IncrementalOrientation(dynamic, lambda_bound=2, flip_slack=2)
        for u, v in ((0, 1), (1, 5)):
            dynamic.add_edge(u, v)
            apply_one(orientation, "+", u, v)
        assert orientation.head(0, 1) == 1 and orientation.head(1, 5) == 5
        # Deleting {1, 5} frees a slot at 1, but its in-neighbor 0 is below the cap.
        dynamic.remove_edge(1, 5)
        report = apply_one(orientation, "-", 1, 5)
        assert report.proactive_flips == 0
        assert orientation.opportunistic_flips == 0
        assert orientation.head(0, 1) == 1

    @pytest.mark.parametrize("seed", [1, 4])
    def test_churn_property_invariants_hold_with_proactive_flips(self, seed):
        """ISSUE 3 satellite: under random churn with deletions, proactive
        flips fire, the cap invariant holds at every checkpoint, and the
        oriented set tracks the live set exactly."""
        n = 64
        rng = random.Random(seed)
        base = union_of_random_forests(n, arboricity=3, seed=seed)
        dynamic = DynamicGraph(base)
        orientation = IncrementalOrientation(dynamic, lambda_bound=2, flip_slack=2,
                                             quality_interval=10**9)
        mirror = set(base.edges)
        for step in range(900):
            if mirror and rng.random() < 0.55:
                e = sorted(mirror)[rng.randrange(len(mirror))]
                mirror.discard(e)
                dynamic.remove_edge(*e)
                apply_one(orientation, "-", *e)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                e = (min(u, v), max(u, v))
                if e in mirror:
                    continue
                mirror.add(e)
                dynamic.add_edge(*e)
                apply_one(orientation, "+", *e)
            if step % 90 == 89:
                assert orientation.max_outdegree() <= orientation.outdegree_cap
                assert orientation.oriented_edge_count() == len(mirror)
        assert orientation.opportunistic_flips > 0
        assert orientation.opportunistic_flips <= orientation.flips

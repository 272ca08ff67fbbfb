"""Tests for IncrementalOrientation: invariants, flips, fallback, O(λ) bound."""

from __future__ import annotations

import random

import pytest

from repro.core.parameters import loglog
from repro.errors import GraphError
from repro.graph.arboricity import arboricity_bounds
from repro.graph.generators import complete_graph, union_of_random_forests
from repro.graph.graph import Graph
from repro.stream.dynamic_graph import DynamicGraph
from repro.stream.orientation import IncrementalOrientation
from tests.conftest import apply_one


def make_pair(base: Graph, **kwargs):
    dynamic = DynamicGraph(base)
    return dynamic, IncrementalOrientation(dynamic, **kwargs)


class TestBasics:
    def test_initial_orientation_covers_base(self):
        base = union_of_random_forests(64, arboricity=2, seed=1)
        _dynamic, orientation = make_pair(base)
        assert orientation.oriented_edge_count() == base.num_edges
        for u, v in base.edges:
            assert orientation.head(u, v) in (u, v)
        assert orientation.max_outdegree() <= orientation.outdegree_cap

    def test_insert_orients_and_delete_unorients(self):
        dynamic, orientation = make_pair(Graph.empty(4))
        dynamic.add_edge(0, 1)
        apply_one(orientation, "+", 0, 1)
        assert orientation.head(0, 1) in (0, 1)
        assert orientation.oriented_edge_count() == 1
        dynamic.remove_edge(0, 1)
        apply_one(orientation, "-", 0, 1)
        assert orientation.oriented_edge_count() == 0
        with pytest.raises(GraphError):
            orientation.head(0, 1)

    def test_delete_unoriented_edge_raises(self):
        _dynamic, orientation = make_pair(Graph.empty(3))
        with pytest.raises(GraphError):
            apply_one(orientation, "-", 0, 1)

    def test_flip_slack_must_allow_paths(self):
        with pytest.raises(GraphError):
            IncrementalOrientation(DynamicGraph.empty(2), flip_slack=1)

    def test_to_orientation_round_trip(self):
        base = union_of_random_forests(48, arboricity=2, seed=2)
        dynamic, orientation = make_pair(base)
        frozen = orientation.to_orientation()
        assert frozen.graph.num_edges == dynamic.num_edges
        assert frozen.max_outdegree() == orientation.max_outdegree()


class TestOneUpdateBatch:
    """A one-update ``apply_batch`` is the whole per-update path: the tail
    rule, the flip repair, the quality tick and the drift errors all run
    through it."""

    def test_insert_orients_out_of_the_smaller_outdegree(self):
        dynamic, orientation = make_pair(Graph.empty(4))
        reports = []
        for u, v in ((0, 1), (0, 2), (1, 2)):
            dynamic.add_edge(u, v)
            reports.append(apply_one(orientation, "+", u, v))
        assert orientation.head(0, 1) == 1  # tie: out of the first endpoint
        assert orientation.head(0, 2) == 0  # 2 had the smaller outdegree
        assert orientation.head(1, 2) == 2  # tie again: 1 -> 2
        for report in reports:
            assert (report.num_updates, report.num_groups) == (1, 1)
            assert (report.parallel_groups, report.serial_groups) == (1, 0)

    def test_insert_of_an_oriented_edge_raises(self):
        dynamic, orientation = make_pair(Graph.empty(3))
        dynamic.add_edge(0, 1)
        apply_one(orientation, "+", 0, 1)
        with pytest.raises(GraphError, match="already-oriented"):
            apply_one(orientation, "+", 0, 1)
        assert orientation.oriented_edge_count() == 1

    def test_each_update_ticks_the_quality_check(self):
        dynamic, orientation = make_pair(Graph.empty(6), quality_interval=3)
        for step, (u, v) in enumerate(((0, 1), (2, 3)), start=1):
            dynamic.add_edge(u, v)
            apply_one(orientation, "+", u, v)
            assert orientation._updates_since_check == step
        dynamic.remove_edge(0, 1)
        apply_one(orientation, "-", 0, 1)  # third update: the check runs
        assert orientation._updates_since_check == 0
        dynamic.add_edge(4, 5)
        apply_one(orientation, "+", 4, 5)
        assert orientation._updates_since_check == 1

    def test_overloading_insert_repairs_along_a_flip_path(self):
        """K5 densified edge by edge under cap 2: some inserts land on a
        saturated tail, run as a flip-prone group and flip a path instead of
        rebuilding (K5 fits outdegree 2 exactly)."""
        n = 5
        dynamic = DynamicGraph.empty(n)
        orientation = IncrementalOrientation(dynamic, lambda_bound=1, flip_slack=2)
        assert orientation.outdegree_cap == 2
        repaired = 0
        for u in range(n):
            for v in range(u + 1, n):
                dynamic.add_edge(u, v)
                flips_before = orientation.flips
                report = apply_one(orientation, "+", u, v)
                if orientation.flips > flips_before:
                    repaired += 1
                    assert report.serial_groups == 1
                assert orientation.max_outdegree() <= orientation.outdegree_cap
        assert repaired >= 1
        assert orientation.rebuilds == 0
        assert orientation.oriented_edge_count() == n * (n - 1) // 2


class TestFlipsAndFallback:
    def test_insertions_into_low_capacity_vertex_trigger_flips(self):
        """A star forced through a tiny cap must flip paths away from the hub."""
        n = 40
        dynamic = DynamicGraph.empty(n)
        orientation = IncrementalOrientation(dynamic, lambda_bound=1, flip_slack=2)
        # ring so flip paths exist out of every vertex
        for i in range(n):
            dynamic.add_edge(i, (i + 1) % n)
            apply_one(orientation, "+", i, (i + 1) % n)
        assert orientation.max_outdegree() <= orientation.outdegree_cap

    def test_densification_triggers_theorem_rebuild(self):
        """Growing a clique past the cap saturates the flip search and falls
        back to the full Theorem 1.1 pipeline with a refreshed estimate."""
        n = 24
        dynamic = DynamicGraph.empty(n)
        orientation = IncrementalOrientation(dynamic, lambda_bound=1, flip_slack=2)
        for u in range(n):
            for v in range(u + 1, n):
                dynamic.add_edge(u, v)
                apply_one(orientation, "+", u, v)
        assert orientation.rebuilds >= 1
        assert orientation.lambda_bound > 1
        assert orientation.max_outdegree() <= orientation.outdegree_cap
        assert orientation.oriented_edge_count() == dynamic.num_edges

    def test_ensure_quality_rebuilds_down_after_mass_deletion(self):
        """Deleting the dense part leaves the cap stale-high; the amortised
        quality check must rebuild with a fresh (smaller) estimate."""
        clique = complete_graph(16)
        padding = 400  # sparse remainder so the fresh estimate is small
        edges = list(clique.edges) + [(i, i + 1) for i in range(16, padding)]
        base = Graph(padding + 1, edges)
        dynamic = DynamicGraph(base)
        orientation = IncrementalOrientation(dynamic)
        cap_before = orientation.outdegree_cap
        for u, v in clique.edges:
            dynamic.remove_edge(u, v)
            apply_one(orientation, "-", u, v)
        rebuilt = orientation.ensure_quality(force=True)
        assert rebuilt
        assert orientation.outdegree_cap < cap_before
        assert orientation.max_outdegree() <= orientation.outdegree_cap

    def test_rebuild_charges_cluster_rounds(self):
        from repro.mpc.cluster import MPCCluster
        from repro.mpc.config import MPCConfig

        n = 20
        cluster = MPCCluster(MPCConfig(num_vertices=n, num_edges=n * n))
        dynamic = DynamicGraph.empty(n)
        orientation = IncrementalOrientation(
            dynamic, lambda_bound=1, flip_slack=2, cluster=cluster
        )
        for u in range(n):
            for v in range(u + 1, n):
                dynamic.add_edge(u, v)
                apply_one(orientation, "+", u, v)
        assert orientation.rebuilds >= 1
        assert cluster.stats.rounds_by_label["stream:rebuild:saturated"] >= 1
        assert cluster.stats.num_rounds > 0


class TestBoundProperty:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_outdegree_stays_o_lambda_after_1k_interleaved_ops(self, seed):
        """Acceptance property: after ≥1k random interleaved inserts/deletes
        the maintained max outdegree respects the cap invariant at every
        checkpoint, and the cap stays O(λ) of the *current* graph."""
        n = 128
        rng = random.Random(seed)
        base = union_of_random_forests(n, arboricity=2, seed=seed)
        dynamic = DynamicGraph(base)
        orientation = IncrementalOrientation(dynamic, quality_interval=64)
        mirror = set(base.edges)
        pool = sorted(mirror)
        loglog_n = loglog(n)
        for step in range(1100):
            if mirror and rng.random() < 0.5:
                e = pool[rng.randrange(len(pool))]
                if e not in mirror:
                    continue
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
                pool.append(e)
                dynamic.add_edge(*e)
                apply_one(orientation, "+", *e)
            if step % 100 == 99:
                # Invariant: never above the maintained cap.
                assert orientation.max_outdegree() <= orientation.outdegree_cap
                assert orientation.oriented_edge_count() == len(mirror)
        # O(λ) of the current graph: after the amortised quality check, the
        # cap is at most 2·flip_slack·degeneracy ≤ 4·flip_slack·λ, except a
        # Theorem 1.1 fallback may have realised its O(λ log log n) bound.
        orientation.ensure_quality(force=True)
        bounds = arboricity_bounds(dynamic.snapshot(), exact_density=False)
        envelope = 16 * max(1, bounds.upper) * loglog_n
        assert orientation.max_outdegree() <= envelope
        assert orientation.outdegree_cap <= envelope

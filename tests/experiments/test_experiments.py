"""Tests for workloads, the experiment registry and the harness."""

from __future__ import annotations

import pytest

from repro.experiments.harness import (
    run_coloring_experiment,
    run_orientation_experiment,
    run_round_scaling_experiment,
    sweep,
)
from repro.experiments.registry import all_experiments, get_experiment, get_runner
from repro.experiments.workloads import (
    Workload,
    dense_sweep,
    forests_sweep,
    power_law_sweep,
    standard_suite,
    union_forest_sweep,
)


class TestWorkloads:
    def test_materialize_is_deterministic(self):
        workload = Workload(
            name="w", family="union_forests", num_vertices=128, seed=3, params=(("arboricity", 2),)
        )
        assert workload.materialize() == workload.materialize()
        assert "union_forests" in workload.describe()

    def test_sweep_constructors(self):
        assert len(forests_sweep(sizes=(64, 128))) == 2
        assert len(union_forest_sweep(sizes=(64,), arboricities=(2, 4))) == 2
        assert len(power_law_sweep(sizes=(64,))) == 1
        assert len(dense_sweep(sizes=(100,))) == 1
        assert len(standard_suite()) >= 4

    def test_workload_sizes_match(self):
        for workload in union_forest_sweep(sizes=(64,), arboricities=(2,)):
            graph = workload.materialize()
            assert graph.num_vertices == 64


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = [spec.experiment_id for spec in all_experiments()]
        assert ids == ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "S1", "S2", "S3", "S4"]

    def test_every_experiment_has_workloads_and_columns(self):
        for spec in all_experiments():
            assert spec.workloads, spec.experiment_id
            assert spec.columns, spec.experiment_id
            assert spec.bench_module.startswith("benchmarks/")

    def test_get_experiment_lookup(self):
        assert get_experiment("E3").experiment_id == "E3"
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_runner_lookup_covers_harness_backed_experiments(self):
        for experiment_id in ("E1", "E2", "E3", "S1", "S2", "S3"):
            assert callable(get_runner(experiment_id))
        with pytest.raises(KeyError, match="bench_e4"):
            get_runner("E4")

    def test_s2_sweep_holds_the_update_budget_fixed(self):
        spec = get_experiment("S2")
        budgets = set()
        for workload in spec.workloads:
            params = dict(workload.params)
            budgets.add(params["num_batches"] * params["batch_size"])
        assert len(budgets) == 1


class TestHarness:
    @pytest.fixture
    def small_workload(self) -> Workload:
        return Workload(
            name="small",
            family="union_forests",
            num_vertices=128,
            seed=1,
            params=(("arboricity", 2),),
        )

    def test_orientation_experiment_row(self, small_workload):
        row = run_orientation_experiment(small_workload)
        data = row.as_dict()
        assert data["n"] == 128
        assert data["max_outdegree"] <= data["outdegree_bound"]
        assert data["outdegree_ok"] == 1.0
        assert data["rounds_ok"] == 1.0

    def test_coloring_experiment_row(self, small_workload):
        row = run_coloring_experiment(small_workload)
        data = row.as_dict()
        assert data["proper"] == 1.0
        assert data["colors"] <= data["colors_bound"]
        assert data["degeneracy_colors"] <= data["colors"] + 10

    def test_coloring_experiment_threads_workers_through(self, small_workload, monkeypatch):
        """ISSUE 4 satellite: the E2 runner used to accept ``workers`` and
        silently drop it; it must now reach ``color()``."""
        import repro.experiments.harness as harness

        captured = {}
        original = harness.color

        def spy(graph, **kwargs):
            captured.update(kwargs)
            return original(graph, **kwargs)

        monkeypatch.setattr(harness, "color", spy)
        run_coloring_experiment(small_workload, workers=3)
        assert captured["workers"] == 3

    def test_coloring_experiment_workers_change_path_not_result(
        self, monkeypatch, force_process
    ):
        """With a large-λ workload and the process path forced, the parts
        actually fan out to process workers (the execution path changes),
        but the row is identical to serial."""
        from repro.core.coloring import color

        workload = Workload(
            name="dense",
            family="planted_dense",
            num_vertices=200,
            seed=17,
            params=(
                ("community_size", 70),
                ("community_probability", 0.7),
                ("background_probability", 0.02),
            ),
        )
        graph = workload.materialize()
        reference = color(graph, seed=0)
        assert reference.used_vertex_partitioning  # the fan-out branch runs
        from repro.engine.pool import WorkerPool

        process_maps = []
        original_run = WorkerPool._run

        def recording_run(self, fn, task_list, submit_marks=None):
            process_maps.append(len(task_list))
            return original_run(self, fn, task_list, submit_marks)

        monkeypatch.setattr(WorkerPool, "_run", recording_run)
        parallel = color(graph, seed=0, workers=2)
        # workers>1 changed the path: the parts fanned out through process
        # workers instead of the in-process loop ...
        assert len(process_maps) == 1
        assert process_maps[0] > 1
        # ... but not the result.
        assert parallel.coloring.as_dict() == reference.coloring.as_dict()
        assert parallel.rounds == reference.rounds

        serial_row = run_coloring_experiment(workload, workers=1).as_dict()
        parallel_row = run_coloring_experiment(workload, workers=4).as_dict()
        assert serial_row == parallel_row

    def test_round_scaling_row(self, small_workload):
        row = run_round_scaling_experiment(small_workload)
        data = row.as_dict()
        assert data["rounds_ours"] >= 1
        assert data["rounds_local"] >= 1
        assert data["rounds_glm19"] >= 1

    def test_sweep_applies_runner(self, small_workload):
        rows = sweep([small_workload, small_workload], run_orientation_experiment)
        assert len(rows) == 2

"""Experiment registry — the per-experiment index of DESIGN.md, in code.

Each entry names an experiment (E1–E7), the claim it reproduces, the workloads
it sweeps, and the benchmark module that regenerates its table.  The benchmark
modules import :func:`get_experiment` so the definitions live in exactly one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.workloads import (
    Workload,
    dense_sweep,
    forests_sweep,
    power_law_sweep,
    standard_suite,
    union_forest_sweep,
)
from repro.stream.workloads import multi_tenant_suite, scheduler_suite, streaming_suite


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one experiment in the reproduction."""

    experiment_id: str
    claim: str
    bench_module: str
    workloads: tuple[Workload, ...]
    notes: str = ""
    columns: tuple[str, ...] = field(default_factory=tuple)


def _e1_workloads() -> tuple[Workload, ...]:
    return tuple(standard_suite(seed=1))


def _e2_workloads() -> tuple[Workload, ...]:
    return tuple(standard_suite(seed=2))


def _e3_workloads() -> tuple[Workload, ...]:
    return tuple(
        union_forest_sweep(sizes=(256, 512, 1024, 2048, 4096), arboricities=(4,), seed=3)
    )


def _e4_workloads() -> tuple[Workload, ...]:
    return tuple(dense_sweep(sizes=(400, 800), seed=4))


def _e5_workloads() -> tuple[Workload, ...]:
    return tuple(union_forest_sweep(sizes=(512, 2048), arboricities=(2, 4), seed=5))


def _e6_workloads() -> tuple[Workload, ...]:
    return tuple(union_forest_sweep(sizes=(256, 1024, 4096), arboricities=(4,), seed=6))


def _e7_workloads() -> tuple[Workload, ...]:
    return tuple(forests_sweep(sizes=(256, 1024, 4096), seed=7))


def _s1_workloads() -> tuple:
    # StreamWorkload duck-types Workload (name/family/size/seed/params,
    # materialize/describe); its materialize() yields a StreamTrace instead of
    # a Graph, which the S1 runner consumes.
    return tuple(streaming_suite(seed=8))


# S2 sweeps batch size at a fixed insert budget: every workload performs
# _S2_TOTAL_INSERTS window insertions (plus the matching expiries), only the
# batching changes — so amortised rounds/update is directly comparable.
_S2_TOTAL_INSERTS = 3200
_S2_BATCH_SIZES = (25, 50, 100, 200, 400)


def _s2_workloads() -> tuple:
    from repro.stream.workloads import StreamWorkload

    return tuple(
        StreamWorkload(
            name=f"window-512-b{batch_size}",
            family="sliding_window",
            num_vertices=512,
            seed=9,
            params=(
                ("window", 512),
                ("num_batches", _S2_TOTAL_INSERTS // batch_size),
                ("batch_size", batch_size),
            ),
        )
        for batch_size in _S2_BATCH_SIZES
    )


_REGISTRY: dict[str, ExperimentSpec] = {
    "E1": ExperimentSpec(
        experiment_id="E1",
        claim="Theorem 1.1: orientation with max outdegree O(λ log log n) in poly(log log n) rounds",
        bench_module="benchmarks/bench_e1_orientation.py",
        workloads=_e1_workloads(),
        columns=("workload", "n", "m", "lambda_hi", "max_degree", "max_outdegree", "outdegree_bound", "rounds"),
    ),
    "E2": ExperimentSpec(
        experiment_id="E2",
        claim="Theorem 1.2: proper coloring with O(λ log log n) colors in poly(log log n) rounds",
        bench_module="benchmarks/bench_e2_coloring.py",
        workloads=_e2_workloads(),
        columns=("workload", "n", "lambda_hi", "max_degree", "colors", "colors_bound", "greedy_delta_colors", "degeneracy_colors", "rounds"),
    ),
    "E3": ExperimentSpec(
        experiment_id="E3",
        claim="Round-complexity separation: ours (poly log log n) vs GLM19 (√log n) vs LOCAL-in-MPC (log n)",
        bench_module="benchmarks/bench_e3_round_scaling.py",
        workloads=_e3_workloads(),
        columns=("workload", "n", "rounds_ours", "rounds_glm19", "rounds_local", "outdeg_ours", "outdeg_glm19", "outdeg_local"),
    ),
    "E4": ExperimentSpec(
        experiment_id="E4",
        claim="Lemmas 2.1/2.2: random edge/vertex partitioning reduces per-part arboricity to O(log n)",
        bench_module="benchmarks/bench_e4_partitioning.py",
        workloads=_e4_workloads(),
        columns=("workload", "n", "lambda_hi", "parts", "max_part_arboricity_edges", "max_part_arboricity_vertices", "log_n_budget"),
    ),
    "E5": ExperimentSpec(
        experiment_id="E5",
        claim="Lemma 3.15: complete layering with out-degree O(k log log n) and geometric layer decay",
        bench_module="benchmarks/bench_e5_layer_decay.py",
        workloads=_e5_workloads(),
        columns=("workload", "n", "k", "num_layers", "max_out_degree", "out_degree_bound", "decay_ok"),
    ),
    "E6": ExperimentSpec(
        experiment_id="E6",
        claim="Claims 3.5/3.11: local memory O(n^δ + B), global memory O(nB + m)",
        bench_module="benchmarks/bench_e6_memory.py",
        workloads=_e6_workloads(),
        columns=("workload", "n", "S", "peak_machine_words", "local_bound", "peak_global_words", "global_bound"),
    ),
    "E7": ExperimentSpec(
        experiment_id="E7",
        claim="Forests (λ=1): general pipeline vs the forest-specialised baseline [GLM+23-style]",
        bench_module="benchmarks/bench_e7_forests.py",
        workloads=_e7_workloads(),
        columns=("workload", "n", "outdeg_general", "outdeg_forest", "colors_general", "colors_forest", "rounds_general", "rounds_forest"),
    ),
    "S1": ExperimentSpec(
        experiment_id="S1",
        claim="Streaming: incremental orientation/coloring maintenance keeps max outdegree O(λ) under edge churn, ≥5x faster than recompute-per-batch",
        bench_module="benchmarks/bench_s1_streaming.py",
        workloads=_s1_workloads(),
        notes="Dynamic extension beyond the paper: Brodal–Fagerberg flip paths with a Theorem 1.1 fallback rebuild.",
        columns=("workload", "n", "m", "lambda_hi", "updates", "flips", "recolors", "rebuilds", "rounds", "final_max_outdegree", "outdegree_bound", "final_colors", "proper"),
    ),
    "S3": ExperimentSpec(
        experiment_id="S3",
        claim="Multi-tenant streaming: N tenants multiplexed on one engine; per-tenant results identical to standalone services while aggregate rounds charge parallel ticks as max-over-tenants",
        bench_module="benchmarks/bench_s3_multi_tenant.py",
        workloads=tuple(multi_tenant_suite(seed=10)),
        notes="Ticks fold tenant sub-ledgers with merge_parallel; round_savings = sequential-sum / parallel-max, approaching the tenant count on balanced fleets.",
        columns=("workload", "tenants", "ticks", "updates", "flips", "rebuilds", "rounds_parallel", "rounds_sequential", "round_savings", "max_outdegree", "colors", "proper", "wall_clock_s"),
    ),
    "S4": ExperimentSpec(
        experiment_id="S4",
        claim="Round-budgeted scheduling: top-k-backlog / deficit-round-robin keep per-tick folded rounds within the budget while conserving every update; tail latency and backlog trade against the budget",
        bench_module="benchmarks/bench_s4_scheduler.py",
        workloads=tuple(scheduler_suite(seed=11)),
        notes="Skewed fleet (2 bursty, 6 steady); unserved tenants' batches carry over intact; served tenants stay byte-identical to standalone runs.",
        columns=("workload", "tenants", "policy", "budget", "ticks", "updates", "served", "deferred", "max_backlog", "tail_latency", "rounds_parallel", "rounds_sequential", "budget_ok", "conserved", "proper", "wall_clock_s"),
    ),
    "S2": ExperimentSpec(
        experiment_id="S2",
        claim="Streaming batching: at a fixed update budget, amortised MPC rounds/update fall ~1/batch_size while maintained quality stays flat",
        bench_module="benchmarks/bench_s2_batch_size.py",
        workloads=_s2_workloads(),
        notes="Windowed (turnstile) trace; batch delivery is one communication round regardless of size until the batch outgrows S.",
        columns=("workload", "n", "batch_size", "batches", "updates", "rounds", "rounds_per_update", "flips", "amortised_flips", "rebuilds", "final_max_outdegree"),
    ),
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (e.g. ``"E1"``)."""
    return _REGISTRY[experiment_id]


def all_experiments() -> list[ExperimentSpec]:
    """All registered experiments, in id order."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def get_runner(experiment_id: str):
    """The harness runner for an experiment id, for CLI-driven sweeps.

    Every returned callable has the signature
    ``runner(workload, delta=..., seed=..., tracer=...) -> ExperimentRow``;
    only the static runners (E1–E3) also take ``workers=...``, which fans
    their Lemma 2.1/2.2 parts out to processes.  The streaming runners
    (S1–S4) run in-process and take no ``workers``.
    Experiments whose tables are produced by bespoke benchmark code rather
    than a harness runner (E4–E7) raise ``KeyError`` — run their
    ``bench_module`` instead.  Imported lazily so importing the registry
    stays cheap and dependency-light.
    """
    from repro.experiments.harness import (
        run_coloring_experiment,
        run_orientation_experiment,
        run_round_scaling_experiment,
    )
    from repro.experiments.streaming import (
        run_batch_size_experiment,
        run_multi_tenant_experiment,
        run_scheduler_experiment,
        run_streaming_experiment,
    )

    runners = {
        "E1": run_orientation_experiment,
        "E2": run_coloring_experiment,
        "E3": run_round_scaling_experiment,
        "S1": run_streaming_experiment,
        "S2": run_batch_size_experiment,
        "S3": run_multi_tenant_experiment,
        "S4": run_scheduler_experiment,
    }
    if experiment_id not in runners:
        raise KeyError(
            f"experiment {experiment_id!r} has no harness runner; regenerate its "
            f"table via {get_experiment(experiment_id).bench_module}"
        )
    return runners[experiment_id]

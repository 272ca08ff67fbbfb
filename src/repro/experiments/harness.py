"""Experiment harness: run one algorithm on one workload and collect a row.

Every experiment (E1–E7) produces rows with a common core — workload
description, arboricity bounds, round counts, quality metrics — so a single
harness covers all of them; per-experiment extras are added by the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.validators import (
    validate_coloring_quality,
    validate_layer_decay,
    validate_orientation_quality,
    validate_round_complexity,
)
from repro.baselines.be_mpc import barenboim_elkin_in_mpc
from repro.baselines.glm19 import glm19_orientation
from repro.baselines.greedy import degeneracy_order_coloring, greedy_delta_coloring
from repro.core.coloring import color
from repro.core.orientation import orient
from repro.experiments.workloads import Workload
from repro.graph.arboricity import arboricity_bounds
from repro.graph.graph import Graph


@dataclass
class ExperimentRow:
    """One measured row of an experiment table."""

    workload: str
    num_vertices: int
    num_edges: int
    arboricity_lower: int
    arboricity_upper: int
    metrics: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """Flattened dictionary for the reporting layer."""
        base: dict[str, object] = {
            "workload": self.workload,
            "n": self.num_vertices,
            "m": self.num_edges,
            "lambda_lo": self.arboricity_lower,
            "lambda_hi": self.arboricity_upper,
        }
        base.update(self.metrics)
        return base


def _base_row(workload: Workload, graph: Graph, exact_density: bool = False) -> ExperimentRow:
    bounds = arboricity_bounds(graph, exact_density=exact_density)
    return ExperimentRow(
        workload=workload.describe(),
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        arboricity_lower=bounds.lower,
        arboricity_upper=bounds.upper,
    )


def run_orientation_experiment(
    workload: Workload,
    delta: float = 0.5,
    seed: int = 0,
    exact_density: bool = False,
    workers: int = 1,
    tracer=None,
) -> ExperimentRow:
    """E1: run Theorem 1.1 on a workload and record quality/round metrics.

    ``workers`` fans the large-λ Lemma 2.1 parts out through the worker
    pool; results are identical for any worker count.  ``tracer`` (a
    :class:`repro.obs.Tracer`, optional) records host-side spans without
    affecting any result.
    """
    graph = workload.materialize()
    row = _base_row(workload, graph, exact_density=exact_density)
    run = orient(graph, delta=delta, seed=seed, workers=workers, tracer=tracer)
    quality = validate_orientation_quality(
        run.orientation, row.arboricity_upper, graph.num_vertices
    )
    rounds_check = validate_round_complexity(run.rounds, graph.num_vertices)
    row.metrics.update(
        {
            "max_outdegree": float(run.max_outdegree),
            "outdegree_bound": quality.allowed,
            "outdegree_ok": 1.0 if quality.passed else 0.0,
            "rounds": float(run.rounds),
            "rounds_bound": rounds_check.allowed,
            "rounds_ok": 1.0 if rounds_check.passed else 0.0,
            "max_degree": float(graph.max_degree()),
            "edge_partitioned": 1.0 if run.used_edge_partitioning else 0.0,
        }
    )
    if run.hpartition is not None:
        decay = validate_layer_decay(run.hpartition)
        row.metrics["layer_decay_ok"] = 1.0 if decay.passed else 0.0
        row.metrics["num_layers"] = float(run.hpartition.num_layers)
    return row


def run_coloring_experiment(
    workload: Workload,
    delta: float = 0.5,
    seed: int = 0,
    exact_density: bool = False,
    workers: int = 1,
    tracer=None,
) -> ExperimentRow:
    """E2: run Theorem 1.2 on a workload, with the centralised baselines alongside.

    ``workers`` fans the large-λ Lemma 2.2 vertex-partition parts out through
    the worker pool (exactly like E1's orientation runner); results are
    identical for any worker count.
    """
    graph = workload.materialize()
    row = _base_row(workload, graph, exact_density=exact_density)
    run = color(graph, delta=delta, seed=seed, workers=workers, tracer=tracer)
    quality = validate_coloring_quality(run.coloring, row.arboricity_upper, graph.num_vertices)
    rounds_check = validate_round_complexity(run.rounds, graph.num_vertices)
    delta_baseline = greedy_delta_coloring(graph)
    degeneracy_baseline = degeneracy_order_coloring(graph)
    row.metrics.update(
        {
            "colors": float(run.num_colors),
            "palette": float(run.palette_size),
            "colors_bound": quality.allowed,
            "colors_ok": 1.0 if quality.passed else 0.0,
            "proper": 1.0 if run.coloring.is_proper() else 0.0,
            "rounds": float(run.rounds),
            "rounds_ok": 1.0 if rounds_check.passed else 0.0,
            "greedy_delta_colors": float(delta_baseline.num_colors()),
            "degeneracy_colors": float(degeneracy_baseline.num_colors()),
            "max_degree": float(graph.max_degree()),
        }
    )
    return row


def run_round_scaling_experiment(
    workload: Workload,
    delta: float = 0.5,
    seed: int = 0,
    workers: int = 1,
    tracer=None,
) -> ExperimentRow:
    """E3: round counts of ours vs GLM19-style vs LOCAL-in-MPC on one workload."""
    graph = workload.materialize()
    row = _base_row(workload, graph)
    arboricity = row.arboricity_upper
    ours = orient(graph, delta=delta, seed=seed, workers=workers, tracer=tracer)
    glm = glm19_orientation(graph, arboricity=arboricity, delta=delta)
    be = barenboim_elkin_in_mpc(graph, arboricity=arboricity, delta=delta)
    row.metrics.update(
        {
            "rounds_ours": float(ours.rounds),
            "rounds_glm19": float(glm.rounds),
            "rounds_local": float(be.rounds),
            "outdeg_ours": float(ours.max_outdegree),
            "outdeg_glm19": float(glm.max_outdegree),
            "outdeg_local": float(be.max_outdegree),
        }
    )
    return row


def sweep(
    workloads: list[Workload],
    runner: Callable[[Workload], ExperimentRow],
) -> list[ExperimentRow]:
    """Apply a runner to every workload, returning the result rows."""
    return [runner(workload) for workload in workloads]

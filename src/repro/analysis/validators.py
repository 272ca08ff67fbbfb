"""Validators for every quantitative claim the paper makes.

Each validator returns a :class:`ValidationReport` (rather than raising), so
the experiment harness can record *how close* a run came to a bound as well as
whether it met it.  Strict ``check_*`` wrappers that raise are provided for
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.layering import PartialLayerAssignment
from repro.core.parameters import Parameters, density_bound, loglog
from repro.core.tree_view import TreeView
from repro.errors import ReproError
from repro.graph.coloring import Coloring
from repro.graph.graph import Graph
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation
from repro.mpc.config import local_memory
from repro.mpc.metrics import RoundStats


class ValidationError(ReproError):
    """Raised by the strict ``check_*`` wrappers when a claim fails."""


@dataclass
class ValidationReport:
    """Outcome of one validator: pass/fail plus measured-vs-allowed numbers."""

    name: str
    passed: bool
    measured: float
    allowed: float
    details: dict[str, float] = field(default_factory=dict)

    @property
    def headroom(self) -> float:
        """``allowed / measured`` (∞ when nothing was measured)."""
        if self.measured == 0:
            return math.inf
        return self.allowed / self.measured

    def raise_if_failed(self) -> None:
        """Raise :class:`ValidationError` when the check failed."""
        if not self.passed:
            raise ValidationError(
                f"{self.name}: measured {self.measured} exceeds allowed {self.allowed} "
                f"(details: {self.details})"
            )


# --------------------------------------------------------------------------- #
# Theorem 1.1 / 1.2 outputs
# --------------------------------------------------------------------------- #


def validate_orientation_quality(
    orientation: Orientation, arboricity: int, num_vertices: int, constant: float = 8.0
) -> ValidationReport:
    """Theorem 1.1: max outdegree ≤ constant · λ · log log n."""
    allowed = density_bound(arboricity, num_vertices, constant)
    measured = orientation.max_outdegree()
    return ValidationReport(
        name="theorem-1.1-outdegree",
        passed=measured <= allowed,
        measured=float(measured),
        allowed=float(allowed),
        details={"arboricity": float(arboricity), "loglog_n": loglog(num_vertices)},
    )


def validate_coloring_quality(
    coloring: Coloring, arboricity: int, num_vertices: int, constant: float = 24.0
) -> ValidationReport:
    """Theorem 1.2: proper coloring with ≤ constant · λ · log log n colors."""
    allowed = density_bound(arboricity, num_vertices, constant)
    measured = coloring.num_colors()
    proper = coloring.is_proper()
    return ValidationReport(
        name="theorem-1.2-colors",
        passed=proper and measured <= allowed,
        measured=float(measured),
        allowed=float(allowed),
        details={"proper": 1.0 if proper else 0.0, "arboricity": float(arboricity)},
    )


def validate_round_complexity(
    rounds: int, num_vertices: int, constant: float = 40.0, exponent: float = 3.0
) -> ValidationReport:
    """poly(log log n) round complexity: rounds ≤ constant · (log log n)^exponent."""
    loglog_n = loglog(num_vertices)
    allowed = constant * (loglog_n ** exponent)
    return ValidationReport(
        name="round-complexity",
        passed=rounds <= allowed,
        measured=float(rounds),
        allowed=float(allowed),
        details={"loglog_n": loglog_n},
    )


# --------------------------------------------------------------------------- #
# H-partition / layer assignment claims
# --------------------------------------------------------------------------- #


def validate_hpartition_out_degree(
    partition: HPartition, bound: int
) -> ValidationReport:
    """Lemma 3.15 property (1): every vertex has ≤ bound neighbors in layers ≥ its own."""
    measured = partition.max_out_degree()
    return ValidationReport(
        name="hpartition-out-degree",
        passed=measured <= bound,
        measured=float(measured),
        allowed=float(bound),
    )


def validate_layer_decay(
    partition: HPartition, ratio: float = 0.5, slack: float = 2.0
) -> ValidationReport:
    """Lemma 3.15 property (2): |{v : ℓ(v) ≥ j}| ≤ slack · ratio^{j-1} · n."""
    n = max(partition.graph.num_vertices, 1)
    worst_excess = 0.0
    worst_layer = 0
    for j, suffix in enumerate(partition.suffix_sizes(), start=1):
        allowed = slack * (ratio ** (j - 1)) * n
        excess = suffix / allowed if allowed > 0 else math.inf
        if excess > worst_excess:
            worst_excess = excess
            worst_layer = j
    return ValidationReport(
        name="layer-decay",
        passed=worst_excess <= 1.0,
        measured=worst_excess,
        allowed=1.0,
        details={"worst_layer": float(worst_layer), "ratio": ratio, "slack": slack},
    )


def validate_partial_assignment(assignment: PartialLayerAssignment) -> ValidationReport:
    """Definition 2.1 / Claim 3.12: observed out-degree ≤ declared out-degree."""
    measured = assignment.max_observed_out_degree()
    return ValidationReport(
        name="partial-assignment-out-degree",
        passed=measured <= assignment.out_degree,
        measured=float(measured),
        allowed=float(assignment.out_degree),
        details={"fraction_assigned": assignment.fraction_assigned()},
    )


# --------------------------------------------------------------------------- #
# Algorithm 2 invariants
# --------------------------------------------------------------------------- #


def validate_tree_budget(trees: dict[int, TreeView], params: Parameters) -> ValidationReport:
    """Claim 3.4: no tree view ever exceeds B nodes."""
    measured = max((t.num_nodes for t in trees.values()), default=0)
    return ValidationReport(
        name="tree-budget",
        passed=measured <= params.budget,
        measured=float(measured),
        allowed=float(params.budget),
    )


def validate_tree_mappings(graph: Graph, trees: dict[int, TreeView]) -> ValidationReport:
    """Claim 3.3: every maintained mapping is valid."""
    bad = sum(0 if t.is_valid_mapping(graph) else 1 for t in trees.values())
    return ValidationReport(
        name="tree-mapping-validity",
        passed=bad == 0,
        measured=float(bad),
        allowed=0.0,
        details={"num_trees": float(len(trees))},
    )


# --------------------------------------------------------------------------- #
# Streaming maintenance claims
# --------------------------------------------------------------------------- #


def validate_streaming_outdegree(
    max_outdegree: int, arboricity: int, num_vertices: int, constant: float = 8.0
) -> ValidationReport:
    """Streaming maintenance: max outdegree ≤ constant · λ · log log n.

    The flip-path invariant keeps the maintained outdegree at most
    ``flip_slack`` (default 4) times the arboricity estimate, the amortised
    quality check keeps the estimate within a factor 2 of the current
    degeneracy (≤ 2λ), and a Theorem 1.1 fallback rebuild can realise the
    static ``O(λ log log n)`` bound — the envelope is therefore the same
    shape (and constant) as :func:`validate_orientation_quality`.  The much
    tighter run-time invariant ``max_outdegree ≤ flip_slack · λ̂`` is enforced
    directly by :meth:`repro.stream.service.StreamingService.verify`.
    """
    allowed = density_bound(arboricity, num_vertices, constant)
    return ValidationReport(
        name="streaming-outdegree",
        passed=max_outdegree <= allowed,
        measured=float(max_outdegree),
        allowed=float(allowed),
        details={"arboricity": float(arboricity), "loglog_n": loglog(num_vertices)},
    )


# --------------------------------------------------------------------------- #
# MPC resource claims
# --------------------------------------------------------------------------- #


def validate_local_memory(
    stats: RoundStats, num_vertices: int, budget: int, delta: float, constant: float = 16.0
) -> ValidationReport:
    """Claims 3.5 / 3.11: peak per-machine memory ≤ constant · (n^δ + B) words."""
    allowed = constant * (local_memory(max(num_vertices, 2), delta) + budget)
    measured = stats.peak_machine_memory_words
    return ValidationReport(
        name="local-memory",
        passed=measured <= allowed,
        measured=float(measured),
        allowed=float(allowed),
        details={"delta": delta, "budget": float(budget)},
    )


def validate_global_memory(
    stats: RoundStats,
    num_vertices: int,
    num_edges: int,
    budget: int,
    constant: float = 16.0,
) -> ValidationReport:
    """Claims 3.5 / 3.11: global memory ≤ constant · (n·B + m) words."""
    allowed = constant * (num_vertices * max(budget, 1) + num_edges + 1)
    measured = stats.peak_global_memory_words
    return ValidationReport(
        name="global-memory",
        passed=measured <= allowed,
        measured=float(measured),
        allowed=float(allowed),
        details={"budget": float(budget)},
    )


# --------------------------------------------------------------------------- #
# Strict wrappers
# --------------------------------------------------------------------------- #


def check_all(reports: list[ValidationReport]) -> None:
    """Raise on the first failed report (test helper)."""
    for report in reports:
        report.raise_if_failed()

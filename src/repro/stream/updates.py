"""Value objects for streaming updates and per-batch metric reports.

An :class:`EdgeUpdate` is a single insert (``+``) or delete (``-``) of one
edge; an :class:`UpdateBatch` is the unit the service API accepts and the
unit the MPC accounting charges rounds for.  :class:`BatchReport` records
what maintaining the structures through one batch actually cost (flips,
recolors, rebuilds, compactions, simulated rounds), and
:class:`StreamSummary` aggregates reports across a whole trace.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress

from repro.errors import GraphError

INSERT = "+"
DELETE = "-"


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge insertion (``op == '+'``) or deletion (``op == '-'``)."""

    op: str
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.op not in (INSERT, DELETE):
            raise GraphError(f"unknown update op {self.op!r} (expected '+' or '-')")
        if self.u == self.v:
            raise GraphError(f"self loop ({self.u}, {self.v}) is not allowed")

    @property
    def is_insert(self) -> bool:
        return self.op == INSERT


@dataclass(frozen=True)
class UpdateBatch:
    """An ordered batch of edge updates, applied atomically by the service."""

    updates: tuple[EdgeUpdate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "updates", tuple(self.updates))
        object.__setattr__(self, "_columns", None)
        object.__setattr__(self, "_insert_columns", None)
        object.__setattr__(self, "_num_inserts", None)

    def __len__(self) -> int:
        return len(self.updates)

    def columns(self) -> tuple[array, array, array]:
        """The batch as flat ``(ops, us, vs)`` columns (op 1 = insert).

        Endpoints keep the *raw* update order — canonicalisation is the
        kernels' concern — and the columns are built once and cached (the
        batch is frozen), so validation, absorption and the recolor scan
        all read the same buffers without re-walking the update objects.
        """
        cached = self._columns
        if cached is None:
            updates = self.updates
            cached = (
                array("l", [update.op == INSERT for update in updates]),
                array("l", [update.u for update in updates]),
                array("l", [update.v for update in updates]),
            )
            object.__setattr__(self, "_columns", cached)
        return cached

    def insert_columns(self) -> tuple[array, array]:
        """``(us, vs)`` columns of just the insertions, in raw batch order.

        Raw order matters: the coloring's victim rule reads ``update.u``
        versus ``update.v`` as written, so these columns feed the
        recolor-candidate scan byte-identically to the per-update loop.
        """
        cached = self._insert_columns
        if cached is None:
            ops, us, vs = self.columns()
            cached = (array("l", compress(us, ops)), array("l", compress(vs, ops)))
            object.__setattr__(self, "_insert_columns", cached)
        return cached

    @property
    def num_inserts(self) -> int:
        # One C-speed pass over the cached op column (1 = insert), computed
        # once: quota admission and round estimation read this per tick.
        cached = self._num_inserts
        if cached is None:
            cached = int(sum(self.columns()[0]))
            object.__setattr__(self, "_num_inserts", cached)
        return cached

    @property
    def num_deletes(self) -> int:
        return len(self.updates) - self.num_inserts

    @property
    def net_inserts(self) -> int:
        """Net live-edge growth this batch causes (inserts minus deletes).

        The quantity the engine's quota admission projects: applying the
        batch moves the live graph from ``m`` to ``m + net_inserts`` edges.
        """
        return 2 * self.num_inserts - len(self.updates)

    @classmethod
    def from_ops(cls, ops) -> "UpdateBatch":
        """Build from an iterable of ``(op, u, v)`` triples."""
        return cls(tuple(EdgeUpdate(op, int(u), int(v)) for op, u, v in ops))


@dataclass
class BatchReport:
    """What one batch cost, and where the maintained structures ended up.

    ``conflict_groups`` / ``parallel_groups`` describe the conflict-group
    repair plan: how many vertex-disjoint conflict groups the batch split
    into, and how many of them were cap-safe — the groups that resolve in
    one MPC superstep and run first on the host (the name is kept because
    checkpoints store it);
    ``proactive_flips`` counts deletion-triggered opportunistic flips (a
    subset of ``flips``).

    The scheduling columns (``tenants_served`` / ``tenants_deferred`` /
    ``backlog_updates`` / ``quota_breaches``) are populated only on
    *engine-level* aggregate rows — one row per scheduler tick — and stay 0
    on a standalone service's per-batch reports (a lone service serves
    itself every batch).

    ``wall_clock_s`` is *host* time (monotonic, measured whether or not
    tracing is attached) — a property of this run's hardware and schedule,
    not of the simulated algorithm.  It is excluded from equality and from
    :meth:`as_dict` so that byte-identical determinism fingerprints keep
    comparing only simulated outcomes; trace-level aggregates surface it via
    :meth:`StreamSummary.as_dict` instead.
    """

    batch_index: int
    num_inserts: int
    num_deletes: int
    flips: int
    recolors: int
    rebuilds: int
    compactions: int
    rounds: int
    num_edges: int
    journal_size: int
    max_outdegree: int
    outdegree_cap: int
    num_colors: int
    conflict_groups: int = 0
    parallel_groups: int = 0
    proactive_flips: int = 0
    tenants_served: int = 0
    tenants_deferred: int = 0
    backlog_updates: int = 0
    quota_breaches: int = 0
    wall_clock_s: float = field(default=0.0, compare=False)

    @property
    def num_updates(self) -> int:
        return self.num_inserts + self.num_deletes

    @property
    def amortised_flips(self) -> float:
        """Flips per update in this batch (the amortised-work measure)."""
        return self.flips / max(self.num_updates, 1)

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary for the reporting layer."""
        return {
            "batch": float(self.batch_index),
            "inserts": float(self.num_inserts),
            "deletes": float(self.num_deletes),
            "flips": float(self.flips),
            "recolors": float(self.recolors),
            "rebuilds": float(self.rebuilds),
            "compactions": float(self.compactions),
            "rounds": float(self.rounds),
            "m": float(self.num_edges),
            "journal": float(self.journal_size),
            "max_outdegree": float(self.max_outdegree),
            "outdegree_cap": float(self.outdegree_cap),
            "colors": float(self.num_colors),
            "conflict_groups": float(self.conflict_groups),
            "parallel_groups": float(self.parallel_groups),
            "proactive_flips": float(self.proactive_flips),
            "served": float(self.tenants_served),
            "deferred": float(self.tenants_deferred),
            "backlog": float(self.backlog_updates),
            "quota_breaches": float(self.quota_breaches),
        }


@dataclass
class StreamSummary:
    """Aggregate of all batch reports of one streamed trace."""

    reports: list[BatchReport] = field(default_factory=list)

    def add(self, report: BatchReport) -> None:
        self.reports.append(report)

    @property
    def num_batches(self) -> int:
        return len(self.reports)

    @property
    def total_updates(self) -> int:
        return sum(r.num_updates for r in self.reports)

    @property
    def total_flips(self) -> int:
        return sum(r.flips for r in self.reports)

    @property
    def total_recolors(self) -> int:
        return sum(r.recolors for r in self.reports)

    @property
    def total_rebuilds(self) -> int:
        return sum(r.rebuilds for r in self.reports)

    @property
    def total_compactions(self) -> int:
        return sum(r.compactions for r in self.reports)

    @property
    def total_proactive_flips(self) -> int:
        return sum(r.proactive_flips for r in self.reports)

    @property
    def total_rounds(self) -> int:
        return sum(r.rounds for r in self.reports)

    @property
    def total_served(self) -> int:
        """Tenant-services across all ticks (engine-level summaries only)."""
        return sum(r.tenants_served for r in self.reports)

    @property
    def total_deferred(self) -> int:
        """Tenant-deferrals across all ticks (engine-level summaries only)."""
        return sum(r.tenants_deferred for r in self.reports)

    @property
    def total_quota_breaches(self) -> int:
        return sum(r.quota_breaches for r in self.reports)

    @property
    def max_backlog_updates(self) -> int:
        """Largest end-of-tick backlog observed (engine-level summaries only)."""
        return max((r.backlog_updates for r in self.reports), default=0)

    @property
    def total_wall_clock_s(self) -> float:
        """Host wall-clock summed over all reports (monotonic, host-only)."""
        return sum(r.wall_clock_s for r in self.reports)

    @property
    def amortised_flips(self) -> float:
        """Flips per update across the whole trace."""
        return self.total_flips / max(self.total_updates, 1)

    def final_report(self) -> BatchReport:
        if not self.reports:
            raise GraphError("no batches have been applied yet")
        return self.reports[-1]

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary of trace-level aggregates for the reporting layer."""
        summary = {
            "batches": float(self.num_batches),
            "updates": float(self.total_updates),
            "flips": float(self.total_flips),
            "recolors": float(self.total_recolors),
            "rebuilds": float(self.total_rebuilds),
            "compactions": float(self.total_compactions),
            "proactive_flips": float(self.total_proactive_flips),
            "rounds": float(self.total_rounds),
            "amortised_flips": self.amortised_flips,
            "served": float(self.total_served),
            "deferred": float(self.total_deferred),
            "quota_breaches": float(self.total_quota_breaches),
            "max_backlog": float(self.max_backlog_updates),
            "wall_clock_s": float(self.total_wall_clock_s),
        }
        if self.reports:
            final = self.final_report()
            summary["final_max_outdegree"] = float(final.max_outdegree)
            summary["final_outdegree_cap"] = float(final.outdegree_cap)
            summary["final_colors"] = float(final.num_colors)
            summary["final_m"] = float(final.num_edges)
        return summary

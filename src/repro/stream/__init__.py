"""Streaming subsystem: dynamic graphs with incremental maintenance.

The static pipeline (Theorems 1.1/1.2) computes an orientation or coloring of
a frozen graph from scratch.  This package serves the *dynamic* workload
class: the graph changes under a stream of edge insertions and deletions and
the bounded-outdegree orientation (and a proper coloring) must be
*maintained*, not recomputed.

* :mod:`repro.stream.dynamic_graph` — :class:`DynamicGraph`, a mutable overlay
  (add journal + deletion tombstones) over the immutable CSR
  :class:`~repro.graph.graph.Graph`, with amortised compaction back into CSR
  so all read-path kernels keep working on snapshots.
* :mod:`repro.stream.orientation` — :class:`IncrementalOrientation`,
  Brodal–Fagerberg-style flip-path maintenance of a max-outdegree ``O(λ)``
  orientation, with a full Theorem 1.1 rebuild as quality fallback.
* :mod:`repro.stream.coloring` — :class:`IncrementalColoring`, repair-only
  recoloring of vertices whose palette an insertion invalidates.
* :mod:`repro.stream.updates` — update/batch value objects and per-batch
  metric reports.
* :mod:`repro.stream.service` — :class:`StreamingService`, the batch API that
  applies updates, charges them through :class:`~repro.mpc.cluster.MPCCluster`
  rounds, and reports per-batch metrics.
* :mod:`repro.stream.engine` — :class:`StreamEngine`, the multi-tenant
  multiplexer: N independent services on one shared ledger, served one
  after another per tick, with ticks charged as parallel supersteps
  (max-over-tenants).
  Runs resident (a background ticker drains concurrent submissions) and
  moves tenants through a typed lifecycle
  (provisioning → active → quarantined → lifted → retired).
* :mod:`repro.stream.checkpoint` — versioned, checksummed on-disk snapshots
  of a complete engine (journal columns, orientation heads, colors, ledgers,
  queues, planner credits); restore is byte-identical and verified against
  the recorded fingerprint.
* :mod:`repro.stream.scheduler` — cross-tenant tick scheduling:
  :class:`TickPlanner` policies (serve-all / top-k-backlog /
  deficit-round-robin) admitting tenants under a per-tick round budget.
* :mod:`repro.stream.workloads` — streaming trace generators (uniform churn,
  sliding window, densifying-core adversary) and the :class:`StreamWorkload`
  descriptions used by the experiment registry.
"""

from repro.stream.coloring import IncrementalColoring
from repro.stream.dynamic_graph import DynamicGraph
from repro.stream.engine import StreamEngine, TenantState, TickReport
from repro.stream.orientation import IncrementalOrientation
from repro.stream.scheduler import (
    POLICIES,
    DeficitRoundRobinPlanner,
    ServeAllPlanner,
    TenantLoad,
    TickPlanner,
    TopKBacklogPlanner,
    estimate_batch_rounds,
    make_planner,
)
from repro.stream.service import StreamingService
from repro.stream.updates import BatchReport, EdgeUpdate, StreamSummary, UpdateBatch
from repro.stream.workloads import (
    MultiTenantWorkload,
    SchedulerWorkload,
    StreamTrace,
    StreamWorkload,
    bursty_churn_trace,
    densifying_core_trace,
    generate_trace,
    multi_tenant_suite,
    multi_tenant_traces,
    scheduler_suite,
    skewed_tenant_traces,
    sliding_window_trace,
    stream_family_names,
    streaming_suite,
    uniform_churn_trace,
)

__all__ = [
    "POLICIES",
    "BatchReport",
    "DeficitRoundRobinPlanner",
    "DynamicGraph",
    "EdgeUpdate",
    "IncrementalColoring",
    "IncrementalOrientation",
    "MultiTenantWorkload",
    "SchedulerWorkload",
    "ServeAllPlanner",
    "StreamEngine",
    "StreamSummary",
    "StreamTrace",
    "StreamWorkload",
    "StreamingService",
    "TenantLoad",
    "TenantState",
    "TickPlanner",
    "TickReport",
    "TopKBacklogPlanner",
    "UpdateBatch",
    "bursty_churn_trace",
    "densifying_core_trace",
    "estimate_batch_rounds",
    "generate_trace",
    "make_planner",
    "multi_tenant_suite",
    "multi_tenant_traces",
    "scheduler_suite",
    "skewed_tenant_traces",
    "sliding_window_trace",
    "stream_family_names",
    "streaming_suite",
    "uniform_churn_trace",
]

"""Golden pin of every simulated ledger on the benchmark fleet.

The 8-tenant ``multi_tenant_traces`` fleet at seed 7 (1k vertices per tenant,
40 batches of 25 updates — the ``fleet-8x1k`` benchmark workload) is drained
tick by tick; the SHA-256 of every tenant's and the engine's
``cluster.stats.state_dict()`` — each round's label and volumes plus both
memory peaks — must equal the digest recorded before the memory ledger
moved to closed-form spread objects.  The same drained engine's checkpoint
fingerprint digest (every tenant's streamed heads, colors, λ̂, cap and
counters, the per-tick rounds and the planner state) is pinned as well; it
equals the ``fleet-8x1k`` benchmark digest at seed 7.  Regenerate either
only for an intentional change to the charging model or to the streamed
outcome, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json

from repro.stream.checkpoint import fingerprint_digest
from repro.stream.engine import StreamEngine
from repro.stream.workloads import multi_tenant_traces

GOLDEN_LEDGER_DIGEST = "603a92062b05334bf7b28bb0f02352d8b7c230cc1f5a64662a93579710b4a034"
GOLDEN_FINGERPRINT_DIGEST = (
    "55394554176e85714c93432e601abcf803f814cf7efc7e66eec2c544009c9466"
)


def test_fleet_round_stats_match_the_recorded_digest():
    traces = multi_tenant_traces(
        num_tenants=8, num_vertices=1000, num_batches=40, batch_size=25, seed=7
    )
    engine = StreamEngine()
    try:
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial)
        for trace in traces:
            engine.submit_all(trace.name, trace.batches)
        while engine.pending():
            engine.tick()
        ledgers = {
            trace.name: engine.tenant_service(trace.name).cluster.stats.state_dict()
            for trace in traces
        }
        ledgers["engine"] = engine.cluster.stats.state_dict()
        streamed = fingerprint_digest(engine)
    finally:
        engine.close()
    blob = json.dumps(ledgers, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_LEDGER_DIGEST
    assert streamed == GOLDEN_FINGERPRINT_DIGEST

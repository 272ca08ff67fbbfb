"""Checkpoint/restore for the resident :class:`StreamEngine`.

The byte-identical determinism contract (same seed ⇒ identical heads, colors
and rounds for either kernel backend) makes *exact* checkpointing
both implementable and testable to equality: serialize every
behavior-affecting column — each tenant's ``DynamicGraph`` base edge
columns + sorted overlay key columns, orientation heads/λ̂/cap, coloring
column, sub-ledger ``RoundStats``, queue, lifecycle state, plus the shared
ledger, planner credits, and tick history — and a restored engine is
indistinguishable from one that never stopped.  The tracer is deliberately **not** state: it is
re-attached on restore and cannot influence simulated outcomes.

File format (version |VERSION|): one header line, then the body::

    {"checksum":...,"format":"repro-stream-checkpoint","payload_bytes":...,"version":5}
    {"delta":...,"engine_ledger":...,"fingerprint":...,...}

The body is the canonical encoding of the payload (sorted keys, compact
separators, ASCII-only, so it holds no raw newline), encoded exactly once:
``checksum`` is the SHA-256 of those body bytes and ``payload_bytes`` their
length.  The file is written with a single ``write`` to a temp file that is
then ``os.replace``-d over the target, so a crash mid-checkpoint never leaves
a truncated snapshot under the target name (and a failed write leaves no
temp file behind).  Reading validates the format, the version, the body
length against ``payload_bytes`` (truncation) and the checksum against the
body bytes as read, then parses the body once; any mismatch raises
:class:`~repro.errors.CheckpointError`.  Version 1 and 2 files (one JSON
object with the payload inline), version 3 files (this layout, but an
orientation state that still carried a ``proactive_flips`` switch) and
version 4 files (a ``DynamicGraph`` op-log journal in place of the overlay
key columns ``added_keys``/``removed_keys`` and ``journal_length``) are
refused by version.  A malformed overlay column (not strictly ascending, out
of range, an added key that is a base edge, a removed key that is not) is
refused by ``DynamicGraph.from_state``.  Restoring re-derives the engine
fingerprint and compares it against the one recorded at checkpoint time, so
a corrupted-but-checksummed (hand-edited) payload cannot silently produce a
divergent engine.  Restore is all-or-nothing: on any failure the partially
built engine is closed before the error propagates.

The per-component (de)serializers live next to the state they capture:
``DynamicGraph.state_columns``/``from_state``,
``IncrementalOrientation.state_dict``/``from_state``,
``IncrementalColoring.state_dict``/``from_state``,
``MPCCluster.ledger_state``/``from_ledger_state``,
``RoundStats.state_dict``/``from_state``,
``StreamingService.state_dict``/``from_state``, and
``TickPlanner.state_dict``/``load_state``.  This module composes them into
one engine-level snapshot and owns the container format.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from collections import deque

from repro.errors import CheckpointError, GraphError, QuotaExceededError, ReproError
from repro.mpc.cluster import MPCCluster
from repro.stream.engine import StreamEngine, TenantState, TickReport, _Tenant
from repro.stream.scheduler import make_planner
from repro.stream.service import StreamingService, _report_state, _restore_report
from repro.stream.updates import StreamSummary, UpdateBatch

CHECKPOINT_FORMAT = "repro-stream-checkpoint"
CHECKPOINT_VERSION = 5

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "engine_state",
    "fingerprint",
    "fingerprint_digest",
    "read_checkpoint",
    "restore_engine",
    "save_engine",
    "write_checkpoint",
]


# ---------------------------------------------------------------------- #
# Fingerprints
# ---------------------------------------------------------------------- #

def fingerprint(engine: StreamEngine) -> dict:
    """The engine's complete simulated outcome as a JSON-serializable dict.

    Covers everything the byte-identity contract pins: per-tenant
    orientation heads (canonical CSR), coloring column, λ̂/cap,
    flip/rebuild counters, sub-ledger round count, edge count and journal
    length, plus the shared ledger's rounds, the per-tick round charges,
    lifecycle states and the planner's credits.  Two engines with equal
    fingerprints are behaviorally indistinguishable going forward.
    """
    tenants: dict[str, dict | None] = {}
    for name in engine.tenant_names():
        tenant = engine._tenants[name]
        if tenant.service is None:
            tenants[name] = None
            continue
        service = tenant.service
        orientation = service.orientation.state_dict()
        tenants[name] = {
            "state": tenant.state.value,
            "heads_indptr": orientation["indptr"],
            "heads": orientation["heads"],
            "lambda_bound": orientation["lambda_bound"],
            "outdegree_cap": orientation["outdegree_cap"],
            "flips": orientation["flips"],
            "rebuilds": orientation["rebuilds"],
            "colors": list(service.coloring._colors),
            "rounds": service.cluster.stats.num_rounds,
            "num_edges": service.dynamic.num_edges,
            "journal_length": service.dynamic.journal_length,
        }
    return {
        "engine_rounds": (
            0 if engine.cluster is None else engine.cluster.stats.num_rounds
        ),
        "tick_rounds": [tick.rounds for tick in engine.ticks],
        "planner": engine.planner.state_dict(),
        "tenants": tenants,
    }


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def fingerprint_digest(print_or_engine) -> str:
    """SHA-256 hex digest of a fingerprint (or of an engine's, directly)."""
    if isinstance(print_or_engine, StreamEngine):
        print_or_engine = fingerprint(print_or_engine)
    return hashlib.sha256(_canonical(print_or_engine)).hexdigest()


# ---------------------------------------------------------------------- #
# Container I/O
# ---------------------------------------------------------------------- #

def write_checkpoint(path, payload: dict) -> None:
    """Write a payload under the versioned, checksummed container, atomically.

    The payload is encoded once; the checksum covers exactly the body bytes
    written.  On any failure the temp file is removed before the error
    propagates.
    """
    body = _canonical(payload)
    header = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "checksum": hashlib.sha256(body).hexdigest(),
            "payload_bytes": len(body),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("ascii")
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(header + b"\n" + body)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_checkpoint(path) -> dict:
    """Read and validate a container; returns the payload.

    Raises :class:`~repro.errors.CheckpointError` for a missing file, a
    header that is not JSON, an unknown format marker, a version this code
    cannot restore, a missing body or checksum, a malformed
    ``payload_bytes``, a body whose length differs from ``payload_bytes``
    (truncation), or a checksum mismatch (bit rot / partial overwrite).
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    # A version 1/2 file is one JSON object with no newline: it parses as a
    # header, so it is refused by its version below, like a version 3 one.
    head, newline, body = blob.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} header is not valid JSON "
            f"(truncated or corrupted): {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path!r} is not a {CHECKPOINT_FORMAT} file"
        )
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has version {version!r}; "
            f"this build restores version {CHECKPOINT_VERSION}"
        )
    checksum = header.get("checksum")
    size = header.get("payload_bytes")
    if not newline or checksum is None or size is None:
        raise CheckpointError(f"checkpoint {path!r} is missing payload or checksum")
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise CheckpointError(
            f"checkpoint {path!r} has a malformed payload_bytes {size!r}"
        )
    if len(body) != size:
        raise CheckpointError(
            f"checkpoint {path!r} is truncated or corrupted: the header "
            f"records {size} payload bytes, the file holds {len(body)}"
        )
    actual = hashlib.sha256(body).hexdigest()
    if actual != checksum:
        raise CheckpointError(
            f"checkpoint {path!r} failed its checksum "
            f"(recorded {str(checksum)[:12]}..., computed {actual[:12]}...)"
        )
    try:
        return json.loads(body)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} payload is not valid JSON: {exc}"
        ) from exc


# ---------------------------------------------------------------------- #
# Engine state assembly
# ---------------------------------------------------------------------- #

def _tick_state(tick: TickReport) -> dict:
    return {
        "tick_index": tick.tick_index,
        "reports": {
            name: _report_state(report) for name, report in tick.reports.items()
        },
        "rounds": tick.rounds,
        "planned": list(tick.planned),
        "deferred": list(tick.deferred),
        "quota_breached": list(tick.quota_breached),
        "backlog_updates": tick.backlog_updates,
        "round_budget": tick.round_budget,
        "planned_rounds": tick.planned_rounds,
        "wall_clock_s": tick.wall_clock_s,
    }


def _restore_tick(state: dict) -> TickReport:
    return TickReport(
        tick_index=state["tick_index"],
        reports={
            str(name): _restore_report(row)
            for name, row in state["reports"].items()
        },
        rounds=state["rounds"],
        planned=tuple(state["planned"]),
        deferred=tuple(state["deferred"]),
        quota_breached=tuple(state["quota_breached"]),
        backlog_updates=state["backlog_updates"],
        round_budget=state["round_budget"],
        planned_rounds=state["planned_rounds"],
        wall_clock_s=state["wall_clock_s"],
    )


def _quarantine_state(exc: QuotaExceededError | None) -> dict | None:
    if exc is None:
        return None
    return {
        "used_words": exc.used_words,
        "quota_words": exc.quota_words,
        "scope": exc.scope,
    }


def _restore_quarantine(state: dict | None) -> QuotaExceededError | None:
    if state is None:
        return None
    return QuotaExceededError(
        state["used_words"], state["quota_words"], scope=state["scope"]
    )


def _tenant_state(tenant: _Tenant) -> dict:
    return {
        "name": tenant.name,
        "index": tenant.index,
        "weight": tenant.weight,
        "state": tenant.state.value,
        "round_mark": tenant.round_mark,
        "queue": [
            [[update.op, update.u, update.v] for update in batch.updates]
            for batch in tenant.queue
        ],
        "quarantine": _quarantine_state(tenant.quarantine),
        "service": None if tenant.service is None else tenant.service.state_dict(),
        "final_summary": (
            None
            if tenant.final_summary is None
            else [_report_state(report) for report in tenant.final_summary.reports]
        ),
    }


def engine_state(engine: StreamEngine) -> dict:
    """The complete engine as a JSON-serializable payload (plus fingerprint)."""
    return {
        "delta": engine._delta,
        "seed": engine._seed,
        "round_budget": engine.round_budget,
        "planner": engine.planner.state_dict(),
        "engine_ledger": (
            None if engine.cluster is None else engine.cluster.ledger_state()
        ),
        "tenants": [
            _tenant_state(tenant) for tenant in engine._tenants.values()
        ],
        "ticks": [_tick_state(tick) for tick in engine.ticks],
        "summary": [_report_state(report) for report in engine.summary.reports],
        "fingerprint": fingerprint_digest(fingerprint(engine)),
    }


def save_engine(engine: StreamEngine, path) -> dict:
    """Snapshot an engine to ``path``; returns ``{"fingerprint": digest}``.

    Callers normally go through :meth:`StreamEngine.checkpoint`, which takes
    the engine lock first so the snapshot lands on a tick boundary.
    """
    payload = engine_state(engine)
    write_checkpoint(path, payload)
    return {"fingerprint": payload["fingerprint"]}


# ---------------------------------------------------------------------- #
# Restore
# ---------------------------------------------------------------------- #

def _restore_summary(rows: list) -> StreamSummary:
    summary = StreamSummary()
    for row in rows:
        summary.add(_restore_report(row))
    return summary


def restore_engine(path, tracer=None) -> StreamEngine:
    """Rebuild a :class:`StreamEngine` from a snapshot file, byte-identically.

    All-or-nothing: any validation or resurrection failure closes whatever
    was built and raises :class:`~repro.errors.CheckpointError`.  The
    restored engine's fingerprint is recomputed and compared against the one
    recorded at checkpoint time before this returns.
    """
    payload = read_checkpoint(path)
    try:
        planner_spec = payload["planner"]
        planner = make_planner(
            str(planner_spec["policy"]), **planner_spec["options"]
        )
        planner.load_state(planner_spec["state"])
        engine = StreamEngine(
            delta=payload["delta"],
            seed=payload["seed"],
            planner=planner,
            round_budget=payload["round_budget"],
            tracer=tracer,
        )
    except (KeyError, TypeError, ValueError, GraphError) as exc:
        raise CheckpointError(f"snapshot payload is malformed: {exc}") from exc
    try:
        if payload["engine_ledger"] is not None:
            engine.cluster = MPCCluster.from_ledger_state(payload["engine_ledger"])
            if engine.tracer.enabled:
                engine.cluster.instrument(engine.tracer)
        for state in payload["tenants"]:
            tenant_state = TenantState(state["state"])
            if state["service"] is None:
                if tenant_state is not TenantState.RETIRED:
                    raise CheckpointError(
                        f"tenant {state['name']!r} has no service state but is "
                        f"{tenant_state.value}, not retired"
                    )
                service = None
            else:
                service = StreamingService.from_state(
                    state["service"],
                    tracer=engine.tracer if engine.tracer.enabled else None,
                )
            tenant = _Tenant(
                name=str(state["name"]),
                index=int(state["index"]),
                service=service,
                weight=int(state["weight"]),
                queue=deque(
                    UpdateBatch.from_ops(batch) for batch in state["queue"]
                ),
                round_mark=int(state["round_mark"]),
                quarantine=_restore_quarantine(state["quarantine"]),
                state=tenant_state,
                final_summary=(
                    None
                    if state["final_summary"] is None
                    else _restore_summary(state["final_summary"])
                ),
            )
            engine._tenants[tenant.name] = tenant
        engine.ticks = [_restore_tick(state) for state in payload["ticks"]]
        engine.summary = _restore_summary(payload["summary"])
        digest = fingerprint_digest(fingerprint(engine))
        if digest != payload["fingerprint"]:
            raise CheckpointError(
                f"restored engine fingerprint {digest[:12]}... does not match "
                f"the snapshot's {str(payload['fingerprint'])[:12]}... — "
                f"the payload was altered after checksum computation"
            )
        engine.tracer.metrics.inc("engine.restores")
    except CheckpointError:
        engine.close()
        raise
    except (KeyError, TypeError, ValueError, IndexError, ReproError) as exc:
        engine.close()
        raise CheckpointError(f"snapshot payload is malformed: {exc}") from exc
    except BaseException:
        engine.close()
        raise
    return engine

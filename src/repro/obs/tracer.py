"""Hierarchical wall-clock spans with ledger deltas and Chrome-trace export.

The tracer records *host-side* execution: where wall-clock time goes inside a
tick, a batch, or a kernel fan-out.  Each span may additionally carry the
*simulated* ledger delta charged while it was open (rounds and words from
``RoundStats``), so a Perfetto timeline shows both clocks side by side.  The
two are disjoint measurements — see the charging-model docstring in
``repro.mpc.cluster`` — and the tracer only ever *reads* the ledger, so
enabling it cannot change any simulated outcome.

Design points:

- **No-op default.**  ``NULL_TRACER`` has ``enabled = False`` and returns a
  shared inert context manager from :meth:`span`; the per-span cost is one
  attribute load and an empty ``with`` block.  A guard test pins the
  overhead under 5% on a hot-path microbench.
- **Bounded ring buffer.**  Completed spans land in a ``deque(maxlen=...)``;
  long runs keep the most recent window instead of growing without bound.
- **Thread-aware nesting.**  Span stacks are thread-local, so spans opened
  on other threads (the engine's resident ticker, callers submitting
  concurrently) nest correctly without cross-thread interference.  A caller
  whose logical parent lives on another thread can pass ``parent=``
  explicitly.
- **Cross-process stitching.**  Worker processes cannot reach this object;
  instead the worker pool times each task inside the worker (``perf_counter_ns``
  is CLOCK_MONOTONIC on Linux, comparable across processes) and the parent
  records the span post-hoc via :meth:`record_span` with ``tid`` set to the
  worker pid.

Exports: :meth:`Tracer.export_chrome` writes Chrome trace-event JSON
(``{"traceEvents": [...]}`` with "X" complete events) that loads directly in
Perfetto or ``chrome://tracing``; :meth:`Tracer.export_jsonl` writes one span
per line for ad-hoc processing.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .metrics import NULL_METRICS, MetricsRegistry

__all__ = ["SpanRecord", "Tracer", "NullTracer", "NULL_TRACER"]

DEFAULT_CAPACITY = 65536


@dataclass
class SpanRecord:
    """One completed span.  Timestamps are ns relative to the tracer epoch."""

    span_id: int
    parent_id: int | None
    name: str
    cat: str
    tid: int
    start_ns: int
    end_ns: int
    args: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class _ActiveSpan:
    """Context manager for an open span; records itself on exit."""

    __slots__ = (
        "_tracer",
        "name",
        "cat",
        "args",
        "span_id",
        "parent_id",
        "start_ns",
        "_stats",
        "_round_mark",
    )

    def __init__(self, tracer, name, cat, cluster, parent_id, args):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = dict(args) if args else {}
        self.span_id = next(tracer._ids)
        self.parent_id = parent_id
        self.start_ns = 0
        self._stats = None if cluster is None else cluster.stats
        self._round_mark = 0

    def annotate(self, **kwargs) -> None:
        """Attach extra key/value pairs to the span's exported args."""
        self.args.update(kwargs)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        if self.parent_id is None and stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        if self._stats is not None:
            self._round_mark = self._stats.num_rounds
        self.start_ns = time.perf_counter_ns() - tracer.epoch_ns
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end_ns = time.perf_counter_ns() - tracer.epoch_ns
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        stats = self._stats
        if stats is not None:
            charged = stats.rounds[self._round_mark :]
            self.args["rounds"] = len(charged)
            self.args["volume"] = sum(record.words_sent for record in charged)
        tracer._append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                cat=self.cat,
                tid=threading.get_ident(),
                start_ns=self.start_ns,
                end_ns=end_ns,
                args=self.args,
            )
        )
        return False


class Tracer:
    """Span recorder with a bounded ring buffer and a metrics registry."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY, metrics=None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.pid = os.getpid()
        self.epoch_ns = time.perf_counter_ns()
        self._records: deque[SpanRecord] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "span", cluster=None, parent=None, **args):
        """Open a span as a context manager.

        ``cluster`` attaches the simulated-ledger delta (rounds/volume charged
        while the span is open) to the exported args.  ``parent`` overrides
        the thread-local nesting with an explicit span id — use it when the
        logical parent lives on another thread.
        """
        return _ActiveSpan(self, name, cat, cluster, parent, args)

    def record_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        cat: str = "span",
        tid: int | None = None,
        parent: int | None = None,
        args: dict | None = None,
    ) -> SpanRecord:
        """Record a pre-timed span (worker-side stitching).

        ``start_ns``/``end_ns`` are absolute ``perf_counter_ns`` readings —
        taken in this or another process on the same machine — and are
        rebased onto the tracer epoch here.
        """
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=parent,
            name=name,
            cat=cat,
            tid=threading.get_ident() if tid is None else tid,
            start_ns=start_ns - self.epoch_ns,
            end_ns=end_ns - self.epoch_ns,
            args=dict(args) if args else {},
        )
        self._append(record)
        return record

    def current_span_id(self) -> int | None:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: SpanRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> list[SpanRecord]:
        """Completed spans, oldest first (bounded by ``capacity``)."""
        return list(self._records)

    # -- export ------------------------------------------------------------

    def chrome_payload(self) -> dict:
        """Chrome trace-event payload: "X" complete events, ts/dur in µs.

        The metrics snapshot rides along under a top-level ``"metrics"`` key;
        trace viewers ignore unknown keys.
        """
        events = []
        for rec in self._records:
            events.append(
                {
                    "name": rec.name,
                    "cat": rec.cat,
                    "ph": "X",
                    "ts": rec.start_ns / 1000.0,
                    "dur": max(rec.duration_ns, 0) / 1000.0,
                    "pid": self.pid,
                    "tid": rec.tid,
                    "args": {"id": rec.span_id, "parent": rec.parent_id, **rec.args},
                }
            )
        events.sort(key=lambda event: event["ts"])
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metrics": self.metrics.snapshot(),
        }

    def export_chrome(self, path) -> None:
        """Write the Chrome trace-event JSON payload to ``path``."""
        # One ``json.dumps`` call takes the C encoder; ``json.dump`` to a
        # handle always runs the pure-Python one.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.chrome_payload()) + "\n")

    def export_jsonl(self, path) -> None:
        """Write one span per line: ``{span_id, parent_id, name, ...}``."""
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self._records:
                handle.write(
                    json.dumps(
                        {
                            "span_id": rec.span_id,
                            "parent_id": rec.parent_id,
                            "name": rec.name,
                            "cat": rec.cat,
                            "tid": rec.tid,
                            "start_ns": rec.start_ns,
                            "end_ns": rec.end_ns,
                            "args": rec.args,
                        }
                    )
                )
                handle.write("\n")


class _NullSpan:
    """Inert context manager shared by every ``NULL_TRACER.span`` call."""

    __slots__ = ()

    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **kwargs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead default: spans are shared no-ops, metrics discard."""

    enabled = False
    metrics = NULL_METRICS

    def span(self, name, cat="span", cluster=None, parent=None, **args):
        return _NULL_SPAN

    def record_span(self, name, start_ns, end_ns, **kwargs) -> None:
        return None

    def current_span_id(self) -> None:
        return None

    @property
    def records(self) -> list:
        return []


NULL_TRACER = NullTracer()

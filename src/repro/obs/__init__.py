"""Observability: wall-clock tracing, metrics, and perf-trajectory reports.

This package measures the *host* side of the simulator — where real time
goes, what the worker pool actually did — without ever
touching the *simulated* ledger beyond read-only ``RoundStats`` marks.  The
default ``NULL_TRACER`` is a no-op, and the determinism matrix test asserts
that enabling tracing leaves every simulated outcome byte-identical.

See ``tracer`` for spans and export, ``metrics`` for counters, and
``report`` for the ``trace-report`` / ``bench-report`` table builders.
"""

from .metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from .tracer import NULL_TRACER, NullTracer, SpanRecord, Tracer

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Tracer",
    "NullTracer",
    "SpanRecord",
    "NULL_TRACER",
]

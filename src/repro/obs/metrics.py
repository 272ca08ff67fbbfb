"""Process-local metrics: counters, gauges, and summary histograms.

The registry is deliberately tiny — a flat name -> value store guarded by a
lock so the engine's ticker thread and concurrent callers can bump counters
safely.  Nothing here
reads simulated state: metrics describe the *host-side* execution (queue
waits, task run times, worker respawns), never the MPC ledger, so enabling them
cannot perturb the determinism contract.

``NULL_METRICS`` is the zero-overhead default: every method is a no-op and
``enabled`` is ``False`` so hot paths can skip even the call with
``if metrics.enabled:`` when they want to avoid building label strings.
"""

from __future__ import annotations

import threading

__all__ = ["MetricsRegistry", "NullMetrics", "NULL_METRICS"]


class MetricsRegistry:
    """Thread-safe counters, gauges, and min/max/mean histograms."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest observed ``value``."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the summary histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                self._histograms[name] = [1, value, value, value]
            else:
                hist[0] += 1
                hist[1] += value
                if value < hist[2]:
                    hist[2] = value
                if value > hist[3]:
                    hist[3] = value

    def snapshot(self) -> dict:
        """Return a plain-dict copy: ``{"counters", "gauges", "histograms"}``.

        Histograms flatten to ``{count, sum, mean, min, max}`` so the
        snapshot is JSON-serialisable as-is.
        """
        with self._lock:
            histograms = {
                name: {
                    "count": hist[0],
                    "sum": hist[1],
                    "mean": hist[1] / hist[0],
                    "min": hist[2],
                    "max": hist[3],
                }
                for name, hist in self._histograms.items()
            }
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": histograms,
            }


class NullMetrics:
    """No-op stand-in used when tracing is disabled."""

    enabled = False

    def inc(self, name: str, amount: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()

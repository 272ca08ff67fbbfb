"""Guard: the no-op tracer must stay under 5% overhead on a hot path.

``NULL_TRACER`` is wired permanently through the engine/stream/kernel hot
paths, so its per-span cost (one attribute load, one shared inert ``with``
block) has to be negligible.  Each repeat times one bare and one wrapped
pass back to back on process CPU time, which other processes' load on a busy
host does not inflate the way it inflates wall-clock time; the guard compares
the median of the per-repeat ratios, so one disturbed repeat cannot decide it.
"""

from __future__ import annotations

import statistics
import time

from repro.obs import NULL_TRACER

OVERHEAD_LIMIT = 1.05
CHUNKS = 32
CHUNK_WORK = 2000
REPEATS = 21


def _chunk(acc: int) -> int:
    for i in range(CHUNK_WORK):
        acc = (acc + i * i) & 0xFFFFFFF
    return acc


def _plain_pass() -> int:
    acc = 0
    for _ in range(CHUNKS):
        acc = _chunk(acc)
    return acc


def _traced_pass() -> int:
    acc = 0
    for _ in range(CHUNKS):
        with NULL_TRACER.span("chunk"):
            acc = _chunk(acc)
    return acc


def _cpu_seconds(run) -> float:
    start = time.process_time()
    run()
    return time.process_time() - start


def test_nulltracer_overhead_is_under_five_percent():
    assert _plain_pass() == _traced_pass()  # warm-up; also: spans change nothing
    ratios = [_cpu_seconds(_traced_pass) / _cpu_seconds(_plain_pass) for _ in range(REPEATS)]
    ratio = statistics.median(ratios)
    assert ratio < OVERHEAD_LIMIT, (ratio, ratios)

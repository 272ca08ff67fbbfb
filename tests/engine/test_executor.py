"""Tests for the superstep executor: backends, ordering, seeds, auto-pick."""

from __future__ import annotations

import pytest

from repro.engine import (
    BACKENDS,
    PROCESS,
    SERIAL,
    ParallelExecutor,
    derive_seed,
    seed_stream,
)
from repro.errors import ParameterError


def _square(x):
    return x * x


def _add(x, y):
    return x + y


def _boom(x):
    raise ValueError(f"task {x} failed")


class TestBackendsAgree:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_submission_order(self, backend):
        executor = ParallelExecutor(workers=3, backend=backend)
        assert executor.map(_square, [(i,) for i in range(17)]) == [
            i * i for i in range(17)
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_argument_tasks(self, backend):
        executor = ParallelExecutor(workers=2, backend=backend)
        assert executor.map(_add, [(1, 2), (3, 4), (5, 6)]) == [3, 7, 11]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_task_errors_propagate(self, backend):
        executor = ParallelExecutor(workers=2, backend=backend)
        with pytest.raises(ValueError, match="task 1 failed"):
            executor.map(_boom, [(1,), (2,)])


class TestAutoPick:
    def test_single_worker_is_always_serial(self):
        executor = ParallelExecutor(workers=1, backend=PROCESS)
        assert executor.resolve_backend(100, total_work=10**9) == SERIAL

    def test_single_task_is_always_serial(self):
        executor = ParallelExecutor(workers=8)
        assert executor.resolve_backend(1, total_work=10**9) == SERIAL

    def test_tiny_work_auto_picks_serial(self):
        executor = ParallelExecutor(workers=8)
        assert executor.resolve_backend(4, total_work=100) == SERIAL

    def test_large_work_auto_picks_process(self):
        executor = ParallelExecutor(workers=8)
        assert executor.resolve_backend(4, total_work=10**6) == PROCESS

    def test_explicit_backend_is_honored_on_tiny_work(self):
        executor = ParallelExecutor(workers=8, backend=PROCESS)
        assert executor.resolve_backend(4, total_work=100) == PROCESS

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            ParallelExecutor(workers=0)
        with pytest.raises(ParameterError):
            ParallelExecutor(workers=2, backend="gpu")
        with pytest.raises(ParameterError):
            ParallelExecutor(workers=2, backend="thread")


class TestSeedStreams:
    def test_deterministic_and_distinct(self):
        stream = seed_stream(1234, 64)
        assert stream == seed_stream(1234, 64)
        assert len(set(stream)) == 64

    def test_independent_of_worker_count(self):
        # Seeds depend only on (base, index), never on scheduling.
        assert [derive_seed(7, i) for i in range(8)] == seed_stream(7, 8)

    def test_different_bases_diverge(self):
        assert seed_stream(1, 16) != seed_stream(2, 16)

    def test_none_base_allowed(self):
        assert seed_stream(None, 4) == seed_stream(None, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            seed_stream(0, -1)

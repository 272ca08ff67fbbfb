"""Per-task seed streams: deterministic, distinct, schedule-independent."""

from __future__ import annotations

import pytest

from repro.engine import derive_seed, seed_stream
from repro.errors import ParameterError


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

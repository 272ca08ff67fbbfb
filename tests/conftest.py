"""Shared fixtures, helpers and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro import kernels
from repro.graph import generators
from repro.graph.graph import Graph
from repro.stream.updates import UpdateBatch


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for tests."""
    return random.Random(12345)


@pytest.fixture(
    params=[
        kernels.PURE,
        pytest.param(
            kernels.NUMPY,
            marks=pytest.mark.skipif(
                not kernels.numpy_available(), reason="numpy not importable"
            ),
        ),
    ]
)
def kernel_backend(request) -> str:
    """Run the test once per kernel backend (numpy leg skipped when absent).

    Selects the backend process-wide for the test body, so determinism
    matrices gain the kernel dimension by just taking this fixture.
    """
    with kernels.use_backend(request.param):
        yield request.param


@pytest.fixture
def force_process(monkeypatch) -> None:
    """Send every multi-task, multi-worker map through process workers.

    Zeroes :data:`repro.engine.pool.SERIAL_WORK_THRESHOLD`, so tiny test
    inputs take the same process path as production-sized ones.
    """
    monkeypatch.setattr("repro.engine.pool.SERIAL_WORK_THRESHOLD", 0)


@pytest.fixture(params=["auto", "process"])
def fanout(request) -> str:
    """Run the test once with the automatic serial/process pick and once
    with the process path forced (see :func:`force_process`)."""
    if request.param == "process":
        request.getfixturevalue("force_process")
    return request.param


@pytest.fixture
def triangle() -> Graph:
    """The triangle K3."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def small_path() -> Graph:
    """A path on five vertices."""
    return generators.path(5)


@pytest.fixture
def small_star() -> Graph:
    """A star with eight leaves."""
    return generators.star(8)


@pytest.fixture
def small_forest() -> Graph:
    """A random forest on 64 vertices (λ = 1)."""
    return generators.random_forest(64, num_trees=4, seed=7)


@pytest.fixture
def union_forest_graph() -> Graph:
    """A union of 3 random spanning forests on 128 vertices (λ ≤ 3)."""
    return generators.union_of_random_forests(128, arboricity=3, seed=11)


@pytest.fixture
def power_law_graph() -> Graph:
    """A small power-law graph with high-degree hubs."""
    return generators.chung_lu_power_law(256, exponent=2.3, average_degree=6.0, seed=13)


@pytest.fixture
def dense_community_graph() -> Graph:
    """A planted dense subgraph instance (λ ≫ log n at this scale)."""
    return generators.planted_dense_subgraph(
        200, community_size=70, community_probability=0.7, background_probability=0.02, seed=17
    )


# --------------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------------- #


@st.composite
def graphs(draw, max_vertices: int = 24, max_edge_fraction: float = 0.5):
    """Random small graphs for property-based tests."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    max_edges = int(len(possible) * max_edge_fraction)
    edge_count = draw(st.integers(min_value=0, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    local = random.Random(seed)
    local.shuffle(possible)
    return Graph(n, possible[:edge_count])


@st.composite
def forests(draw, max_vertices: int = 32):
    """Random forests for property-based tests (λ = 1)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    trees = draw(st.integers(min_value=1, max_value=max(n // 4, 1)))
    return generators.random_forest(n, num_trees=trees, seed=seed)


def apply_one(orientation, op: str, u: int, v: int):
    """Resolve one update (``"+"`` or ``"-"``) as a one-update batch.

    The caller has applied the update to the dynamic graph already, as
    :meth:`~repro.stream.orientation.IncrementalOrientation.apply_batch`
    requires; returns the batch's report.
    """
    return orientation.apply_batch(UpdateBatch.from_ops([(op, u, v)]).updates)

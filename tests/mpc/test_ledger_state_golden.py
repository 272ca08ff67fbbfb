"""Golden pins of whole ``MPCCluster.ledger_state()`` snapshots.

The parent cluster of seeded ``orient()`` and ``color()`` runs, one per
branch of each job (the large-λ branch of ``color()`` forced on a forest), is
serialized with ``json.dumps(..., sort_keys=True)`` and its
SHA-256 must equal the digest recorded before the keyed storage moved from
per-machine to per-tag records.  The snapshot carries the keyed records
(``[[machine, {tag: words}], ...]`` by ascending machine), the spread totals,
the peak scalar and every round's stats, so any change to what the ledger
holds, or to how a checkpoint lists it, shows up here.  Both pins hold on
every kernel backend.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.coloring import color
from repro.core.orientation import orient
from repro.graph.generators import planted_dense_subgraph, union_of_random_forests

ORIENT_DIGEST = "e5ebdcb8da575a3dea2f45512559aac16acce87451fe9badf3ebce31e66d8575"
COLOR_DIGEST = "3aec2a484322df5f173a763db6977a484ad916827eac405161dacc5d92ad779d"
SMALL_LAMBDA_ORIENT_DIGEST = "80bb2560f11dd7c006080185af46a6ef27d15101d0426abaa0ebacf919a0f881"
FORCED_LARGE_LAMBDA_COLOR_DIGEST = (
    "c42afda715543d5381c352f59fa887907abe9d56dac88acf144481f5d1a8b041"
)


def _digest(cluster) -> str:
    blob = json.dumps(cluster.ledger_state(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


pytestmark = pytest.mark.usefixtures("kernel_backend")


def test_large_lambda_orient_ledger_matches_the_recorded_digest():
    graph = planted_dense_subgraph(
        400, community_size=120, community_probability=0.5,
        background_probability=0.02, seed=3,
    )
    run = orient(graph, seed=11)
    assert run.used_edge_partitioning
    assert _digest(run.cluster) == ORIENT_DIGEST


def test_color_ledger_matches_the_recorded_digest():
    run = color(union_of_random_forests(600, 4, seed=5), seed=11)
    keyed = run.cluster.ledger_state()["keyed"]
    assert [machine for machine, _tags in keyed] == sorted({m for m, _tags in keyed})
    assert _digest(run.cluster) == COLOR_DIGEST


def test_small_lambda_orient_ledger_matches_the_recorded_digest():
    run = orient(union_of_random_forests(600, 4, seed=5), seed=11)
    assert not run.used_edge_partitioning
    assert _digest(run.cluster) == SMALL_LAMBDA_ORIENT_DIGEST


def test_forced_large_lambda_color_ledger_matches_the_recorded_digest():
    run = color(
        union_of_random_forests(600, 4, seed=5), seed=11, force_vertex_partitioning=True
    )
    assert run.used_vertex_partitioning and run.num_parts == 2
    assert _digest(run.cluster) == FORCED_LARGE_LAMBDA_COLOR_DIGEST

"""Golden pins of the three Barenboim–Elkin peels over a grid of inputs.

``barenboim_elkin_peeling`` (LOCAL), ``barenboim_elkin_in_mpc`` (BE-MPC) and
``glm19_orientation`` (GLM19) run the same peeling process; each pin below
fixes a SHA-256 of everything one of them reports over a seeded graph family
× arboricity × round-cap grid:

* the layer column and the heads;
* the round count, and for GLM19 the phases, the simulated LOCAL rounds and
  the phase length;
* for the two MPC baselines, every ``RoundRecord`` (label, words, largest
  per-machine send and receive) and the whole ``ledger_state()``.

The family includes graphs the process cannot finish: ``complete_graph(12)``
with arboricity 1 is stuck before the first round, and a clique beside a
4-ary tree is stuck after the tree is gone.  Together with caps of 0–7
rounds, that reaches every survivor layer the three peels assign.  Every pin
holds on both kernel backends.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines.be_mpc import barenboim_elkin_in_mpc
from repro.baselines.glm19 import glm19_orientation
from repro.graph import generators
from repro.graph.graph import Graph
from repro.local.peeling import barenboim_elkin_peeling

ARBORICITIES = (0, 1, 2, 3, 6)
CAPS = (None, 0, 1, 2, 3, 7)


def _clique_beside_tree() -> Graph:
    """``K12`` on ``0..11`` next to a 4-ary tree of 85 vertices on ``12..96``."""
    clique = generators.complete_graph(12).edges
    tree = [(u + 12, v + 12) for u, v in generators.complete_ary_tree(4, 85).edges]
    return Graph(97, list(clique) + tree)


def _family() -> list[Graph]:
    return [
        Graph(0, ()),
        Graph(5, ()),
        generators.path(1),
        generators.star(30),
        generators.grid_2d(8, 9),
        generators.complete_graph(12),
        _clique_beside_tree(),
        generators.complete_ary_tree(4, 341),
        generators.union_of_random_forests(90, 3, seed=1),
        generators.union_of_random_forests(60, 6, seed=2),
        generators.gnm_random_graph(100, 400, seed=3),
        generators.planted_dense_subgraph(
            80, community_size=25, community_probability=0.7,
            background_probability=0.05, seed=4,
        ),
    ]


def _grid():
    for graph in _family():
        for arboricity in ARBORICITIES:
            for cap in CAPS:
                yield graph, arboricity, cap


def _shape(partition, orientation) -> tuple:
    return list(partition.layer_of), list(orientation.iter_directed_edges())


def _ledger(cluster) -> tuple:
    records = [
        (r.label, r.words_sent, r.max_machine_sent, r.max_machine_received)
        for r in cluster.stats.rounds
    ]
    return records, json.dumps(cluster.ledger_state(), sort_keys=True)


def _local_peeling() -> list:
    out = []
    for graph, arboricity, cap in _grid():
        r = barenboim_elkin_peeling(graph, arboricity, max_rounds=cap)
        out.append((_shape(r.partition, r.orientation), r.rounds, r.threshold))
    return out


def _be_mpc() -> list:
    out = []
    for graph, arboricity, cap in _grid():
        r = barenboim_elkin_in_mpc(graph, arboricity, max_rounds=cap)
        out.append(
            (_shape(r.partition, r.orientation), r.rounds, r.max_outdegree,
             r.threshold, _ledger(r.cluster))
        )
    return out


def _glm19() -> list:
    out = []
    for graph, arboricity, cap in _grid():
        r = glm19_orientation(graph, arboricity, max_local_rounds=cap)
        out.append(
            (_shape(r.partition, r.orientation), r.rounds, r.phases,
             r.local_rounds_simulated, r.phase_length, r.max_outdegree,
             _ledger(r.cluster))
        )
    return out


GOLDEN = {
    "barenboim_elkin_peeling": (
        _local_peeling,
        "7ea00e00c173437a7ffda8828b768bfd6fa0413dc6fe260744e7501bc2f4a106",
    ),
    "barenboim_elkin_in_mpc": (
        _be_mpc,
        "484cdc08c3bbf7e8b9eb51105e2e0f9d904256ba66076d92147f554af228081a",
    ),
    "glm19_orientation": (
        _glm19,
        "6363355e89928682c700178e45beac7f59f5e163d3bc0d5c8a4bb87baea0ebd9",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_peeling_pin(name, kernel_backend):
    compute, expected = GOLDEN[name]
    digest = hashlib.sha256(repr(compute()).encode()).hexdigest()
    assert digest == expected

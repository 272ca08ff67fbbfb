"""Golden pins: layer columns, heads, colors and rounds across commits.

The determinism tests compare two runs inside one commit; nothing there
notices when a refactor shifts a layer, flips a head or recolors a vertex
for everybody at once.  These pins fix a SHA-256 of every such output of the
layering pipelines on small seeded graphs, so a byte-identity break shows up
as its own red test.  Every pin must hold on both kernel backends.

A change that moves an output on purpose regenerates the digest (print
``_digest(...)`` for the case) and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.baselines.be_mpc import barenboim_elkin_in_mpc
from repro.baselines.forest import forest_orient_and_color
from repro.baselines.glm19 import glm19_orientation
from repro.core.coloring import color
from repro.core.full_assignment import (
    complete_layer_assignment,
    iterated_partial_assignment,
)
from repro.core.orientation import orient
from repro.core.partial_assignment import partial_assignment_with_decay
from repro.graph.generators import (
    planted_dense_subgraph,
    random_forest,
    union_of_random_forests,
)
from repro.graph.graph import Graph
from repro.local.peeling import barenboim_elkin_peeling, peeling_layers_reference


def _layers(graph: Graph, layer_of) -> list[int]:
    """The layer column as ints, ``-1`` standing for unassigned (``∞``)."""
    return [-1 if layer_of[v] == math.inf else int(layer_of[v]) for v in graph.vertices]


def _heads(orientation) -> list[tuple[int, int]]:
    return list(orientation.iter_directed_edges())


def _colors(coloring) -> list[int]:
    return [coloring.color(v) for v in coloring.graph.vertices]


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _union(n: int = 120, arboricity: int = 3, seed: int = 5) -> Graph:
    return union_of_random_forests(n, arboricity, seed=seed)


def _dense() -> Graph:
    return planted_dense_subgraph(
        150, community_size=50, community_probability=0.6,
        background_probability=0.03, seed=9,
    )


def _run_summary(run):
    return (
        _layers(run.graph, run.layer_of), run.num_layers_used, run.phases,
        run.out_degree_bound, run.phase_log,
    )


def _complete_layer_assignment():
    # k = 6 finishes in the Stage 1 peel; k = 3 and k = 2 leave survivors
    # for the Lemma 3.14 phases.
    runs = [
        complete_layer_assignment(_union(), k=6),
        complete_layer_assignment(_union(), k=3),
        complete_layer_assignment(_union(arboricity=5), k=2),
        iterated_partial_assignment(_union(arboricity=5), k=2, budget=16),
    ]
    partial = partial_assignment_with_decay(_union(arboricity=5), k=2, budget=16)
    return _digest(
        *(_run_summary(run) for run in runs),
        _layers(partial.assignment.graph, partial.assignment.layer_of),
    )


def _orient_small():
    runs = [orient(_union(), seed=3), orient(_union(), k=3, seed=3)]
    assert not any(run.used_edge_partitioning for run in runs)
    return _digest(
        *(
            (_heads(run.orientation),
             _layers(run.hpartition.graph, run.hpartition.layer_of), run.rounds)
            for run in runs
        )
    )


def _orient_large():
    run = orient(_dense(), seed=3, force_edge_partitioning=True)
    assert run.used_edge_partitioning and run.num_parts > 1
    part_layers = [_layers(r.graph, r.layer_of) for r in run.partition_runs]
    return _digest(_heads(run.orientation), part_layers, run.rounds)


def _color_small():
    runs = [color(_union(), seed=3), color(_union(), k=3, seed=3)]
    assert not any(run.used_vertex_partitioning for run in runs)
    return _digest(
        *(
            (_colors(run.coloring), [_layers(h.graph, h.layer_of) for h in run.hpartitions],
             run.rounds, run.palette_size)
            for run in runs
        )
    )


def _color_large():
    run = color(_dense(), seed=3, force_vertex_partitioning=True)
    assert run.used_vertex_partitioning and run.num_parts > 1
    part_layers = [_layers(h.graph, h.layer_of) for h in run.hpartitions]
    return _digest(
        _colors(run.coloring), part_layers, run.rounds, run.palette_size,
        run.local_subroutine_rounds,
    )


def _be_peeling():
    graph = _union()
    full = barenboim_elkin_peeling(graph, arboricity=3)
    # A cap of two rounds leaves survivors, exercising the dump-layer branch.
    capped = barenboim_elkin_peeling(_union(arboricity=5), arboricity=2, max_rounds=2)
    empty = barenboim_elkin_peeling(Graph(0, ()), arboricity=1)
    reference = peeling_layers_reference(_union(arboricity=5), threshold=3)
    return _digest(
        *(
            (_layers(r.partition.graph, r.partition.layer_of), _heads(r.orientation), r.rounds)
            for r in (full, capped, empty)
        ),
        _layers(reference.graph, reference.layer_of),
    )


def _forest():
    results = [
        forest_orient_and_color(random_forest(200, num_trees=7, seed=seed))
        for seed in (1, 2)
    ] + [forest_orient_and_color(Graph(0, ()))]
    return _digest(
        *(
            (_layers(r.partition.graph, r.partition.layer_of), _heads(r.orientation),
             _colors(r.coloring), r.rounds)
            for r in results
        )
    )


def _glm19():
    runs = [
        glm19_orientation(_union(), arboricity=3),
        glm19_orientation(_union(arboricity=5), arboricity=2, max_local_rounds=2),
        glm19_orientation(Graph(0, ()), arboricity=1),
    ]
    return _digest(
        *(
            (_layers(r.partition.graph, r.partition.layer_of), _heads(r.orientation),
             r.rounds, r.phases, r.local_rounds_simulated)
            for r in runs
        )
    )


def _be_mpc():
    runs = [
        barenboim_elkin_in_mpc(_union(), arboricity=3),
        barenboim_elkin_in_mpc(_union(arboricity=5), arboricity=2, max_rounds=2),
        barenboim_elkin_in_mpc(Graph(0, ()), arboricity=1),
    ]
    return _digest(
        *(
            (_layers(r.partition.graph, r.partition.layer_of), _heads(r.orientation),
             r.rounds)
            for r in runs
        )
    )


GOLDEN = {
    "complete_layer_assignment": (
        _complete_layer_assignment,
        "ce5b71bc9a86b7d49730434309efd638fac9d750ad3943fbaae7fa81d1ea5454",
    ),
    "orient_small_lambda": (
        _orient_small,
        "bcf43dfaca16cb04638617ea363b40010163ff96a72b6b9260a288db089b89da",
    ),
    "orient_edge_partition": (
        _orient_large,
        "e4fdd03093403507ce4ae4b1529971ddec6b7594d3d7bcc1e45d49b692a88e32",
    ),
    "color_small_lambda": (
        _color_small,
        "ccfdefde176e084558b04d974e32e15d405b522317e533010f2afc66a61c3e72",
    ),
    "color_vertex_partition": (
        _color_large,
        "3b16f4ae8a19541353cc680417482635f2107fab7dbaf5a16e98546ad4564e88",
    ),
    "barenboim_elkin_peeling": (
        _be_peeling,
        "3f24e7358ded7e51f961499a88d3f9b0e6da97ca3da9f93a2b0b1ac561d9be55",
    ),
    "forest_orient_and_color": (
        _forest,
        "0483b59eb4a0be96d32ea71d2b2614b29958c3bce3c0e5a08bd56980d3dd554f",
    ),
    "glm19_orientation": (
        _glm19,
        "4cfe2f1493d06e137d1b36c08b846b72c056e8f94296a1d6aee0df7247a7f16f",
    ),
    "barenboim_elkin_in_mpc": (
        _be_mpc,
        "59e66eb62189e7ded8949937af22e3bf9a6e31737da236d2baaf44d1ab9b08d1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_pin(name, kernel_backend):
    compute, expected = GOLDEN[name]
    assert compute() == expected

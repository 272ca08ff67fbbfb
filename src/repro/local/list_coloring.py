"""Randomized degree+1 list coloring in the LOCAL model.

Theorem 1.2 colors the layers of the H-partition from the highest layer down;
inside each layer the remaining task is a *degree+1 list coloring*: every
vertex has a palette that excludes the colors already taken by its
higher-layer neighbors, and the palette is strictly larger than its degree
inside the layer.  The paper plugs in the state-of-the-art
``Õ(log^{5/3} log n)``-round algorithm of [HKNT22, GG24b] as a black box.

We substitute a simple randomized "try a random available color, keep it if no
conflicting neighbor picked the same color" algorithm.  It completes with high
probability in ``O(log n)`` rounds, and in ``O(log Δ_layer + log log n)``
rounds in the parameter regimes we run; the substitution is faithful because
Theorem 1.2 only needs *some* correct degree+1 list-coloring subroutine and we
account for the subroutine's rounds explicitly (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.errors import InvalidColoringError, ParameterError
from repro.graph.graph import Graph

Palettes = Sequence[Sequence[int]] | Mapping[int, Sequence[int]]
"""``palettes[v]`` is vertex ``v``'s palette: a per-vertex list, or a mapping."""


@dataclass
class ListColoringResult:
    """Outcome of a list-coloring run on (a subgraph of) the layer graph."""

    colors: dict[int, int]
    rounds: int


def validate_lists(graph: Graph, palettes: Palettes) -> None:
    """Check the degree+1 precondition: ``|palette(v)| ≥ deg(v) + 1`` for all v."""
    for v, degree in zip(graph.vertices, graph.degrees):
        try:
            palette = palettes[v]
        except (KeyError, IndexError):
            raise ParameterError(f"vertex {v} has no palette") from None
        distinct = len(set(palette))
        if distinct < degree + 1:
            raise ParameterError(f"vertex {v} has {distinct} colors but degree {degree}")


def random_list_coloring(
    graph: Graph,
    palettes: Palettes,
    rng: random.Random | None = None,
    seed: int | None = None,
    max_rounds: int | None = None,
) -> ListColoringResult:
    """Color ``graph`` so every vertex gets a color from its own palette.

    The synchronous randomized process: every uncolored vertex proposes a
    uniformly random color from its palette minus the colors of already-fixed
    neighbors; a vertex keeps its proposal if no *uncolored* neighbor proposed
    the same color this round.  Each vertex survives a round with probability
    ≥ 1/2 (since its palette exceeds its degree), so the process finishes in
    ``O(log n)`` rounds with high probability.

    Each vertex's available list is kept incrementally, in palette order:
    a round collects, per uncolored vertex, the colors its neighbors fixed,
    and filters the vertex's list once before its next proposal.  A round
    finds its conflicts in one scan of the induced edges whose endpoints
    are both still uncolored.

    Returns the coloring and the number of synchronous rounds used.
    """
    rng = rng if rng is not None else random.Random(seed)
    validate_lists(graph, palettes)
    n = graph.num_vertices
    if max_rounds is None:
        max_rounds = 16 * max(n.bit_length(), 4)

    available = [list(palettes[v]) for v in graph.vertices]
    # The edges whose endpoints are both uncolored, as two endpoint columns.
    live_u, live_v = graph.edge_endpoints
    colors: dict[int, int] = {}
    uncolored = set(graph.vertices)
    proposal = [0] * n
    rounds = 0
    while uncolored and rounds < max_rounds:
        rounds += 1
        for v in uncolored:
            options = available[v]
            if not options:
                # Cannot happen under the degree+1 precondition, but guard
                # against caller errors with a clear message.
                raise InvalidColoringError(
                    f"vertex {v} ran out of available colors during list coloring"
                )
            proposal[v] = rng.choice(options)
        conflicted = set()
        for u, w in zip(live_u, live_v):
            if proposal[u] == proposal[w]:
                conflicted.add(u)
                conflicted.add(w)
        newly_colored = [v for v in uncolored if v not in conflicted]
        for v in newly_colored:
            colors[v] = proposal[v]
        uncolored.difference_update(newly_colored)
        still_u: list[int] = []
        still_v: list[int] = []
        struck: defaultdict[int, set[int]] = defaultdict(set)
        for u, w in zip(live_u, live_v):
            if u in uncolored:
                if w in uncolored:
                    still_u.append(u)
                    still_v.append(w)
                else:
                    struck[u].add(colors[w])
            elif w in uncolored:
                struck[w].add(colors[u])
        for v, gone in struck.items():
            available[v] = [c for c in available[v] if c not in gone]
        live_u, live_v = still_u, still_v

    if uncolored:
        # Deterministic clean-up: color the stragglers greedily.  They are few
        # (the random process stalls only with negligible probability), and a
        # real LOCAL algorithm would finish them with a deterministic
        # O(Δ + log* n) routine; we count one extra round per vertex colored
        # to stay conservative.
        neighbors: dict[int, list[int]] = {v: [] for v in uncolored}
        for u, w in zip(live_u, live_v):
            neighbors[u].append(w)
            neighbors[w].append(u)
        for v in sorted(uncolored):
            options = available[v]
            if not options:
                raise InvalidColoringError(
                    f"vertex {v} ran out of available colors during clean-up"
                )
            color = colors[v] = options[0]
            rounds += 1
            for w in neighbors[v]:
                if w not in colors:
                    available[w] = [c for c in available[w] if c != color]

    return ListColoringResult(colors=colors, rounds=rounds)


def greedy_list_coloring(
    graph: Graph, palettes: Palettes
) -> dict[int, int]:
    """Sequential greedy list coloring (reference implementation for tests)."""
    validate_lists(graph, palettes)
    colors: dict[int, int] = {}
    for v in graph.vertices:
        taken = {colors[w] for w in graph.neighbors(v) if w in colors}
        available = [c for c in palettes[v] if c not in taken]
        if not available:
            raise InvalidColoringError(f"vertex {v} has no available color")
        colors[v] = available[0]
    return colors

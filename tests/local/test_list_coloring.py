"""Tests for the randomized degree+1 list coloring subroutine."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidColoringError, ParameterError, ReproError
from repro.graph import generators
from repro.graph.coloring import Coloring
from repro.local.list_coloring import (
    ListColoringResult,
    greedy_list_coloring,
    random_list_coloring,
    validate_lists,
)
from tests.conftest import graphs


def _reference_validate_lists(graph, palettes):
    """The validation ``validate_lists`` replaced (two sets per vertex)."""
    for v in graph.vertices:
        try:
            palette = palettes[v]
        except (KeyError, IndexError):
            raise ParameterError(f"vertex {v} has no palette") from None
        if len(set(palette)) < graph.degree(v) + 1:
            raise ParameterError(
                f"vertex {v} has {len(set(palette))} colors but degree {graph.degree(v)}"
            )


def _reference_random_list_coloring(graph, palettes, rng=None, seed=None, max_rounds=None):
    """The body ``random_list_coloring`` replaced: every round rebuilds each
    uncolored vertex's available list from its palette and its neighbors'
    colors, and scans each vertex's neighbors for a conflict."""
    rng = rng if rng is not None else random.Random(seed)
    _reference_validate_lists(graph, palettes)
    n = graph.num_vertices
    if max_rounds is None:
        max_rounds = 16 * max(n.bit_length(), 4)

    colors = {}
    uncolored = set(graph.vertices)
    rounds = 0
    while uncolored and rounds < max_rounds:
        rounds += 1
        proposals = {}
        for v in uncolored:
            taken = {colors[w] for w in graph.neighbors(v) if w in colors}
            available = [c for c in palettes[v] if c not in taken]
            if not available:
                raise InvalidColoringError(
                    f"vertex {v} ran out of available colors during list coloring"
                )
            proposals[v] = rng.choice(available)
        newly_colored = []
        for v in uncolored:
            conflict = any(
                w in proposals and proposals[w] == proposals[v] for w in graph.neighbors(v)
            )
            if not conflict:
                newly_colored.append(v)
        for v in newly_colored:
            colors[v] = proposals[v]
        uncolored.difference_update(newly_colored)

    if uncolored:
        for v in sorted(uncolored):
            taken = {colors[w] for w in graph.neighbors(v) if w in colors}
            available = [c for c in palettes[v] if c not in taken]
            if not available:
                raise InvalidColoringError(
                    f"vertex {v} ran out of available colors during clean-up"
                )
            colors[v] = available[0]
            rounds += 1

    return ListColoringResult(colors=colors, rounds=rounds)


def degree_plus_one_palettes(graph, extra: int = 0, offset: int = 0):
    return {
        v: list(range(offset, offset + graph.degree(v) + 1 + extra)) for v in graph.vertices
    }


class TestValidation:
    def test_missing_palette_rejected(self, triangle):
        with pytest.raises(ParameterError):
            validate_lists(triangle, {0: [0, 1, 2], 1: [0, 1, 2]})

    def test_short_palette_rejected(self, triangle):
        with pytest.raises(ParameterError):
            validate_lists(triangle, {0: [0], 1: [0, 1, 2], 2: [0, 1, 2]})


class TestRandomListColoring:
    def test_colors_triangle(self, triangle):
        result = random_list_coloring(triangle, degree_plus_one_palettes(triangle), seed=1)
        coloring = Coloring(triangle, result.colors)
        assert coloring.is_proper()
        assert result.rounds >= 1

    def test_colors_from_own_palette(self, union_forest_graph):
        palettes = degree_plus_one_palettes(union_forest_graph, offset=100)
        result = random_list_coloring(union_forest_graph, palettes, seed=3)
        for v, c in result.colors.items():
            assert c in palettes[v]
        Coloring(union_forest_graph, result.colors).validate_proper()

    def test_respects_asymmetric_palettes(self):
        graph = generators.star(6)
        palettes = {0: list(range(10, 18))}
        palettes.update({v: [0, 10] for v in range(1, 7)})
        result = random_list_coloring(graph, palettes, seed=5)
        coloring = Coloring(graph, result.colors)
        assert coloring.is_proper()

    def test_deterministic_given_seed(self, union_forest_graph):
        palettes = degree_plus_one_palettes(union_forest_graph)
        a = random_list_coloring(union_forest_graph, palettes, seed=9)
        b = random_list_coloring(union_forest_graph, palettes, seed=9)
        assert a.colors == b.colors

    def test_rounds_logarithmic_in_practice(self, power_law_graph):
        palettes = degree_plus_one_palettes(power_law_graph)
        result = random_list_coloring(power_law_graph, palettes, seed=2)
        assert result.rounds <= 16 * max(power_law_graph.num_vertices.bit_length(), 4)

    def test_shared_rng_accepted(self, triangle):
        rng = random.Random(0)
        result = random_list_coloring(triangle, degree_plus_one_palettes(triangle), rng=rng)
        Coloring(triangle, result.colors).validate_proper()


class TestGreedyListColoring:
    def test_matches_palettes_and_is_proper(self, union_forest_graph):
        palettes = degree_plus_one_palettes(union_forest_graph)
        colors = greedy_list_coloring(union_forest_graph, palettes)
        coloring = Coloring(union_forest_graph, colors)
        coloring.validate_proper()
        for v, c in colors.items():
            assert c in palettes[v]


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=14), st.integers(min_value=0, max_value=1000))
def test_random_list_coloring_property(graph, seed):
    palettes = {v: list(range(graph.degree(v) + 1)) for v in graph.vertices}
    result = random_list_coloring(graph, palettes, seed=seed)
    coloring = Coloring(graph, result.colors)
    assert coloring.is_proper()
    for v, c in result.colors.items():
        assert c in palettes[v]


@st.composite
def _palette_cases(draw):
    """A graph, palettes (a list or a mapping, with repeated colors, now and
    then short or missing for one vertex), a seed and a round cap."""
    graph = draw(graphs(max_vertices=14))
    palettes = []
    for v in graph.vertices:
        need = graph.degree(v) + 1 + draw(st.integers(0, 2))
        colors = draw(st.lists(st.integers(0, need + 4), min_size=need, max_size=need, unique=True))
        copies = draw(st.lists(st.sampled_from(colors), max_size=3))
        palettes.append(list(draw(st.permutations(colors + copies))))
    broken = draw(st.sampled_from([None] * 6 + ["short", "missing"]))
    victim = draw(st.integers(0, graph.num_vertices - 1))
    if broken == "short":
        palettes[victim] = sorted(set(palettes[victim]))[: graph.degree(victim)]
    if draw(st.booleans()):
        palettes = dict(enumerate(palettes))
        if broken == "missing":
            del palettes[victim]
    elif broken == "missing":
        palettes = palettes[:victim]
    seed = draw(st.integers(0, 2**32 - 1))
    max_rounds = draw(st.one_of(st.none(), st.integers(0, 2)))
    return graph, palettes, seed, max_rounds


def _run(coloring, graph, palettes, seed, max_rounds):
    rng = random.Random(seed)
    try:
        result = coloring(graph, palettes, rng=rng, max_rounds=max_rounds)
    except ReproError as exc:
        return type(exc), str(exc), rng.getstate()
    return list(result.colors.items()), result.rounds, rng.getstate()


@settings(max_examples=300, deadline=None)
@given(_palette_cases())
def test_incremental_lists_replay_the_rebuilt_lists(case):
    """Colors, their dict order, rounds, errors and the final RNG state all
    equal the body that rebuilt every available list each round."""
    graph, palettes, seed, max_rounds = case
    assert _run(random_list_coloring, graph, palettes, seed, max_rounds) == _run(
        _reference_random_list_coloring, graph, palettes, seed, max_rounds
    )


@pytest.mark.parametrize("max_rounds", [None, 0, 1])
def test_incremental_lists_replay_on_a_layer_sized_graph(max_rounds):
    graph = generators.union_of_random_forests(300, arboricity=4, seed=5)
    palettes = degree_plus_one_palettes(graph, extra=1)
    assert _run(random_list_coloring, graph, palettes, 11, max_rounds) == _run(
        _reference_random_list_coloring, graph, palettes, 11, max_rounds
    )

"""Tests for edge-list I/O and result formatting."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph import generators
from repro.graph.coloring import Coloring
from repro.graph.hpartition import HPartition
from repro.graph.io import (
    format_coloring,
    format_layering,
    format_orientation,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
    write_text,
)
from repro.graph.orientation import Orientation


class TestParseEdgeList:
    def test_basic_parse(self):
        graph = parse_edge_list(["0 1", "1 2", "", "# a comment", "2 0"])
        assert graph.num_vertices == 3
        assert graph.num_edges == 3

    def test_vertices_header_allows_isolated_vertices(self):
        graph = parse_edge_list(["# vertices 10", "0 1"])
        assert graph.num_vertices == 10
        assert graph.num_edges == 1

    def test_duplicate_and_reversed_edges_collapse(self):
        graph = parse_edge_list(["0 1", "1 0", "0 1"])
        assert graph.num_edges == 1

    def test_self_loops_dropped(self):
        graph = parse_edge_list(["0 0", "0 1"])
        assert graph.num_edges == 1

    def test_bad_lines_rejected(self):
        with pytest.raises(GraphError):
            parse_edge_list(["0"])
        with pytest.raises(GraphError):
            parse_edge_list(["a b"])
        with pytest.raises(GraphError):
            parse_edge_list(["-1 2"])

    def test_empty_input(self):
        graph = parse_edge_list([])
        assert graph.num_vertices == 0


class TestRoundTrip:
    def test_write_then_read(self, tmp_path, union_forest_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(union_forest_graph, path)
        loaded = read_edge_list(path)
        assert loaded == union_forest_graph

    def test_write_text_adds_newline(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text("hello", path)
        assert path.read_text() == "hello\n"


class TestFormatters:
    def test_format_orientation(self, small_path):
        orientation = Orientation.from_vertex_order(small_path, list(small_path.vertices))
        text = format_orientation(orientation)
        assert "0 -> 1" in text
        assert len(text.splitlines()) == small_path.num_edges

    def test_format_coloring(self, triangle):
        coloring = Coloring(triangle, {0: 0, 1: 1, 2: 2})
        lines = format_coloring(coloring).splitlines()
        assert lines == ["0 0", "1 1", "2 2"]

    def test_format_layering(self, small_path):
        partition = HPartition(small_path, [1, 1, 2, 2, 3])
        lines = format_layering(partition).splitlines()
        assert lines[0] == "0 1"
        assert lines[-1] == "4 3"

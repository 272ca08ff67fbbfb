"""Reading and writing graphs and results as plain-text edge lists / TSV.

A downstream user of the library typically has an edge list on disk (one
``u v`` pair per line, ``#`` comments allowed) rather than a generator call;
these helpers move between that format and :class:`~repro.graph.graph.Graph`,
and dump orientations / colorings / layerings in a greppable one-line-per-item
format that the CLI (:mod:`repro.cli`) uses.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from repro.errors import GraphError
from repro.graph.coloring import Coloring
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.hpartition import HPartition
from repro.graph.orientation import Orientation


def parse_edge_list(lines: Iterable[str]) -> Graph:
    """Parse an edge list (one ``u v`` pair per line) into a :class:`Graph`.

    Blank lines and lines starting with ``#`` are ignored.  Vertex ids must be
    non-negative integers; the vertex count is one more than the largest id
    seen (isolated trailing vertices can be declared with a ``# vertices N``
    header line).
    """
    edges: set[Edge] = set()
    declared_vertices = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0].lower() == "vertices":
                declared_vertices = int(parts[1])
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphError(f"line {line_number}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {line_number}: vertex ids must be integers") from exc
        if u < 0 or v < 0:
            raise GraphError(f"line {line_number}: vertex ids must be non-negative")
        if u == v:
            continue  # silently drop self loops, common in crawled edge lists
        edges.add(normalize_edge(u, v))
    num_vertices = max(
        declared_vertices, 1 + max((max(u, v) for u, v in edges), default=-1)
    )
    return Graph(max(num_vertices, 0), edges)


def read_edge_list(path: str | os.PathLike) -> Graph:
    """Read a graph from an edge-list file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle)


def write_edge_list(graph: Graph, path: str | os.PathLike) -> None:
    """Write a graph as an edge-list file (with a ``# vertices`` header)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# vertices {graph.num_vertices}\n")
        for u, v in graph.edges:
            handle.write(f"{u} {v}\n")


def format_orientation(orientation: Orientation) -> str:
    """One ``tail -> head`` line per edge, sorted, for the CLI output."""
    lines = []
    for (u, v) in orientation.graph.edges:
        head = orientation.head(u, v)
        tail = u if head == v else v
        lines.append(f"{tail} -> {head}")
    return "\n".join(lines)


def format_coloring(coloring: Coloring) -> str:
    """One ``vertex color`` line per vertex, sorted by vertex id."""
    return "\n".join(f"{v} {coloring.color(v)}" for v in coloring.graph.vertices)


def format_layering(partition: HPartition) -> str:
    """One ``vertex layer`` line per vertex, sorted by vertex id."""
    return "\n".join(f"{v} {layer}" for v, layer in enumerate(partition.layer_of))


def write_text(content: str, path: str | os.PathLike) -> None:
    """Write a text payload, ensuring a trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
        if not content.endswith("\n"):
            handle.write("\n")

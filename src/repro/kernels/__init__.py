"""Pluggable kernel backends for the CSR hot paths.

The graph core's inner loops — edge canonicalisation, frontier peeling,
head flips, outdegree tallies, orientation merges, palette assembly, the
Lemma 4.1 directed reachability — are
pure-python passes over flat ``array('l')`` columns.  This package puts one
*dispatch seam* in front of each of them: the reference implementations live in
:mod:`repro.kernels.pure`, and :mod:`repro.kernels.numpy_backend` provides
vectorized equivalents that are **byte-identical** on every input (same
layers, same heads, same tallies, same error messages on the same
offenders).  numpy stays an optional dependency: when it is not importable,
every request for the ``numpy`` backend silently resolves to ``pure``.

Backend selection order (first match wins):

1. an explicit ``backend=...`` argument on a dispatcher call;
2. a process-wide :func:`set_backend` selection (the CLI's ``--kernels``
   flag calls this after parsing);
3. the ``REPRO_KERNELS`` environment variable;
4. the default, ``pure``.

An unknown backend name raises :class:`~repro.errors.ParameterError` loudly
— a typo must not silently change which code runs — while a *valid* request
for ``numpy`` on a host without numpy falls back to ``pure``, because the
two backends are output-identical by contract and availability is an
environment fact, not a correctness knob.

The dispatchers deliberately take primitive columns (ints, ``array('l')``
buffers, tuples) rather than graph objects, so this package imports nothing
from :mod:`repro.graph` and the graph core can import it without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.errors import ParameterError

__all__ = [
    "PURE",
    "NUMPY",
    "BACKENDS",
    "numpy_available",
    "available_backends",
    "active_backend",
    "set_backend",
    "use_backend",
    "peel_layers",
    "orient_by_rank",
    "edge_minimum",
    "tally_outdegrees",
    "merge_oriented_columns",
    "merge_part_columns",
    "draws_below",
    "split_by_part",
    "sum_counts",
    "min_value",
    "max_value",
    "max_sizes",
    "sum_sizes",
    "count_distinct",
    "assemble_color_columns",
    "flip_repair_group",
    "canonical_edge_columns",
    "build_csr",
    "induced_edge_columns",
    "encode_edge_keys",
    "first_monochrome",
    "compact_journal",
    "validate_batch",
    "tally_by_machine",
    "unassigned_positions",
    "scatter_layers",
    "directed_out_csr",
    "row_lengths",
    "reach_counts",
    "layer_palettes",
]

PURE = "pure"
NUMPY = "numpy"
BACKENDS = (PURE, NUMPY)

ENV_VAR = "REPRO_KERNELS"

# Multiplier of the MPC placement hash (see :func:`machine_of`).
PLACEMENT_MULTIPLIER = 2654435761


def machine_of(key: int, num_machines: int) -> int:
    """The machine that holds ``key`` among ``num_machines``: the MPC
    placement hash.  :meth:`~repro.mpc.config.MPCConfig.machine_of` and both
    :func:`tally_by_machine` bodies place keys by this rule."""
    return key * PLACEMENT_MULTIPLIER % num_machines


# Process-wide selection (None = fall through to the environment/default).
_selected: str | None = None
# Cached availability probe; populated on first use so importing this package
# never imports numpy.
_numpy_ok: bool | None = None


def numpy_available() -> bool:
    """Whether the numpy backend can actually run in this process."""
    global _numpy_ok
    if _numpy_ok is None:
        try:
            import numpy  # noqa: F401

            _numpy_ok = True
        except Exception:
            _numpy_ok = False
    return _numpy_ok


def available_backends() -> tuple[str, ...]:
    """The backends that can run here (``pure`` always; ``numpy`` if importable)."""
    return BACKENDS if numpy_available() else (PURE,)


def set_backend(name: str | None) -> None:
    """Select the process-wide backend (``None`` resets to env/default).

    Selecting ``numpy`` on a host without numpy is legal — dispatch falls
    back to ``pure`` — but an unknown name raises immediately.
    """
    global _selected
    if name is not None and name not in BACKENDS:
        raise ParameterError(
            f"unknown kernel backend {name!r} (choose from {BACKENDS})"
        )
    _selected = name


def active_backend() -> str:
    """The backend dispatch will use right now (fallback already applied)."""
    requested = _selected
    if requested is None:
        requested = os.environ.get(ENV_VAR) or PURE
    if requested not in BACKENDS:
        raise ParameterError(
            f"{ENV_VAR}={requested!r} is not a kernel backend (choose from {BACKENDS})"
        )
    if requested == NUMPY and not numpy_available():
        return PURE
    return requested


@contextmanager
def use_backend(name: str | None):
    """Temporarily select a backend (tests and benchmarks).

    Yields the backend that will actually run (after the numpy-missing
    fallback), so callers can label results truthfully.
    """
    global _selected
    previous = _selected
    set_backend(name)
    try:
        yield active_backend()
    finally:
        _selected = previous


def _module(backend: str | None):
    """Resolve a backend name (or the active selection) to its module."""
    name = backend if backend is not None else active_backend()
    if name == NUMPY and numpy_available():
        from repro.kernels import numpy_backend

        return numpy_backend
    if name not in BACKENDS:
        raise ParameterError(
            f"unknown kernel backend {name!r} (choose from {BACKENDS})"
        )
    from repro.kernels import pure

    return pure


# ---------------------------------------------------------------------- #
# Dispatchers.  Signatures take primitive columns so both backends (and any
# future one) share one contract; see the pure module for the reference
# semantics each numpy kernel must reproduce byte-for-byte.
# ---------------------------------------------------------------------- #


def peel_layers(num_vertices, indptr, indices, threshold, max_rounds=None, backend=None):
    """Round-synchronous peel over a CSR adjacency; ``(array('l') layers, rounds)``.

    Degrees are derived from ``indptr`` inside the kernel.
    """
    return _module(backend).peel_layers(num_vertices, indptr, indices, threshold, max_rounds)


def orient_by_rank(edge_u, edge_v, ranks, backend=None):
    """Heads column: each edge points at the higher-ranked endpoint (ties → v)."""
    return _module(backend).orient_by_rank(edge_u, edge_v, ranks)


def edge_minimum(edge_u, edge_v, column, backend=None):
    """Per edge, the smaller of its endpoints' entries in ``column``, as an ``array('l')``."""
    return _module(backend).edge_minimum(edge_u, edge_v, column)


def tally_outdegrees(num_vertices, edge_u, edge_v, heads, backend=None):
    """Outdegree per vertex as a tuple; raises on a head that is no endpoint."""
    return _module(backend).tally_outdegrees(num_vertices, edge_u, edge_v, heads)


def merge_oriented_columns(num_vertices, a_u, a_v, a_heads, b_u, b_v, b_heads, backend=None):
    """Merge two sorted canonical edge/head column sets.

    Returns ``(edge_u, edge_v, heads, overlap)``; when ``overlap`` is
    non-zero the columns are ``None`` and the caller raises (matching the
    two-pointer reference, which detects sharing before building a result).
    """
    return _module(backend).merge_oriented_columns(
        num_vertices, a_u, a_v, a_heads, b_u, b_v, b_heads
    )


def merge_part_columns(num_vertices, parts, backend=None):
    """One L-way merge of ``(edge_u, edge_v, heads)`` part columns.

    Returns the concatenated columns stably ordered by edge key (an edge in
    several parts appears once per part, adjacent, in part order); the
    caller compares them with the parent's own columns to check coverage.
    """
    return _module(backend).merge_part_columns(num_vertices, parts)


def draws_below(words, shift, bound, backend=None):
    """``randrange(bound)`` candidates of a run of 32-bit MT words, rejects dropped.

    ``words`` are the little-endian bytes of ``getrandbits(32·w)``;
    ``shift = 32 − bound.bit_length()``.  Returns the accepted draws, in
    order, as an ``array('l')``.
    """
    return _module(backend).draws_below(words, shift, bound)


def split_by_part(labels, num_parts, columns, backend=None):
    """Stable group-by-part of ``columns`` by a ``0..num_parts-1`` label column.

    Returns ``num_parts`` tuples of ``array('l')`` columns, part ``i``
    holding the rows labelled ``i`` in input order.
    """
    return _module(backend).split_by_part(labels, num_parts, columns)


def sum_counts(a, b, backend=None):
    """Elementwise sum of two equal-length count tuples, as a tuple of ints."""
    return _module(backend).sum_counts(a, b)


def min_value(column, backend=None):
    """Minimum of a flat column (0 for an empty column)."""
    return _module(backend).min_value(column)


def max_sizes(collections, backend=None):
    """``max(len(c) for c in collections)`` (0 when empty)."""
    return _module(backend).max_sizes(collections)


def sum_sizes(collections, backend=None):
    """``sum(len(c) for c in collections)``."""
    return _module(backend).sum_sizes(collections)


def assemble_color_columns(num_vertices, parts, backend=None):
    """Scatter per-part color columns under prefix-sum palette offsets.

    ``parts`` is a sequence of ``(parent_ids, color_column, palette_size)``
    triples in part order.  Returns ``(column, offsets)``: a flat
    ``array('l')`` of final colors (−1 where no part covered the vertex) and
    the palette prefix sums ``[0, s0, s0+s1, ...]``.
    """
    return _module(backend).assemble_color_columns(num_vertices, parts)


def max_value(column, backend=None):
    """Maximum of a flat column (0 for an empty column)."""
    return _module(backend).max_value(column)


def count_distinct(column, backend=None):
    """Number of distinct values in a flat column."""
    return _module(backend).count_distinct(column)


def canonical_edge_columns(num_vertices, edges, backend=None):
    """Sorted canonical ``(min, max)`` edge columns of ``(u, v)`` pairs.

    The ``Graph`` constructor's validation: ids are read with ``int()``
    (floats truncate toward zero) and must lie in ``0..num_vertices-1``;
    self loops and duplicates (in either orientation) are rejected.  Raises
    :class:`~repro.errors.GraphError` on the first offending edge in input
    order, with the pure body's exact message on both backends.  Returns
    ``(edge_u, edge_v)`` as ``array('l')`` columns, sorted lexicographically.
    """
    return _module(backend).canonical_edge_columns(num_vertices, edges)


def build_csr(num_vertices, edge_u, edge_v, backend=None):
    """CSR adjacency ``(indptr, indices)`` from canonical sorted edge columns.

    Every vertex's neighbor slice comes back fully ascending; both backends
    produce byte-identical ``array('l')`` pairs.  This is the
    re-materialisation step the streaming data plane pays after every
    journal compaction, so it dispatches like any other kernel.
    """
    return _module(backend).build_csr(num_vertices, edge_u, edge_v)


def induced_edge_columns(num_vertices, indptr, indices, kept, backend=None):
    """The edges of the subgraph induced by ``kept``, in its local ids.

    ``kept`` lists distinct vertex ids of the CSR ``(indptr, indices)`` in
    ascending order; local id ``i`` is ``kept[i]``.  Returns ``(edge_u,
    edge_v)`` as ``array('l')`` columns, canonical (``u < v``) and sorted,
    ready for :meth:`~repro.graph.graph.Graph._from_columns`.
    """
    return _module(backend).induced_edge_columns(num_vertices, indptr, indices, kept)


def encode_edge_keys(num_vertices, edge_u, edge_v, backend=None):
    """Canonical sorted edge columns as sorted ``u * stride + v`` int keys.

    ``stride = max(num_vertices, 1)`` is the shared key convention of the
    streaming kernels — the columns this produces feed ``validate_batch``
    directly.
    """
    return _module(backend).encode_edge_keys(num_vertices, edge_u, edge_v)


def first_monochrome(colors, us, vs, start=0, backend=None):
    """First index ≥ ``start`` where ``colors[us[i]] == colors[vs[i]]``, else -1.

    The recolor-candidate scan of the incremental coloring (callers repair
    the hit and resume at ``i + 1``) and the properness check's inner loop.
    """
    return _module(backend).first_monochrome(colors, us, vs, start)


def compact_journal(num_vertices, base_u, base_v, added_keys, removed_keys, backend=None):
    """Merge the sorted overlay key columns over base edge columns; ``(edge_u, edge_v)``.

    ``added_keys`` and ``removed_keys`` are the overlay's additions and
    tombstones as ascending keys in the ``encode_edge_keys`` encoding (an
    addition is never a base edge, a tombstone always is).  The output is
    the base edges minus the tombstones plus the additions, canonical
    sorted, ready for ``Graph._from_columns``.
    """
    return _module(backend).compact_journal(
        num_vertices, base_u, base_v, added_keys, removed_keys
    )


def validate_batch(num_vertices, ops, us, vs, base_keys, added_keys, removed_keys, backend=None):
    """Atomically pre-validate one update batch against the live edge set.

    ``ops``/``us``/``vs`` are the batch's raw columns (op 1 = insert);
    the key columns are the live state in the ``encode_edge_keys`` encoding.
    Raises :class:`~repro.errors.GraphError` on the first offending update
    with the streaming service's exact message; returns ``None`` when legal.
    """
    return _module(backend).validate_batch(
        num_vertices, ops, us, vs, base_keys, added_keys, removed_keys
    )


def tally_by_machine(num_machines, keys, words, backend=None):
    """Words per machine of a column of keys placed by the MPC placement hash.

    Key ``keys[i]`` lands on machine ``machine_of(keys[i], num_machines)``
    and carries ``words`` words (one int for every key) or
    ``words[i]`` (a column as long as ``keys``).  Returns ``(machines,
    totals)``: the touched machine ids in ascending order and their word
    totals, both python-int lists.  A machine reached only by zero-word keys is
    touched, with total 0.  Keys must fit in a signed 64-bit int.  Raises
    :class:`~repro.errors.SimulationError` when some key carries a negative
    size (so never for an empty key column).
    """
    return _module(backend).tally_by_machine(num_machines, keys, words)


def unassigned_positions(column, backend=None):
    """Ascending positions of the entries below 1 of a layer column, as an ``array('l')``.

    In a valid integer layer column (layers ``≥ 1``, ``0`` = unassigned)
    these are exactly the unassigned vertices; a negative entry, which no
    valid column holds, is listed too so that callers can reject it.
    """
    return _module(backend).unassigned_positions(column)


def scatter_layers(column, parent_ids, local, offset, backend=None):
    """Write a subgraph's assigned layers, shifted by ``offset``, into ``column``.

    ``local[i]`` is the layer of local vertex ``i`` (``0`` = unassigned),
    whose id in ``column`` is ``parent_ids[i]``; each assigned one is
    written in place as ``offset + local[i]``.  Returns the number of
    vertices written.
    """
    return _module(backend).scatter_layers(column, parent_ids, local, offset)


def directed_out_csr(num_vertices, indptr, indices, layer_of, backend=None):
    """The directed out-CSR ``(out_indptr, out_indices)`` of a layered graph.

    Row ``u`` keeps, in CSR order, the neighbors ``w`` of ``u`` with
    ``layer_of[w] ≥ layer_of[u]``: edges inside a layer point both ways and
    edges across layers point toward the higher layer.  Both columns are
    ``array('l')``.
    """
    return _module(backend).directed_out_csr(num_vertices, indptr, indices, layer_of)


def row_lengths(indptr, backend=None):
    """Row lengths ``indptr[v + 1] - indptr[v]`` of a CSR, as an ``array('l')``."""
    return _module(backend).row_lengths(indptr)


def reach_counts(out_indptr, out_indices, starts, max_distance, set_size_limit, backend=None):
    """Bounded BFS from every start over a directed out-CSR, as two count columns.

    Every entry of ``starts`` (vertex ids) is walked on its own, a repeated
    one again.  Start ``s`` reaches the vertices at distance
    ``≤ max_distance`` in BFS order: by level, and inside a level in
    frontier order, then CSR order.  With ``set_size_limit`` (an
    int ``≥ 1``, or ``None`` for no limit) each start keeps only the first
    ``set_size_limit + 1`` of them.  Returns ``(sizes, hits)`` as
    ``array('l')`` columns: ``sizes[j]`` is the size of the truncated set
    of ``starts[j]``, and ``hits[v]`` (one entry per CSR row) the number of
    truncated sets that contain ``v``.
    """
    return _module(backend).reach_counts(
        out_indptr, out_indices, starts, max_distance, set_size_limit
    )


def layer_palettes(
    members, out_indptr, out_indices, colors, palette_base, palette_size, backend=None
):
    """Free colors of each member: ``palette_base .. palette_base+palette_size-1``
    minus the colors (``≥ 0``) of its out-CSR row.

    Returns one ascending python-int list per member, in ``members`` order.
    """
    return _module(backend).layer_palettes(
        members, out_indptr, out_indices, colors, palette_base, palette_size
    )


def flip_repair_group(shard, group_updates, cap, choose_tail, backend=None):
    """Replay one cap-safe conflict group against its out-table shard.

    ``shard`` maps each touched vertex to its sorted out-heads tuple;
    ``choose_tail`` is the caller's tail-selection rule (injected so the
    stream module keeps exactly one definition of it).  Returns
    ``(new_shard, freed)`` with sorted python-int head lists and the freed
    tails in deletion order.  No library code calls it any more:
    ``IncrementalOrientation.apply_batch`` has one in-process path, in which
    one replay of the batch sorts the conflict groups, every cap-safe group
    is applied in one pass with the replayed tails, and only the flip-prone
    groups run one by one.  It stays only because ``perfbench/tracing.py``
    wraps every dispatcher by name, and goes once the benchmark drops it.
    """
    return _module(backend).flip_repair_group(shard, group_updates, cap, choose_tail)

"""Reference (pure-python) kernel implementations.

These are the loops that used to live inline in ``Graph.peel_layers``,
``Orientation``, the stream repair path and the Theorem 1.2 combine step,
lifted out verbatim so they operate on primitive columns.  They define the
semantics — including error messages and first-offender order — that the
numpy backend must reproduce byte-for-byte (pinned by the equivalence suite
in ``tests/kernels/``).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import sub

from repro.errors import GraphError, InvalidOrientationError, SimulationError
from repro.kernels import machine_of


def peel_layers(num_vertices, indptr, indices, threshold, max_rounds):
    """Frontier-based round-synchronous peel (see ``Graph.peel_layers``).

    A vertex is stamped with the *next* round's index the moment its
    remaining degree first drops to ``threshold``; once stamped, later
    decrements in the same round skip it, so its stored degree stays stale —
    harmless, because every read is gated on ``layers[w] == 0``.
    """
    degree = list(map(sub, indptr[1:], indptr))
    layers = [0] * num_vertices
    frontier = [v for v, d in enumerate(degree) if d <= threshold]
    for v in frontier:
        layers[v] = 1
    rounds_used = 0
    while frontier and (max_rounds is None or rounds_used < max_rounds):
        rounds_used += 1
        next_round = rounds_used + 1
        next_frontier: list[int] = []
        append = next_frontier.append
        for v in frontier:
            # Iterating a materialised slice keeps the inner loop at
            # C speed; only the per-neighbor bookkeeping is Python.
            for w in indices[indptr[v] : indptr[v + 1]]:
                if layers[w] == 0:
                    d = degree[w] - 1
                    if d == threshold:
                        layers[w] = next_round
                        append(w)
                    else:
                        degree[w] = d
        frontier = next_frontier
    if frontier:
        # max_rounds cut the process short; the queued wave was stamped
        # with a round that never ran, so un-assign it.
        for v in frontier:
            layers[v] = 0
    return array("l", layers), rounds_used


def orient_by_rank(edge_u, edge_v, ranks):
    """Heads column for "orient toward the higher rank, ties toward v"."""
    lookup = ranks.__getitem__
    heads = array("l")
    append = heads.append
    for u, v in zip(edge_u, edge_v):
        # u < v in canonical form, so rank ties resolve toward v.
        append(v if lookup(u) <= lookup(v) else u)
    return heads


def edge_minimum(edge_u, edge_v, column):
    """``min(column[u], column[v])`` per edge."""
    lookup = column.__getitem__
    pairs = zip(map(lookup, edge_u), map(lookup, edge_v))
    return array("l", [a if a < b else b for a, b in pairs])


def draws_below(words, shift, bound):
    """Accepted draws of ``randrange(bound)`` from a run of 32-bit MT words.

    ``words`` holds little-endian 32-bit Mersenne-Twister outputs in draw
    order (the bytes of ``getrandbits(32·w)``); each word shifted right by
    ``shift = 32 − bound.bit_length()`` is one candidate of CPython's
    ``_randbelow_with_getrandbits``, kept iff it is below ``bound``.
    """
    column = array("I")
    column.frombytes(words)
    if sys.byteorder == "big":
        column.byteswap()
    return array("l", [d for d in (w >> shift for w in column) if d < bound])


def split_by_part(labels, num_parts, columns):
    """Stable group-by-part: per part, the rows of ``columns`` carrying its label.

    Returns one tuple of ``array('l')`` columns per part ``0..num_parts-1``;
    within a part the rows keep their input order, so slices of canonical
    sorted edge columns stay canonical sorted.
    """
    rows: list[list[int]] = [[] for _ in range(num_parts)]
    for row, label in enumerate(labels):
        rows[label].append(row)
    return [
        tuple(array("l", map(column.__getitem__, part_rows)) for column in columns)
        for part_rows in rows
    ]


def merge_part_columns(num_vertices, parts):
    """One L-way merge of ``(edge_u, edge_v, heads)`` part columns by edge key.

    The parts are concatenated and stably ordered by ``u * stride + v``
    (``stride = max(num_vertices, 1)``); an edge held by several parts comes
    out as adjacent equal rows in part order.  Each part is itself sorted,
    so the sort only merges its ``L`` runs.
    """
    edge_u = array("l")
    edge_v = array("l")
    heads = array("l")
    for part_u, part_v, part_heads in parts:
        edge_u.extend(part_u)
        edge_v.extend(part_v)
        heads.extend(part_heads)
    stride = max(num_vertices, 1)
    keys = [u * stride + v for u, v in zip(edge_u, edge_v)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return tuple(
        array("l", map(column.__getitem__, order)) for column in (edge_u, edge_v, heads)
    )


def tally_outdegrees(num_vertices, edge_u, edge_v, heads):
    """Single pass over the edge columns: outdegree per vertex + endpoint check."""
    outdegree = [0] * num_vertices
    for u, v, head in zip(edge_u, edge_v, heads):
        if head == v:
            outdegree[u] += 1
        elif head == u:
            outdegree[v] += 1
        else:
            raise InvalidOrientationError(
                f"edge {(u, v)} oriented toward {head}, which is not an endpoint"
            )
    return tuple(outdegree)


def merge_oriented_columns(num_vertices, a_u, a_v, a_heads, b_u, b_v, b_heads):
    """Two-pointer merge of two sorted canonical edge/head column sets.

    Shared edges are counted, not merged: a non-zero overlap returns
    ``(None, None, None, overlap)`` and the caller raises, exactly like the
    original in-class loop (which raised before assembling a result).
    """
    la, lb = len(a_u), len(b_u)
    edge_u = array("l")
    edge_v = array("l")
    heads = array("l")
    i = j = 0
    overlap = 0
    while i < la and j < lb:
        ea = (a_u[i], a_v[i])
        eb = (b_u[j], b_v[j])
        if ea < eb:
            edge_u.append(ea[0])
            edge_v.append(ea[1])
            heads.append(a_heads[i])
            i += 1
        elif eb < ea:
            edge_u.append(eb[0])
            edge_v.append(eb[1])
            heads.append(b_heads[j])
            j += 1
        else:
            overlap += 1
            i += 1
            j += 1
    if overlap:
        return None, None, None, overlap
    if i < la:
        edge_u.extend(a_u[i:])
        edge_v.extend(a_v[i:])
        heads.extend(a_heads[i:])
    if j < lb:
        edge_u.extend(b_u[j:])
        edge_v.extend(b_v[j:])
        heads.extend(b_heads[j:])
    return edge_u, edge_v, heads, 0


def sum_counts(a, b):
    """Elementwise sum of two equal-length count tuples."""
    return tuple(x + y for x, y in zip(a, b))


def min_value(column):
    """Minimum of a flat column (0 when empty)."""
    return min(column) if len(column) else 0


def max_sizes(collections):
    """Largest ``len()`` across the collections (0 when there are none)."""
    return max((len(c) for c in collections), default=0)


def sum_sizes(collections):
    """Total ``len()`` across the collections."""
    return sum(len(c) for c in collections)


def assemble_color_columns(num_vertices, parts):
    """Scatter per-part color columns under prefix-sum palette offsets."""
    column = array("l", [-1]) * num_vertices
    offsets = [0]
    base = 0
    for parents, colors, palette_size in parts:
        for local, parent in enumerate(parents):
            column[parent] = base + colors[local]
        base += int(palette_size)
        offsets.append(base)
    return column, offsets


def max_value(column):
    """Maximum of a flat column (0 when empty)."""
    return max(column) if len(column) else 0


def count_distinct(column):
    """Number of distinct values in a flat column."""
    return len(set(column))


def canonical_edge_columns(num_vertices, edges):
    """Validate ``(u, v)`` pairs into sorted canonical ``(min, max)`` columns.

    The reference ``Graph`` constructor loop: each pair is unpacked, both
    ids go through ``int()``, and the first offending edge in input order
    raises :class:`~repro.errors.GraphError`, its checks taken in the order
    range, self loop, duplicate.  Edges are held as ``lo * n + hi`` int keys,
    so deduplication and the final sort work on ints, not tuples.
    """
    n = num_vertices
    keys: list[int] = []
    append = keys.append
    seen: set[int] = set()
    add = seen.add
    for u, v in edges:
        u = int(u)
        v = int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self loop ({u}, {v}) is not allowed")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise GraphError(f"duplicate edge {_canonical(u, v)}")
        add(key)
        append(key)
    keys.sort()
    return array("l", [key // n for key in keys]), array("l", [key % n for key in keys])


def build_csr(num_vertices, edge_u, edge_v):
    """CSR adjacency ``(indptr, indices)`` from canonical sorted edge columns.

    Each vertex's slice is [smaller neighbors asc | larger neighbors asc],
    which is fully ascending because edges are stored sorted: the larger
    ("forward") half of every slice is a contiguous run of ``edge_v`` located
    by bisection and appended as a C-level block copy, while the smaller
    ("backward") half is gathered by one bucket-append pass.
    """
    n = num_vertices
    m = len(edge_u)
    backward: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(edge_u, edge_v):
        backward[v].append(u)
    indices: list[int] = []
    extend = indices.extend
    indptr = [0] * (n + 1)
    position = 0
    filled = 0
    for v in range(n):
        smaller = backward[v]
        if smaller:
            extend(smaller)
            filled += len(smaller)
        if position < m and edge_u[position] == v:
            end = bisect_right(edge_u, v, position)
            extend(edge_v[position:end])
            filled += end - position
            position = end
        indptr[v + 1] = filled
    return array("l", indptr), array("l", indices)


def induced_edge_columns(num_vertices, indptr, indices, kept):
    """Walk the kept rows; each kept edge is seen once from its smaller
    endpoint, already in canonical order."""
    local_of = [-1] * num_vertices
    for i, p in enumerate(kept):
        local_of[p] = i
    edge_u = array("l")
    edge_v = array("l")
    for i, p in enumerate(kept):
        for w in indices[indptr[p] : indptr[p + 1]]:
            if w > p:
                lw = local_of[w]
                if lw >= 0:
                    edge_u.append(i)
                    edge_v.append(lw)
    return edge_u, edge_v


def encode_edge_keys(num_vertices, edge_u, edge_v):
    """Encode canonical sorted edge columns as sorted ``u * stride + v`` keys.

    ``stride = max(num_vertices, 1)`` is the shared convention of every
    key-encoded kernel in this package (``n² < 2⁶³`` for any graph this repo
    can hold); lexicographic edge order is preserved, so the output column is
    ascending whenever the input columns are canonical sorted.
    """
    stride = max(num_vertices, 1)
    return array("l", (u * stride + v for u, v in zip(edge_u, edge_v)))


def first_monochrome(colors, us, vs, start):
    """First index ``i ≥ start`` with ``colors[us[i]] == colors[vs[i]]``, else -1.

    The recolor-candidate scan of the incremental coloring: the caller
    repairs the endpoint found, then resumes the scan at ``i + 1`` against
    the *updated* colors — so across one batch every edge is examined exactly
    once, just like the per-update reference loop.
    """
    for i in range(start, len(us)):
        if colors[us[i]] == colors[vs[i]]:
            return i
    return -1


def compact_journal(num_vertices, base_u, base_v, added_keys, removed_keys):
    """Merge the sorted overlay key columns into the base edge columns.

    ``base_u``/``base_v`` are the frozen base graph's canonical sorted edge
    columns; ``added_keys`` (edges absent from the base) and
    ``removed_keys`` (tombstoned base edges) are ascending
    ``u * stride + v`` key columns, ``stride = max(num_vertices, 1)``.  The
    keys are decoded to ``(u, v)`` pairs (which sort the same way), then one
    linear merge drops the tombstones and splices in the additions; returns
    fresh ``(edge_u, edge_v)`` columns, canonical sorted — exactly the edge
    set the overlay semantics of ``DynamicGraph`` describe.
    """
    stride = max(num_vertices, 1)
    added = [divmod(key, stride) for key in added_keys]
    removed = [divmod(key, stride) for key in removed_keys]
    out_u = array("l")
    out_v = array("l")
    i = j = 0
    num_added = len(added)
    num_removed = len(removed)
    for e in zip(base_u, base_v):
        while i < num_added and added[i] < e:
            out_u.append(added[i][0])
            out_v.append(added[i][1])
            i += 1
        if j < num_removed and removed[j] == e:
            j += 1
            continue
        out_u.append(e[0])
        out_v.append(e[1])
    for a, b in added[i:]:
        out_u.append(a)
        out_v.append(b)
    return out_u, out_v


def _key_member(sorted_keys, key):
    i = bisect_left(sorted_keys, key)
    return i < len(sorted_keys) and sorted_keys[i] == key


def validate_batch(num_vertices, ops, us, vs, base_keys, added_keys, removed_keys):
    """Atomic pre-validation of one update batch against the live edge set.

    The key columns describe the current :class:`DynamicGraph` state in the
    :func:`encode_edge_keys` encoding: ``base_keys`` the base graph's edges,
    ``added_keys``/``removed_keys`` the overlay's additions and tombstones
    (each sorted ascending).  An edge is live iff it is added, or in the base
    and not tombstoned.  Later updates of the same edge are judged against
    the *pending* in-batch state, exactly like the service's reference loop.
    Raises :class:`~repro.errors.GraphError` on the first offending update,
    with the service's exact message; returns ``None`` when the batch is
    legal.
    """
    n = num_vertices
    stride = max(n, 1)
    pending: dict[tuple, bool] = {}
    for index in range(len(ops)):
        u = us[index]
        v = vs[index]
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(
                f"batch update #{index}: edge ({u}, {v}) "
                f"references a vertex outside 0..{n - 1}"
            )
        e = (u, v) if u < v else (v, u)
        live = pending.get(e)
        if live is None:
            key = e[0] * stride + e[1]
            live = _key_member(added_keys, key) or (
                _key_member(base_keys, key) and not _key_member(removed_keys, key)
            )
        is_insert = ops[index] == 1
        if is_insert and live:
            raise GraphError(f"batch update #{index}: insert of live edge {e}")
        if not is_insert and not live:
            raise GraphError(f"batch update #{index}: delete of dead edge {e}")
        pending[e] = is_insert


def tally_by_machine(num_machines, keys, words):
    """Words per machine as a dict loop, sorted by machine id at the end."""
    sizes = repeat(words, len(keys)) if isinstance(words, int) else words
    totals: dict[int, int] = {}
    get = totals.get
    for key, size in zip(keys, sizes):
        if size < 0:
            raise SimulationError("message size must be non-negative")
        machine = machine_of(key, num_machines)
        totals[machine] = get(machine, 0) + size
    machines = sorted(totals)
    return machines, list(map(totals.__getitem__, machines))


def unassigned_positions(column):
    """Ascending positions of the entries below 1 of a layer column."""
    return array("l", compress(range(len(column)), map((1).__gt__, column)))


def scatter_layers(column, parent_ids, local, offset):
    """Write ``offset + local[i]`` at ``parent_ids[i]`` for every non-zero
    ``local[i]``; returns the number written."""
    written = 0
    for parent, layer in zip(parent_ids, local):
        if layer:
            column[parent] = offset + layer
            written += 1
    return written


def directed_out_csr(num_vertices, indptr, indices, layer_of):
    """Keep each CSR row's neighbors in the same or a higher layer."""
    out_indptr = array("l", [0])
    out_indices = array("l")
    for u in range(num_vertices):
        mine = layer_of[u]
        row = indices[indptr[u] : indptr[u + 1]]
        out_indices.extend([w for w in row if layer_of[w] >= mine])
        out_indptr.append(len(out_indices))
    return out_indptr, out_indices


def row_lengths(indptr):
    """``indptr[v + 1] - indptr[v]`` for every row."""
    return array("l", map(sub, indptr[1:], indptr))


def reach_counts(out_indptr, out_indices, starts, max_distance, set_size_limit):
    """One BFS per start, stopped at ``max_distance`` levels or when the
    start has ``set_size_limit + 1`` vertices; each vertex kept adds one
    to its ``hits`` entry."""
    cap = sys.maxsize if set_size_limit is None else set_size_limit + 1
    hits = array("l", [0]) * (len(out_indptr) - 1)
    sizes = array("l")
    for start in starts:
        seen = {start}
        order = [start]
        frontier = [start]
        distance = 0
        while frontier and distance < max_distance and len(order) < cap:
            level = len(order)
            for u in frontier:
                for w in out_indices[out_indptr[u] : out_indptr[u + 1]]:
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
                        if len(order) == cap:
                            break
                if len(order) == cap:
                    break
            frontier = order[level:]
            distance += 1
        for v in order:
            hits[v] += 1
        sizes.append(len(order))
    return sizes, hits


def layer_palettes(members, out_indptr, out_indices, colors, palette_base, palette_size):
    """Per member, the palette minus the non-negative colors of its out-row."""
    palette = range(palette_base, palette_base + palette_size)
    palettes = []
    for v in members:
        row = out_indices[out_indptr[v] : out_indptr[v + 1]]
        taken = {c for c in map(colors.__getitem__, row) if c >= 0}
        palettes.append([c for c in palette if c not in taken])
    return palettes


def _canonical(u, v):
    # Inline normalize_edge: kernels must not import repro.graph (the graph
    # core imports this package), and the message only needs the tuple repr.
    return (u, v) if u < v else (v, u)


def flip_repair_group(shard, group_updates, cap, choose_tail):
    """Replay one cap-safe conflict group against its out-table shard.

    The reference body of a cap-safe group replayed outside the maintainer:
    the updates are applied against the shard alone, and the mutated shard plus
    the freed tails (deletion order) are returned.  ``choose_tail`` is the
    stream module's single tail-selection rule — injected rather than
    duplicated, so the stream's batch replay and both kernel backends make
    the exact same decisions.  The group is meant to be proved cap-safe
    first, so an overflow — or an insert/delete that does not match the
    shard — means that proof or the shard extraction is broken, and the
    kernel raises rather than returning a corrupt shard.
    """
    out = {vertex: set(heads) for vertex, heads in shard.items()}
    freed: list[int] = []
    for update in group_updates:
        u, v = update.u, update.v
        if update.is_insert:
            if v in out[u] or u in out[v]:
                raise GraphError(
                    f"insert of already-oriented edge {_canonical(u, v)} "
                    f"without a mid-batch rebuild: orientation drifted from "
                    f"the live edge set"
                )
            tail = choose_tail(u, v, len(out[u]), len(out[v]))
            head = v if tail == u else u
            out[tail].add(head)
            if len(out[tail]) > cap:
                raise GraphError(
                    f"cap overflow at vertex {tail} inside a conflict-free "
                    f"group — the safety precheck is broken"
                )
        else:
            if v in out[u]:
                out[u].discard(v)
                freed.append(u)
            elif u in out[v]:
                out[v].discard(u)
                freed.append(v)
            else:
                raise GraphError(f"edge {_canonical(u, v)} is not oriented")
    return {vertex: sorted(heads) for vertex, heads in out.items()}, freed

"""Vectorized numpy kernels, byte-identical to :mod:`repro.kernels.pure`.

Only imported once :func:`repro.kernels.numpy_available` has confirmed numpy
is importable, so the top-level ``import numpy`` here never breaks a
numpy-less host.

**Zero-copy bridge.**  The CSR core stores every column as an ``array('l')``
— int64 on the platforms we run on — and :func:`np_view` wraps such a buffer
in an ``np.frombuffer`` view without copying.  The rules for these views:

* they alias the source buffer — treat them as **read-only** (kernels that
  need a scratch copy take one explicitly, e.g. the peel's degree vector);
  the one exception is :func:`scatter_layers`, whose contract is to update
  the caller's column in place;
* they are only valid while the source object is alive (the view holds a
  reference, so ordinary usage is safe, but never stash a view beyond the
  life of a shared-memory segment's mapping);
* results that cross back into the CSR core are converted with
  :func:`to_array` (one ``tobytes`` memcpy), so downstream consumers —
  pickling, ``extend``, byte-level identity checks — see exactly the
  ``array('l')`` objects the pure backend produces.

Every kernel here reproduces the pure reference *exactly*: same layers,
heads, tallies and palette columns, same error messages raised on the same
first offender.  The equivalence suite in ``tests/kernels/`` pins this on
randomized inputs.
"""

from __future__ import annotations

from array import array
from itertools import chain
from math import isqrt

import numpy as np

from repro.errors import GraphError, InvalidOrientationError, SimulationError
from repro.kernels import PLACEMENT_MULTIPLIER, pure

# array('l') is int64 on every platform this repo targets (Linux/macOS); the
# dtype is derived rather than hard-coded so a 32-bit ``long`` would still
# round-trip correctly.
_ITEMSIZE = array("l").itemsize
_DTYPE = np.dtype(f"i{_ITEMSIZE}")
# Above this vertex count an edge key ``lo * n + hi`` may overflow the dtype.
_MAX_KEYED_VERTICES = isqrt(int(np.iinfo(_DTYPE).max))


def np_view(column) -> np.ndarray:
    """Zero-copy int view over an ``array('l')`` (or any int64 buffer)."""
    if isinstance(column, np.ndarray):
        return column
    return np.frombuffer(column, dtype=_DTYPE)


def to_array(values: np.ndarray) -> array:
    """Copy a flat numpy vector back into an ``array('l')`` (one memcpy)."""
    out = array("l")
    out.frombytes(np.ascontiguousarray(values, dtype=_DTYPE).tobytes())
    return out


def peel_layers(num_vertices, indptr, indices, threshold, max_rounds):
    """Vectorized frontier peel: bincount decrements + boolean-mask extraction.

    Per round, the frontier's neighbor lists are gathered with one fancy
    index (CSR multi-slice via cumsum/repeat), the per-vertex removal counts
    come from one ``bincount``, and the next frontier is the boolean mask
    ``remaining degree ≤ threshold``.  Stamped vertices keep a stale stored
    degree exactly like the reference (every later read is gated on
    ``layers == 0``), so the resulting layers and round count are identical.
    """
    n = num_vertices
    indptr = np_view(indptr)
    indices = np_view(indices)
    degree = indptr[1:] - indptr[:-1]  # a scratch copy, never a view
    layers = np.zeros(n, dtype=_DTYPE)
    frontier = np.nonzero(degree <= threshold)[0]
    layers[frontier] = 1
    rounds_used = 0
    while frontier.size and (max_rounds is None or rounds_used < max_rounds):
        rounds_used += 1
        starts = indptr[frontier]
        lens = indptr[frontier + 1] - starts
        total = int(lens.sum())
        if total:
            # Gather indices[starts[k] : starts[k] + lens[k]] for every
            # frontier vertex k in one shot.
            cum = np.cumsum(lens) - lens
            gather = np.arange(total, dtype=_DTYPE) + np.repeat(starts - cum, lens)
            neighbors = indices[gather]
            alive = neighbors[layers[neighbors] == 0]
            removals = np.bincount(alive, minlength=n)
            newly = (layers == 0) & (removals > 0) & (degree - removals <= threshold)
            # Stamped vertices take the decrement too (the reference leaves
            # them one step stale instead) — unobservable either way, since
            # a non-zero layer gates every future read.
            degree = degree - removals
            frontier = np.nonzero(newly)[0]
            layers[frontier] = rounds_used + 1
        else:
            frontier = frontier[:0]
    if frontier.size:
        # max_rounds cut the process short; un-assign the queued wave.
        layers[frontier] = 0
    return to_array(layers), rounds_used


def orient_by_rank(edge_u, edge_v, ranks):
    """``np.where`` head flips: point each edge at the higher-ranked endpoint."""
    rank = np.asarray(ranks)
    eu = np_view(edge_u)
    ev = np_view(edge_v)
    # u < v in canonical form, so rank ties resolve toward v.
    return to_array(np.where(rank[eu] <= rank[ev], ev, eu))


def edge_minimum(edge_u, edge_v, column):
    """One ``np.minimum`` of the two endpoint gathers."""
    values = _int_column(column)
    return to_array(np.minimum(values[np_view(edge_u)], values[np_view(edge_v)]))


def draws_below(words, shift, bound):
    """Shift a run of MT words into ``randrange`` candidates and keep those < ``bound``."""
    candidates = np.frombuffer(words, dtype="<u4") >> shift
    return to_array(candidates[candidates < bound])


def split_by_part(labels, num_parts, columns):
    """Stable group-by-part: one stable argsort of the labels, then slices."""
    label = np_view(labels)
    order = np.argsort(label, kind="stable")
    ends = np.cumsum(np.bincount(label, minlength=num_parts)).tolist()
    grouped = [np_view(column)[order] for column in columns]
    parts = []
    start = 0
    for end in ends:
        parts.append(tuple(to_array(column[start:end]) for column in grouped))
        start = end
    return parts


def merge_part_columns(num_vertices, parts):
    """Concatenate the part columns and order them by one stable key argsort."""
    if not parts:
        return array("l"), array("l"), array("l")
    edge_u, edge_v, heads = (
        np.concatenate([np_view(part[i]) for part in parts]) for i in range(3)
    )
    order = np.argsort(edge_u * max(num_vertices, 1) + edge_v, kind="stable")
    return to_array(edge_u[order]), to_array(edge_v[order]), to_array(heads[order])


def tally_outdegrees(num_vertices, edge_u, edge_v, heads):
    """One ``bincount`` over the tail column (+ the reference endpoint check)."""
    eu = np_view(edge_u)
    ev = np_view(edge_v)
    h = np_view(heads)
    to_v = h == ev
    bad = ~(to_v | (h == eu))
    if bad.any():
        i = int(bad.argmax())  # first offender, matching the reference scan
        raise InvalidOrientationError(
            f"edge {(int(eu[i]), int(ev[i]))} oriented toward {int(h[i])}, "
            f"which is not an endpoint"
        )
    tails = np.where(to_v, eu, ev)
    return tuple(np.bincount(tails, minlength=num_vertices).tolist())


def merge_oriented_columns(num_vertices, a_u, a_v, a_heads, b_u, b_v, b_heads):
    """Searchsorted merge of two sorted, disjoint canonical edge column sets.

    Edges are encoded as ``u * n + v`` int64 keys (lexicographic order is
    preserved, and ``n² < 2⁶³`` for any graph this repo can hold), overlap is
    one ``isin``, and each side's merged positions are its own index plus the
    count of smaller keys on the other side — a permutation scatter instead
    of a 2(m_a + m_b)-step python walk.
    """
    au, av, ah = np_view(a_u), np_view(a_v), np_view(a_heads)
    bu, bv, bh = np_view(b_u), np_view(b_v), np_view(b_heads)
    stride = max(num_vertices, 1)
    ka = au * stride + av
    kb = bu * stride + bv
    overlap = int(np.count_nonzero(np.isin(kb, ka, assume_unique=True)))
    if overlap:
        return None, None, None, overlap
    la, lb = ka.size, kb.size
    pos_a = np.arange(la, dtype=_DTYPE) + np.searchsorted(kb, ka)
    pos_b = np.arange(lb, dtype=_DTYPE) + np.searchsorted(ka, kb)
    out_u = np.empty(la + lb, dtype=_DTYPE)
    out_v = np.empty(la + lb, dtype=_DTYPE)
    out_h = np.empty(la + lb, dtype=_DTYPE)
    out_u[pos_a] = au
    out_u[pos_b] = bu
    out_v[pos_a] = av
    out_v[pos_b] = bv
    out_h[pos_a] = ah
    out_h[pos_b] = bh
    return to_array(out_u), to_array(out_v), to_array(out_h), 0


def sum_counts(a, b):
    """Elementwise sum of two equal-length count tuples."""
    if not len(a):
        return ()
    return tuple((np.asarray(a, dtype=_DTYPE) + np.asarray(b, dtype=_DTYPE)).tolist())


def min_value(column):
    """Minimum of a flat column (0 when empty)."""
    view = np_view(column)
    return int(view.min()) if view.size else 0


def max_sizes(collections):
    """Largest ``len()`` across the collections (0 when there are none)."""
    sizes = np.fromiter(map(len, collections), dtype=_DTYPE, count=len(collections))
    return int(sizes.max()) if sizes.size else 0


def sum_sizes(collections):
    """Total ``len()`` across the collections."""
    sizes = np.fromiter(map(len, collections), dtype=_DTYPE, count=len(collections))
    return int(sizes.sum())


def assemble_color_columns(num_vertices, parts):
    """Prefix-sum palette offsets + one scatter per part's color column."""
    column = np.full(num_vertices, -1, dtype=_DTYPE)
    offsets = [0]
    base = 0
    for parents, colors, palette_size in parts:
        if len(parents):
            idx = np.fromiter(parents, dtype=_DTYPE, count=len(parents))
            column[idx] = np_view(colors) + base
        base += int(palette_size)
        offsets.append(base)
    return to_array(column), offsets


def max_value(column):
    """Maximum of a flat column (0 when empty)."""
    view = np_view(column)
    return int(view.max()) if view.size else 0


def count_distinct(column):
    """Number of distinct values in a flat column (one ``np.unique``)."""
    return int(np.unique(np_view(column)).size)


def canonical_edge_columns(num_vertices, edges):
    """Validated canonical edge columns: one flat parse, masks and a key sort.

    The pairs are materialised once and must all have ``len() == 2``; their
    ids are parsed by one flat ``np.fromiter``, which converts each element
    with ``int()`` exactly like the reference.  Range and self-loop masks,
    then adjacent equal keys after the in-place sort, detect every offence
    at once but not which edge offends first in input order.  So any
    anomaly — an iteration or conversion error, a value beyond int64, a
    mask hit or a duplicate — hands the materialised pairs to the pure body,
    which raises the reference error on the reference offender.
    """
    n = num_vertices
    pairs: list = []
    try:
        pairs.extend(edges)
    except Exception as error:
        failure = error
    else:
        failure = None
    if failure is not None:
        # The iterable broke part-way; the old loop would first have raised
        # on an offending edge of the prefix it had already consumed.
        pure.canonical_edge_columns(n, pairs)
        raise failure
    if n > _MAX_KEYED_VERTICES:
        return pure.canonical_edge_columns(n, pairs)
    try:
        # Empty input and wrong arity go to the pure body too.
        if set(map(len, pairs)) != {2}:
            return pure.canonical_edge_columns(n, pairs)
        flat = np.fromiter(chain.from_iterable(pairs), _DTYPE, count=2 * len(pairs))
    except Exception:
        # Whatever ``len()`` or ``int()`` raised here, the pure body's
        # unpacking and ``int()`` raise it again on the first offender.
        return pure.canonical_edge_columns(n, pairs)
    lo = np.minimum(flat[0::2], flat[1::2])
    hi = np.maximum(flat[0::2], flat[1::2])
    if lo.min() < 0 or hi.max() >= n or (lo == hi).any():
        return pure.canonical_edge_columns(n, pairs)
    keys = lo * n
    keys += hi
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return pure.canonical_edge_columns(n, pairs)
    return to_array(keys // n), to_array(keys % n)


def build_csr(num_vertices, edge_u, edge_v):
    """CSR adjacency ``(indptr, indices)`` — vectorized symmetric scatter.

    Doubling the canonical edge list to ``(u→v, v→u)`` and stable-sorting
    by (source, neighbor) puts every vertex's neighbors in one contiguous
    ascending run — exactly the pure layout, whose [smaller asc | larger
    asc] slices are fully ascending because edges are stored sorted.
    """
    n = num_vertices
    u = np_view(edge_u)
    v = np_view(edge_v)
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # (src, dst) pairs are unique (simple graph), so one sort of the fused
    # key src * n + dst — collision-free since dst < n — orders them fully.
    order = np.argsort(src * n + dst) if n else np.empty(0, dtype=np.int64)
    return to_array(indptr), to_array(dst[order])


def induced_edge_columns(num_vertices, indptr, indices, kept):
    """One gather of the kept rows, masked to the kept heads above their row."""
    rows = _int_column(kept)
    local_of = np.full(num_vertices, -1, dtype=_DTYPE)
    local_of[rows] = np.arange(rows.size, dtype=_DTYPE)
    positions, lens = _gather_rows(np_view(indptr), rows)
    heads = np_view(indices)[positions]
    keep = heads > np.repeat(rows, lens)
    keep[keep] = local_of[heads[keep]] >= 0
    tails = np.repeat(np.arange(rows.size, dtype=_DTYPE), lens)
    return to_array(tails[keep]), to_array(local_of[heads[keep]])


def encode_edge_keys(num_vertices, edge_u, edge_v):
    """Sorted ``u * stride + v`` edge keys (see the pure reference)."""
    stride = max(num_vertices, 1)
    return to_array(np_view(edge_u) * stride + np_view(edge_v))


def first_monochrome(colors, us, vs, start):
    """First monochromatic edge at index ≥ ``start``: one gather + compare."""
    c = np_view(colors)
    u = np_view(us)[start:]
    v = np_view(vs)[start:]
    if not u.size:
        return -1
    same = c[u] == c[v]
    i = int(same.argmax())
    return start + i if same[i] else -1


def compact_journal(num_vertices, base_u, base_v, added_keys, removed_keys):
    """Vectorized overlay merge (see the pure reference for the semantics).

    The tombstones are located in the base keys by one ``searchsorted``
    (O(r log m) for r tombstones, both columns ascending) and masked out;
    the additions then go in by the same searchsorted permutation scatter
    as :func:`merge_oriented_columns`.
    """
    if not len(added_keys) and not len(removed_keys):
        return array("l", base_u), array("l", base_v)
    eu, ev = np_view(base_u), np_view(base_v)
    stride = max(num_vertices, 1)
    base_keys = eu * stride + ev
    keep = np.ones(base_keys.size, dtype=bool)
    keep[np.searchsorted(base_keys, np_view(removed_keys))] = False
    kept_keys = base_keys[keep]
    kept_u = eu[keep]
    kept_v = ev[keep]
    additions = np_view(added_keys)
    added_u = additions // stride
    added_v = additions % stride
    nk, na = kept_keys.size, additions.size
    pos_kept = np.arange(nk, dtype=_DTYPE) + np.searchsorted(additions, kept_keys)
    pos_added = np.arange(na, dtype=_DTYPE) + np.searchsorted(kept_keys, additions)
    out_u = np.empty(nk + na, dtype=_DTYPE)
    out_v = np.empty(nk + na, dtype=_DTYPE)
    out_u[pos_kept] = kept_u
    out_u[pos_added] = added_u
    out_v[pos_kept] = kept_v
    out_v[pos_added] = added_v
    return to_array(out_u), to_array(out_v)


def _sorted_member(sorted_keys, queries):
    """Boolean membership of ``queries`` in an ascending key column."""
    if not sorted_keys.size:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, queries), sorted_keys.size - 1)
    return sorted_keys[pos] == queries


def validate_batch(num_vertices, ops, us, vs, base_keys, added_keys, removed_keys):
    """Vectorized batch pre-validation, byte-identical to the pure reference.

    The range check is one boolean mask.  Liveness groups the batch by edge
    key with a stable argsort: the first occurrence of a key is judged
    against the published key columns, every later occurrence against its
    predecessor's op — the vectorized form of the reference's ``pending``
    dict.  The reported offender is the *smallest* violating index across
    both checks.  A range-violating update produces a garbage key, but it
    cannot corrupt the offender choice: every index before the first range
    violation carries a valid key (garbage keys can only distort groups at
    strictly larger indices, which the min never selects).
    """
    if not len(ops):
        return
    n = num_vertices
    u = np_view(us)
    v = np_view(vs)
    op = np_view(ops)
    bad_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    range_index = int(bad_range.argmax()) if bad_range.any() else None
    stride = max(n, 1)
    keys = np.minimum(u, v) * stride + np.maximum(u, v)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_ops = op[order]
    first = np.empty(sorted_keys.size, dtype=bool)
    first[0] = True
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    base_live = _sorted_member(np_view(added_keys), sorted_keys) | (
        _sorted_member(np_view(base_keys), sorted_keys)
        & ~_sorted_member(np_view(removed_keys), sorted_keys)
    )
    prev_live = np.empty(sorted_keys.size, dtype=bool)
    prev_live[0] = False
    prev_live[1:] = sorted_ops[:-1] == 1
    live = np.where(first, base_live, prev_live)
    violation = ((sorted_ops == 1) & live) | ((sorted_ops == 0) & ~live)
    live_index = int(order[violation].min()) if violation.any() else None
    if range_index is None and live_index is None:
        return
    if live_index is None or (range_index is not None and range_index < live_index):
        i = range_index
        raise GraphError(
            f"batch update #{i}: edge ({int(u[i])}, {int(v[i])}) "
            f"references a vertex outside 0..{n - 1}"
        )
    i = live_index
    e = _canonical(int(u[i]), int(v[i]))
    if int(op[i]) == 1:
        raise GraphError(f"batch update #{i}: insert of live edge {e}")
    raise GraphError(f"batch update #{i}: delete of dead edge {e}")


def _int_column(values) -> np.ndarray:
    """An int64 vector over a ``range``, an ``array('l')`` (zero-copy) or
    any other int sequence."""
    if isinstance(values, range):
        return np.arange(values.start, values.stop, values.step, dtype=_DTYPE)
    if isinstance(values, array) and values.typecode == "l":
        return np_view(values)
    return np.asarray(values, dtype=_DTYPE)


def tally_by_machine(num_machines, keys, words):
    """Words per machine as one ``bincount`` over the placement hash.

    The placement must equal :func:`repro.kernels.machine_of`.  Each key is
    reduced mod ``num_machines`` before the multiply, so the product stays
    below ``num_machines²`` and no int64 key overflows.  Word columns are
    summed with an integer ``np.add.at``, keeping totals exact at any size.
    """
    machines = _int_column(keys) % num_machines
    machines *= PLACEMENT_MULTIPLIER % num_machines
    machines %= num_machines
    counts = np.bincount(machines, minlength=num_machines)
    if isinstance(words, int):
        if words < 0 and machines.size:
            raise SimulationError("message size must be non-negative")
        totals = counts * words
    else:
        sizes = _int_column(words)
        if sizes.size and sizes.min() < 0:
            raise SimulationError("message size must be non-negative")
        totals = np.zeros(num_machines, dtype=_DTYPE)
        np.add.at(totals, machines, sizes)
    touched = np.flatnonzero(counts)
    return touched.tolist(), totals[touched].tolist()


def unassigned_positions(column):
    """One ``flatnonzero`` over the ``column < 1`` mask."""
    return to_array(np.flatnonzero(np_view(column) < 1))


def scatter_layers(column, parent_ids, local, offset):
    """One masked fancy-index write through a view of ``column``.

    The only kernel that writes through :func:`np_view`: ``column`` is the
    caller's mutable ``array('l')``, updated in place like the reference.
    """
    layers = np_view(local)
    assigned = np.flatnonzero(layers)
    if assigned.size:
        parents = np.asarray(parent_ids, dtype=_DTYPE)
        np_view(column)[parents[assigned]] = layers[assigned] + offset
    return int(assigned.size)


def _gather_rows(indptr, rows):
    """Positions of the CSR entries of ``rows``, row after row, and the
    row lengths."""
    begins = indptr[rows]
    lens = indptr[rows + 1] - begins
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    positions = np.arange(total, dtype=_DTYPE) + np.repeat(begins - (ends - lens), lens)
    return positions, lens


def directed_out_csr(num_vertices, indptr, indices, layer_of):
    """One mask ``layer[w] ≥ layer[u]`` over the CSR entries, then a
    ``bincount`` of the kept entries' rows."""
    ptr = np_view(indptr)
    nbr = np_view(indices)
    layer = _int_column(layer_of)
    rows = np.repeat(np.arange(num_vertices, dtype=_DTYPE), ptr[1:] - ptr[:-1])
    keep = layer[nbr] >= layer[rows]
    out_indptr = np.zeros(num_vertices + 1, dtype=_DTYPE)
    np.cumsum(np.bincount(rows[keep], minlength=num_vertices), out=out_indptr[1:])
    return to_array(out_indptr), to_array(nbr[keep])


def row_lengths(indptr):
    """One ``np.diff``."""
    return to_array(np.diff(np_view(indptr)))


# Starts per block of the reachability expansion: ``block · n`` cells bound
# the dense seen table, one byte per cell.
_REACH_BLOCK_CELLS = 1 << 24


def _reach_block(indptr, indices, n, starts, max_distance, cap, seen, mark):
    """Level-synchronous BFS of one block of starts, one frontier row per
    start at a time; returns the set sizes and the kept vertices.

    Start ``slot`` of the block owns the cells ``slot * n + vertex`` of the
    dense ``seen`` table; a cell is seen when it holds ``mark``, which no
    cell holds on entry.  A level's
    frontier is stored start by start: ``frontier[offsets[s] : offsets[s] +
    counts[s]]`` in BFS order.  Round ``r`` of a level expands the ``r``-th
    frontier row of every start that has one and still has room.  A round
    takes at most one row per start and a row lists distinct vertices, so no
    round reaches a cell twice, and the seen table alone keeps BFS order
    (frontier order, then CSR order).  A start keeps the first unseen
    vertices of the row that fills its ``cap`` and never expands the rows
    after it.
    """
    b = starts.size
    base = np.arange(b, dtype=_DTYPE) * n
    seen[base + starts] = mark
    sizes = np.ones(b, dtype=_DTYPE)
    kept = [starts]
    frontier, offsets, counts = starts, np.arange(b, dtype=_DTYPE), np.ones(b, dtype=_DTYPE)
    for _level in range(max_distance):
        row_begins = indptr[frontier]
        row_lens = indptr[frontier + 1] - row_begins
        entries = np.concatenate(([0], np.cumsum(row_lens)))
        # A start adds at most its budget, and at most one vertex per entry.
        room = np.minimum(cap - sizes, entries[offsets + counts] - entries[offsets])
        found_at = np.cumsum(room) - room
        found = np.empty(int(room.sum()), dtype=_DTYPE)
        added = np.zeros(b, dtype=_DTYPE)
        r = 0
        while True:
            active = np.flatnonzero((counts > r) & (added < room))
            if not active.size:
                break
            at = offsets[active] + r
            lens = row_lens[at]
            row_ends = np.cumsum(lens)
            row_starts = row_ends - lens
            positions = np.arange(int(row_ends[-1]), dtype=_DTYPE) + np.repeat(
                row_begins[at] - row_starts, lens
            )
            vertices = indices[positions]
            cells = np.repeat(base[active], lens) + vertices
            fresh = seen[cells] != mark
            # ``run[i + 1]``: fresh entries up to entry i; a row keeps its
            # fresh entries while their rank in the row is within ``left``.
            run = np.zeros(cells.size + 1, dtype=_DTYPE)
            np.cumsum(fresh, out=run[1:])
            before = run[row_starts]
            left = room[active] - added[active]
            keep = fresh & (run[1:] <= np.repeat(before + left, lens))
            got = np.minimum(run[row_ends] - before, left)
            seen[cells[keep]] = mark
            vertices = vertices[keep]
            at_row = found_at[active] + added[active] - 1 - before
            found[np.repeat(at_row, got) + run[1:][keep]] = vertices
            added[active] += got
            kept.append(vertices)
            r += 1
        sizes += added
        # A full start expands no further.
        counts = np.where(sizes < cap, added, 0)
        offsets = np.cumsum(counts) - counts
        frontier = found[
            np.arange(int(counts.sum()), dtype=_DTYPE) + np.repeat(found_at - offsets, counts)
        ]
    return sizes, np.concatenate(kept)


def reach_counts(out_indptr, out_indices, starts, max_distance, set_size_limit):
    """Frontier expansion of a block of starts at once, one row per start
    per round.

    Each round gathers one out-row per start, drops the pairs already in the
    block's dense seen table, and ranks the rest inside their row with one
    ``cumsum``, so a start's truncation at its cap happens inside the row
    that fills it.  ``hits`` is one ``bincount`` of the kept vertices per
    block.
    """
    indptr = np_view(out_indptr)
    indices = np_view(out_indices)
    n = indptr.size - 1
    start_column = _int_column(starts)
    cap = n + 1 if set_size_limit is None else set_size_limit + 1
    block = max(1, _REACH_BLOCK_CELLS // max(n, 1))
    seen = np.zeros(min(block, start_column.size) * n, dtype=np.uint8)
    hits = np.zeros(n, dtype=_DTYPE)
    sizes = [np.zeros(0, dtype=_DTYPE)]
    for index, lo in enumerate(range(0, start_column.size, block)):
        # Block k marks its cells k mod 255 + 1, so the table is cleared once
        # every 255 blocks rather than after each one.
        mark = index % 255 + 1
        if mark == 1 and index:
            seen.fill(0)
        block_sizes, kept = _reach_block(
            indptr, indices, n, start_column[lo : lo + block], max_distance, cap, seen, mark
        )
        hits += np.bincount(kept, minlength=n)
        sizes.append(block_sizes)
    return to_array(np.concatenate(sizes)), to_array(hits)


def layer_palettes(members, out_indptr, out_indices, colors, palette_base, palette_size):
    """One gather of the members' out-rows into an ``available[member, colour]``
    mask, read back row-major and cut into one list per member."""
    rows = _int_column(members)
    if not rows.size:
        return []
    positions, lens = _gather_rows(np_view(out_indptr), rows)
    member = np.repeat(np.arange(rows.size, dtype=_DTYPE), lens)
    color = np_view(colors)[np_view(out_indices)[positions]]
    taken = color - palette_base
    hit = (color >= 0) & (taken >= 0) & (taken < palette_size)
    available = np.ones((rows.size, palette_size), dtype=bool)
    available[member[hit], taken[hit]] = False
    free = np.nonzero(available)[1]
    flat = (free + palette_base).tolist()
    ends = np.cumsum(available.sum(axis=1)).tolist()
    return [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _canonical(u, v):
    return (u, v) if u < v else (v, u)


def flip_repair_group(shard, group_updates, cap, choose_tail):
    """Sharded group replay over sorted head vectors.

    The per-update decision sequence is inherently serial (each tail choice
    depends on the outdegrees the previous updates produced), so the loop
    structure matches the reference; the data movement around it — shard
    decode, membership tests (``searchsorted`` on sorted vectors), head
    insertion/removal, and the final sorted-list encode — is numpy.  Output
    (including error messages) is byte-identical to the pure kernel.
    """
    out = {
        vertex: np.asarray(heads, dtype=_DTYPE)
        for vertex, heads in shard.items()
    }
    freed: list[int] = []

    def contains(arr, x):
        i = int(np.searchsorted(arr, x))
        return i < arr.size and arr[i] == x, i

    for update in group_updates:
        u, v = update.u, update.v
        if update.is_insert:
            v_in_u, _ = contains(out[u], v)
            u_in_v, _ = contains(out[v], u)
            if v_in_u or u_in_v:
                raise GraphError(
                    f"insert of already-oriented edge {_canonical(u, v)} "
                    f"without a mid-batch rebuild: orientation drifted from "
                    f"the live edge set"
                )
            tail = choose_tail(u, v, out[u].size, out[v].size)
            head = v if tail == u else u
            arr = out[tail]
            pos = int(np.searchsorted(arr, head))
            out[tail] = np.insert(arr, pos, head)
            if out[tail].size > cap:
                raise GraphError(
                    f"cap overflow at vertex {tail} inside a conflict-free "
                    f"group — the safety precheck is broken"
                )
        else:
            v_in_u, pos_u = contains(out[u], v)
            if v_in_u:
                out[u] = np.delete(out[u], pos_u)
                freed.append(u)
            else:
                u_in_v, pos_v = contains(out[v], u)
                if u_in_v:
                    out[v] = np.delete(out[v], pos_v)
                    freed.append(v)
                else:
                    raise GraphError(f"edge {_canonical(u, v)} is not oriented")
    return {vertex: arr.tolist() for vertex, arr in out.items()}, freed

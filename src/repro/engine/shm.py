"""Shared-memory graph shards: publish once, ship descriptors per superstep.

PR 4's bench notes put ~93% of parallel-coloring wall-clock in the fan-out:
every process-backend ``ParallelExecutor.map`` re-pickled CSR columns and
part payloads into a fresh task, even though the underlying graph barely
changes between supersteps.  This module is the fix's
data plane: graph shards are *published* into named
:mod:`multiprocessing.shared_memory` segments exactly once per generation,
and per-superstep tasks ship only a tiny :class:`ShardHandle` descriptor
(registry id, key, generation, segment name) plus their deltas.

Design:

* :class:`ShardRegistry` — the owner-side table of published shards.  Every
  entry is ``key -> (generation, objects, lazy columns)``.  ``publish``
  bumps the key's generation and *retires* (unlinks) the previous segment,
  so a handle from an earlier generation can never read republished data —
  it fails with a typed :class:`~repro.errors.StaleShardError` instead.
* **Lazy materialisation.**  Publishing stores the in-process objects and a
  column *builder*; the actual shared-memory segment is only created when a
  process-backend map needs it (:meth:`ShardRegistry.ensure_shared`).  The
  serial backend therefore pays nothing: :func:`attach` resolves its handles
  to the original objects, zero-copy, through the same code path the workers
  use.
* **Worker-side attach cache.**  A worker process attaches each segment once
  (cached by segment name, which embeds the generation) and rebuilds its
  shard objects once per ``(key, generation, index)`` — repeated supersteps
  over an unchanged graph cost only the descriptor pickle.  Republishing a
  key evicts the worker's stale cache entries for it on next attach.
* **Leak safety.**  Every segment this process creates is tracked in a
  module-level table and unlinked by :meth:`ShardRegistry.close`, by a
  ``weakref`` finalizer, and by an ``atexit`` hook — all guarded by the
  creating pid, so a forked worker exiting can never unlink its parent's
  live segments.  A crashed owner still gets its segments reclaimed by the
  stdlib resource tracker.

Segment layout: ``[8-byte little-endian header length][pickled header][raw
column bytes]`` where the header lists ``(column name, byte offset, item
count)`` triples plus small picklable metadata.  Columns are flat
``array('l')`` buffers — the same representation the CSR core uses — so a
worker slice is a single ``frombytes`` memcpy, not element-wise pickling.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import struct
import weakref
from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.errors import GraphError, StaleShardError
from repro.obs.metrics import NULL_METRICS

_ITEMSIZE = array("l").itemsize
_HEADER_LEN = struct.Struct("<Q")

# Owner-side registries reachable for zero-copy in-process resolution.  Keyed
# by registry uid; weak so a dropped registry (plus its finalizer) is not kept
# alive by the lookup table.
_REGISTRIES: "weakref.WeakValueDictionary[str, ShardRegistry]" = weakref.WeakValueDictionary()

# Every segment created by *this* process: name -> SharedMemory.  The atexit
# sweep unlinks whatever a crashed/forgotten owner left behind.  Guarded by
# pid: a forked worker inherits this table but must never unlink through it.
_OWNED_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_OWNER_PID = os.getpid()

_uid_counter = itertools.count(1)


def _sweep_owned_segments() -> None:  # pragma: no cover - exercised via subprocess
    if os.getpid() != _OWNER_PID:
        return
    for segment in list(_OWNED_SEGMENTS.values()):
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:
            pass
    _OWNED_SEGMENTS.clear()


atexit.register(_sweep_owned_segments)


def _unlink_segments(names: list[str]) -> None:
    """Finalizer body shared by ``close`` and the weakref safety net."""
    if os.getpid() != _OWNER_PID:  # forked child: not the owner, never unlink
        return
    for name in names:
        segment = _OWNED_SEGMENTS.pop(name, None)
        if segment is None:
            continue
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
    names.clear()


@dataclass(frozen=True)
class ShardHandle:
    """A picklable descriptor of one published shard generation.

    This is everything a per-superstep task ships about its resident input:
    a few dozen bytes, regardless of the shard's size.  ``segment_name``
    embeds the generation, so worker-side caches keyed by it can never serve
    data from a different generation.
    """

    registry_uid: str
    key: str
    generation: int
    segment_name: str
    kind: str

    def __repr__(self) -> str:
        return f"ShardHandle({self.key!r}@g{self.generation}, kind={self.kind!r})"


class _Entry:
    """Owner-side state of one key's current generation."""

    __slots__ = ("generation", "kind", "objects", "build_columns", "meta", "shared")

    def __init__(self, generation, kind, objects, build_columns, meta):
        self.generation = generation
        self.kind = kind
        self.objects = objects
        self.build_columns = build_columns  # () -> dict[str, array]
        self.meta = meta
        self.shared = False


class ShardView:
    """What :func:`attach` returns: either the owner's objects or the columns.

    Exactly one of ``objects`` (in-process, zero-copy) and ``columns``
    (worker-side, rebuilt from the segment buffer) is set; ``meta`` is always
    available.  Consumers go through the ``shard_*`` accessors below, which
    is what keeps one code path across both backends.
    """

    __slots__ = ("objects", "columns", "meta", "_segment")

    def __init__(self, objects=None, columns=None, meta=None, segment=None):
        self.objects = objects
        self.columns = columns
        self.meta = meta or {}
        self._segment = segment  # keeps the worker's mapping alive


class ShardRegistry:
    """Publishes shards; owner of the named segments and their lifecycle."""

    def __init__(self) -> None:
        self.uid = f"{os.getpid() % 100000:x}x{next(_uid_counter):x}"
        self._pid = os.getpid()
        self._entries: dict[str, _Entry] = {}
        self._segment_names: list[str] = []
        self._finalizer = weakref.finalize(self, _unlink_segments, self._segment_names)
        self.metrics = NULL_METRICS
        # Plain lifetime counters (metrics-independent, surfaced by stats()).
        self.publishes = 0
        self.invalidations = 0
        _REGISTRIES[self.uid] = self

    def instrument(self, metrics) -> None:
        """Attach a metrics registry (owner-side counters only).

        Worker-side segment attaches happen in other processes that cannot
        reach this object, so they are deliberately not counted here; the
        owner-side figures (publishes, materialisations and their bytes,
        zero-copy resolutions, retirements) describe what this registry
        shipped versus shared in place.
        """
        self.metrics = NULL_METRICS if metrics is None else metrics

    # ------------------------------------------------------------------ #
    # Publication
    # ------------------------------------------------------------------ #

    def publish(
        self,
        key: str,
        objects,
        build_columns,
        meta: dict | None = None,
        kind: str = "columns",
    ) -> ShardHandle:
        """Publish (or republish) a shard set under ``key``.

        ``objects`` is what in-process consumers read zero-copy;
        ``build_columns`` is a zero-argument callable producing the flat
        ``array('l')`` columns — evaluated only if a process-backend map
        materialises the segment.  Republishing bumps the generation and
        unlinks the previous segment, so outstanding handles go stale.
        """
        previous = self._entries.get(key)
        generation = previous.generation + 1 if previous is not None else 1
        if previous is not None:
            self._retire_segment(self._segment_name(key, previous.generation))
        entry = _Entry(generation, kind, objects, build_columns, dict(meta or {}))
        self._entries[key] = entry
        self.publishes += 1
        self.metrics.inc("shm.publishes")
        return ShardHandle(
            registry_uid=self.uid,
            key=key,
            generation=generation,
            segment_name=self._segment_name(key, generation),
            kind=kind,
        )

    def invalidate(self, key: str) -> None:
        """Retire a key: unlink its segment and stale every outstanding handle.

        Idempotent; unknown keys are a no-op.  The next :meth:`publish` of
        the key continues the generation sequence (it never reuses a retired
        generation, so a stale handle can never accidentally resolve again).
        """
        entry = self._entries.get(key)
        if entry is None:
            return
        self._retire_segment(self._segment_name(key, entry.generation))
        self.invalidations += 1
        self.metrics.inc("shm.invalidations")
        # Keep a tombstone carrying the generation counter forward.
        entry.objects = None
        entry.build_columns = None
        entry.shared = False

    def stats(self) -> dict[str, int]:
        """Owner-side lifetime counters plus current table sizes."""
        return {
            "keys": len(self._entries),
            "generations": sum(entry.generation for entry in self._entries.values()),
            "segments": len(self._segment_names),
            "publishes": self.publishes,
            "invalidations": self.invalidations,
        }

    def ensure_shared(self, handle: ShardHandle) -> None:
        """Materialise the segment for ``handle`` (no-op if already shared).

        Called by the pool right before a process-backend map; serial maps
        never reach it, which is what makes publication free in-process.
        """
        entry = self._current_entry(handle)
        if entry.shared:
            return
        if entry.build_columns is None:
            raise StaleShardError(handle.key, handle.generation, "invalidated")
        columns = entry.build_columns()
        header_entries = []
        offset = 0
        for name, column in columns.items():
            if not isinstance(column, array) or column.typecode != "l":
                raise GraphError(
                    f"shard column {name!r} must be an array('l'), got {type(column)!r}"
                )
            header_entries.append((name, offset, len(column)))
            offset += len(column) * _ITEMSIZE
        header = pickle.dumps(
            {"columns": header_entries, "meta": entry.meta, "kind": entry.kind},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        total = _HEADER_LEN.size + len(header) + offset
        segment = shared_memory.SharedMemory(
            name=handle.segment_name, create=True, size=max(total, 1)
        )
        _OWNED_SEGMENTS[segment.name] = segment
        self._segment_names.append(segment.name)
        buf = segment.buf
        buf[: _HEADER_LEN.size] = _HEADER_LEN.pack(len(header))
        buf[_HEADER_LEN.size : _HEADER_LEN.size + len(header)] = header
        base = _HEADER_LEN.size + len(header)
        for (name, col_offset, _count), column in zip(header_entries, columns.values()):
            raw = column.tobytes()
            buf[base + col_offset : base + col_offset + len(raw)] = raw
        entry.shared = True
        self.metrics.inc("shm.segments_materialised")
        self.metrics.inc("shm.bytes_shipped", total)

    # ------------------------------------------------------------------ #
    # Resolution (owner side)
    # ------------------------------------------------------------------ #

    def view(self, handle: ShardHandle) -> ShardView:
        """Zero-copy view of the owner's objects (generation-checked)."""
        entry = self._current_entry(handle)
        if entry.objects is None:
            raise StaleShardError(handle.key, handle.generation, "invalidated")
        self.metrics.inc("shm.zero_copy_views")
        return ShardView(objects=entry.objects, meta=entry.meta)

    def _current_entry(self, handle: ShardHandle) -> _Entry:
        entry = self._entries.get(handle.key)
        if entry is None:
            raise StaleShardError(handle.key, handle.generation, "unknown key")
        if entry.generation != handle.generation:
            raise StaleShardError(
                handle.key,
                handle.generation,
                f"republished as generation {entry.generation}",
            )
        return entry

    def _segment_name(self, key: str, generation: int) -> str:
        # Short and unique per (process, registry, key, generation); the
        # generation in the name is what staleness detection keys off.
        safe_key = "".join(ch if ch.isalnum() else "-" for ch in key)
        return f"rp{self.uid}-{safe_key}-g{generation}"

    def _retire_segment(self, name: str) -> None:
        segment = _OWNED_SEGMENTS.pop(name, None)
        if segment is not None:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already reclaimed
                pass
            self.metrics.inc("shm.segments_evicted")
        if name in self._segment_names:
            self._segment_names.remove(name)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def segment_names(self) -> tuple[str, ...]:
        """Names of the segments currently materialised by this registry."""
        return tuple(self._segment_names)

    def generations(self) -> dict[str, int]:
        """Current generation per published key (tombstones included)."""
        return {key: entry.generation for key, entry in self._entries.items()}

    def close(self) -> None:
        """Unlink every materialised segment and drop all entries (idempotent)."""
        _unlink_segments(self._segment_names)
        self._entries.clear()

    def __enter__(self) -> "ShardRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardRegistry(uid={self.uid!r}, keys={sorted(self._entries)}, "
            f"segments={len(self._segment_names)})"
        )


# ---------------------------------------------------------------------- #
# Attachment (both sides)
# ---------------------------------------------------------------------- #

# Worker-side caches.  Segments are cached by name (which embeds the
# generation); rebuilt shard objects are cached per (registry, key) with the
# generation they belong to, so a republish evicts exactly the stale entries.
# ``_LATEST_SEGMENT`` remembers the last segment attached per (registry, key)
# so the previous generation's mapping is closed instead of accumulating one
# dead mapping per republish.
_ATTACHED_SEGMENTS: dict[str, ShardView] = {}
_OBJECT_CACHE: dict[tuple[str, str], tuple[int, dict]] = {}
_LATEST_SEGMENT: dict[tuple[str, str], str] = {}


def _attach_segment(handle: ShardHandle) -> ShardView:
    cached = _ATTACHED_SEGMENTS.get(handle.segment_name)
    if cached is not None:
        return cached
    try:
        segment = shared_memory.SharedMemory(name=handle.segment_name)
    except FileNotFoundError:
        raise StaleShardError(
            handle.key, handle.generation, "segment retired or never materialised"
        ) from None
    # The worker only *attaches*.  Under fork the workers share the parent's
    # resource-tracker process and its cache is a set, so the attach-side
    # re-registration is a no-op — ownership stays with the publisher, which
    # is the only side that ever calls ``unlink``.
    buf = segment.buf
    (header_len,) = _HEADER_LEN.unpack(bytes(buf[: _HEADER_LEN.size]))
    header = pickle.loads(bytes(buf[_HEADER_LEN.size : _HEADER_LEN.size + header_len]))
    base = _HEADER_LEN.size + header_len
    columns: dict[str, tuple[int, int]] = {
        name: (base + offset, count) for name, offset, count in header["columns"]
    }
    view = ShardView(columns=columns, meta=header["meta"], segment=segment)
    _ATTACHED_SEGMENTS[handle.segment_name] = view
    # Evict cached objects and the previous generation's mapping for this
    # key — a republish means they can never be read again.
    cache_key = (handle.registry_uid, handle.key)
    cached_objects = _OBJECT_CACHE.get(cache_key)
    if cached_objects is not None and cached_objects[0] != handle.generation:
        del _OBJECT_CACHE[cache_key]
    previous_name = _LATEST_SEGMENT.get(cache_key)
    if previous_name is not None and previous_name != handle.segment_name:
        stale = _ATTACHED_SEGMENTS.pop(previous_name, None)
        if stale is not None and stale._segment is not None:
            try:  # pragma: no cover - platform mapping teardown
                stale._segment.close()
            except BufferError:
                pass
    _LATEST_SEGMENT[cache_key] = handle.segment_name
    return view


def attach(handle: ShardHandle) -> ShardView:
    """Resolve a handle to its shard data — one code path for every backend.

    In the owning process (the serial backend, or the parent folding
    results) this returns the registry's original objects zero-copy; in a
    worker process it attaches the named segment (cached) and returns its
    column table.  Raises :class:`~repro.errors.StaleShardError` when the
    generation was republished or invalidated on either side.
    """
    registry = _REGISTRIES.get(handle.registry_uid)
    if registry is not None and registry._pid == os.getpid():
        return registry.view(handle)
    return _attach_segment(handle)


def _column_slice(view: ShardView, name: str, start: int, stop: int) -> array:
    """Copy ``column[start:stop]`` out of an attached segment (one memcpy)."""
    byte_base, count = view.columns[name]
    if not (0 <= start <= stop <= count):
        raise GraphError(f"column {name!r} slice {start}:{stop} outside 0..{count}")
    out = array("l")
    out.frombytes(
        bytes(view._segment.buf[byte_base + start * _ITEMSIZE : byte_base + stop * _ITEMSIZE])
    )
    return out


def _column_value(view: ShardView, name: str, index: int) -> int:
    byte_base, count = view.columns[name]
    if not (0 <= index < count):
        raise GraphError(f"column {name!r} index {index} outside 0..{count - 1}")
    return _column_slice(view, name, index, index + 1)[0]


# ---------------------------------------------------------------------- #
# Graph-part shards (Lemma 2.1 edge parts / Lemma 2.2 vertex parts)
# ---------------------------------------------------------------------- #


def publish_edge_parts(registry: ShardRegistry, key: str, num_vertices: int, parts) -> ShardHandle:
    """Publish Lemma 2.1 edge-partition parts (graphs on a shared vertex set).

    The segment holds the parts' canonical edge columns concatenated, plus a
    part-offset column; a worker rebuilds part ``i`` from two column slices.
    """
    parts = list(parts)

    def build_columns() -> dict[str, array]:
        edge_u = array("l")
        edge_v = array("l")
        offsets = array("l", [0])
        for part in parts:
            edge_u.extend(part._edge_u)
            edge_v.extend(part._edge_v)
            offsets.append(len(edge_u))
        return {"edge_u": edge_u, "edge_v": edge_v, "offsets": offsets}

    return registry.publish(
        key,
        objects=parts,
        build_columns=build_columns,
        meta={"num_vertices": int(num_vertices), "num_parts": len(parts)},
        kind="edge-parts",
    )


def publish_vertex_parts(registry: ShardRegistry, key: str, parts) -> ShardHandle:
    """Publish Lemma 2.2 vertex-partition parts (induced subgraphs).

    Beyond the edge columns, each part's local-to-parent id map travels as a
    third concatenated column — the payload that dominated the re-pickle cost
    of the old fan-out (a tuple of Python ints per part, per superstep).
    """
    parts = list(parts)

    def build_columns() -> dict[str, array]:
        edge_u = array("l")
        edge_v = array("l")
        parents = array("l")
        edge_offsets = array("l", [0])
        vertex_offsets = array("l", [0])
        for part in parts:
            edge_u.extend(part._edge_u)
            edge_v.extend(part._edge_v)
            parents.extend(part.parent_ids)
            edge_offsets.append(len(edge_u))
            vertex_offsets.append(len(parents))
        return {
            "edge_u": edge_u,
            "edge_v": edge_v,
            "parents": parents,
            "edge_offsets": edge_offsets,
            "vertex_offsets": vertex_offsets,
        }

    return registry.publish(
        key,
        objects=parts,
        build_columns=build_columns,
        meta={"num_parts": len(parts)},
        kind="vertex-parts",
    )


def shard_graph(handle: ShardHandle, index: int):
    """Part ``index`` of a published graph partition — any backend.

    Owner side: the original part object, zero-copy.  Worker side: rebuilt
    from the segment's column slices and cached per ``(key, generation,
    index)``, so repeated supersteps over an unchanged publication pay only
    the descriptor.
    """
    view = attach(handle)
    if view.objects is not None:
        return view.objects[index]
    cache_key = (handle.registry_uid, handle.key)
    generation_objects = _OBJECT_CACHE.get(cache_key)
    if generation_objects is None or generation_objects[0] != handle.generation:
        generation_objects = (handle.generation, {})
        _OBJECT_CACHE[cache_key] = generation_objects
    cached = generation_objects[1].get(index)
    if cached is not None:
        return cached
    # Imported here so repro.engine stays import-light for non-graph users.
    from repro.graph.graph import Graph, _rebuild_induced_subgraph

    if handle.kind == "edge-parts":
        start = _column_value(view, "offsets", index)
        stop = _column_value(view, "offsets", index + 1)
        part = Graph._from_columns(
            view.meta["num_vertices"],
            _column_slice(view, "edge_u", start, stop),
            _column_slice(view, "edge_v", start, stop),
        )
    elif handle.kind == "vertex-parts":
        e_start = _column_value(view, "edge_offsets", index)
        e_stop = _column_value(view, "edge_offsets", index + 1)
        v_start = _column_value(view, "vertex_offsets", index)
        v_stop = _column_value(view, "vertex_offsets", index + 1)
        part = _rebuild_induced_subgraph(
            v_stop - v_start,
            _column_slice(view, "edge_u", e_start, e_stop),
            _column_slice(view, "edge_v", e_start, e_stop),
            tuple(_column_slice(view, "parents", v_start, v_stop)),
        )
    else:
        raise GraphError(f"handle kind {handle.kind!r} is not a graph partition")
    generation_objects[1][index] = part
    return part

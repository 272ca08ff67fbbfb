"""Fleet tick identity: the running tick state and the one-pass batch path.

The streaming maintainers keep running state beside their columns: the
coloring's color histogram, the orientation's outdegree histogram and
maximum, and the dynamic graph's sorted overlay key columns.  The first test
drives random legal and illegal batches through a :class:`StreamingService`
and checks after every batch that each running value equals the value
recomputed from the columns, and that a rejected batch moves none of them.

The second part replays batches through a copy of the per-group
``apply_batch`` (every conflict group checked and applied on its own,
cap-safe groups first), kept here as a reference, and checks that the
library's single path — one replay, then all cap-safe groups in one pass,
then the flip-prone groups — lands on the same heads, outdegrees, flips and
report, and fails a drifted batch with the same error.
"""

from __future__ import annotations

import json
import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.errors import GraphError
from repro.graph.generators import grid_2d, random_forest, union_of_random_forests
from repro.graph.graph import normalize_edge
from repro.stream.dynamic_graph import DynamicGraph
from repro.stream.orientation import (
    GroupedApplyReport,
    IncrementalOrientation,
    plan_conflict_groups,
)
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch

BACKENDS = [
    kernels.PURE,
    pytest.param(
        kernels.NUMPY,
        marks=pytest.mark.skipif(not kernels.numpy_available(), reason="numpy not importable"),
    ),
]

NUM_VERTICES = 20
HOT = 12  # a K12 holds 66 edges, far past 12 vertices at the initial cap 4


# --------------------------------------------------------------------------- #
# Running state through the service
# --------------------------------------------------------------------------- #


def _legal_ops(live: set, rng: random.Random, size: int, deletes: float) -> list:
    """``size`` legal updates against ``live``, which is updated in place.

    Inserts mostly land in a hot vertex set, so repairs and rebuilds happen;
    an edge can change more than once in a batch.
    """
    ops = []
    while len(ops) < size:
        if live and rng.random() < deletes:
            edge = sorted(live)[rng.randrange(len(live))]
        else:
            span = HOT if rng.random() < 0.8 else NUM_VERTICES
            u, v = rng.randrange(span), rng.randrange(span)
            if u == v or (edge := (min(u, v), max(u, v))) in live and rng.random() < 0.8:
                continue  # mostly look for a free pair; sometimes toggle a live one
        if edge in live:
            live.discard(edge)
            ops.append(("-", *edge))
        else:
            live.add(edge)
            ops.append(("+", *edge))
    return ops


def _illegal_ops(live: set, rng: random.Random, size: int, kind: str) -> list:
    """Legal updates with one illegal update spliced in at a random place."""
    pending = set(live)
    ops = _legal_ops(pending, rng, size, deletes=0.4)
    at = rng.randrange(len(ops) + 1)
    before = set(live)
    for op, u, v in ops[:at]:
        (before.add if op == "+" else before.discard)((u, v))
    if kind == "insert-live" and before:
        bad = ("+", *sorted(before)[rng.randrange(len(before))])
    elif kind == "delete-dead":
        dead = [
            (u, v)
            for u in range(NUM_VERTICES)
            for v in range(u + 1, NUM_VERTICES)
            if (u, v) not in before
        ]
        bad = ("-", *dead[rng.randrange(len(dead))])
    else:
        bad = ("+", rng.randrange(NUM_VERTICES), NUM_VERTICES)
    return ops[:at] + [bad] + ops[at:]


def _running_state(service: StreamingService):
    """Every running value next to the value recomputed from the columns."""
    orientation = service.orientation
    coloring = service.coloring
    dynamic = service.dynamic
    outdeg = list(orientation._outdeg)
    stride = max(dynamic.num_vertices, 1)
    live = set(dynamic.edges())
    base = set(dynamic.base.edges)
    resorted = (
        array("l", sorted(u * stride + v for u, v in live - base)),
        array("l", sorted(u * stride + v for u, v in base - live)),
    )
    histogram = {d: c for d, c in enumerate(orientation._outdeg_hist) if c}
    return {
        "num_colors": (coloring.num_colors(), len(set(coloring._colors))),
        "max_outdegree": (orientation.max_outdegree(), max(outdeg, default=0)),
        "outdeg": (outdeg, [len(heads) for heads in orientation._out]),
        "histogram": (histogram, dict(Counter(outdeg))),
        "overlay_keys": (dynamic.overlay_edge_keys(), resorted),
    }


def _assert_consistent(state: dict) -> None:
    for name, (running, recomputed) in state.items():
        assert running == recomputed, name


steps = st.tuples(
    st.sampled_from(
        ["grow", "grow", "churn", "shrink", "insert-live", "delete-dead", "out-of-range",
         "restore"]
    ),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def _drive(script, seed: int):
    """Run ``script`` through a service over a random forest; returns the
    final service after checking the running state at every step."""
    initial = random_forest(NUM_VERTICES, num_trees=3, seed=seed)
    live = set(initial.edges)
    service = StreamingService(initial, seed=seed)
    _assert_consistent(_running_state(service))
    for kind, size, batch_seed in script:
        rng = random.Random(batch_seed)
        if kind == "restore":
            state = json.loads(json.dumps(service.state_dict()))
            service = StreamingService.from_state(state)
        elif kind in ("insert-live", "delete-dead", "out-of-range"):
            batch = UpdateBatch.from_ops(_illegal_ops(live, rng, size, kind))
            before = _running_state(service)
            heads = [sorted(out) for out in service.orientation._out]
            colors = list(service.coloring._colors)
            with pytest.raises(GraphError):
                service.apply(batch)
            assert _running_state(service) == before
            assert [sorted(out) for out in service.orientation._out] == heads
            assert list(service.coloring._colors) == colors
        else:
            deletes = {"grow": 0.1, "churn": 0.45, "shrink": 0.8}[kind]
            report = service.apply(UpdateBatch.from_ops(_legal_ops(live, rng, size, deletes)))
            assert report.num_colors == service.coloring.num_colors()
            assert report.max_outdegree == service.orientation.max_outdegree()
        _assert_consistent(_running_state(service))
        assert set(service.dynamic.edges()) == live
    service.verify()
    return service


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=50, deadline=None)
@given(script=st.lists(steps, max_size=14), seed=st.integers(min_value=0, max_value=50))
def test_running_state_tracks_the_columns(backend, script, seed):
    with kernels.use_backend(backend):
        _drive(script, seed)


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_driver_reaches_every_maintenance_path(backend):
    """A fixed script through the same driver repairs, rebuilds, flips
    proactively, compacts, restores and rejects illegal batches."""
    script = (
        [("grow", 25, s) for s in range(5)]
        + [("insert-live", 10, 1), ("restore", 1, 0), ("delete-dead", 10, 2)]
        + [("churn", 25, s) for s in range(5, 8)]
        + [("grow", 25, s) for s in range(8, 14)]
        + [("out-of-range", 5, 3)]
        + [("shrink", 20, s) for s in range(14, 18)]
    )
    with kernels.use_backend(backend):
        service = _drive(script, seed=4)
    orientation = service.orientation
    summary = service.summary
    assert orientation.flips > orientation.opportunistic_flips > 0
    assert orientation.rebuilds > 0
    assert summary.total_compactions > 0
    assert summary.total_recolors > 0


# --------------------------------------------------------------------------- #
# The single batch path against the per-group reference
# --------------------------------------------------------------------------- #


def _reference_proactive_flip(orientation, freed):
    """The proactive flip without the below-cap early return."""
    out = orientation._out
    cap = orientation.outdegree_cap
    if len(out[freed]) >= cap:
        return
    for w in orientation._dynamic.neighbors(freed):
        if freed in out[w] and len(out[w]) >= cap:
            out[w].discard(freed)
            out[freed].add(w)
            orientation._shrink(w)
            orientation._grow(freed)
            orientation.flips += 1
            orientation.opportunistic_flips += 1
            return


def _reference_group_is_cap_safe(orientation, group_updates) -> bool:
    """The per-group precheck: replays one group's tail rule against the
    current outdegrees plus in-group deltas; ``False`` if an insertion
    passes the cap or a delete finds its edge unoriented."""
    out = orientation._out
    cap = orientation.outdegree_cap
    delta: dict[int, int] = {}
    owner: dict[tuple[int, int], int] = {}
    for update in group_updates:
        u, v = update.u, update.v
        edge = normalize_edge(u, v)
        if update.is_insert:
            tail = orientation._choose_tail(
                u, v, len(out[u]) + delta.get(u, 0), len(out[v]) + delta.get(v, 0)
            )
            delta[tail] = delta.get(tail, 0) + 1
            owner[edge] = tail
            if len(out[tail]) + delta[tail] > cap:
                return False
        else:
            tail = owner.pop(edge, None)
            if tail is None:
                if edge[1] in out[edge[0]]:
                    tail = edge[0]
                elif edge[0] in out[edge[1]]:
                    tail = edge[1]
                else:
                    return False  # inconsistent state: leave to the flip-prone phase
            delta[tail] = delta.get(tail, 0) - 1
    return True


def _reference_apply_group(orientation, group_updates, allow_repair, rebuilds_before):
    """One group's updates applied on their own; returns freed tails in order.

    A prechecked (``allow_repair=False``) group that overflows raises; a
    drifted insert or delete raises unless a mid-batch rebuild happened.
    """
    freed: list[int] = []
    for update in group_updates:
        out = orientation._out  # re-read: a repair may have rebuilt the table
        u, v = update.u, update.v
        if update.is_insert:
            if v in out[u] or u in out[v]:
                if orientation.rebuilds == rebuilds_before:
                    raise GraphError(
                        f"insert of already-oriented edge {normalize_edge(u, v)} "
                        f"without a mid-batch rebuild: orientation drifted from "
                        f"the live edge set"
                    )
                continue
            tail = orientation._choose_tail(u, v, len(out[u]), len(out[v]))
            head = v if tail == u else u
            out[tail].add(head)
            orientation._grow(tail)
            if len(out[tail]) > orientation.outdegree_cap:
                if not allow_repair:
                    raise GraphError(
                        f"cap overflow at vertex {tail} inside a conflict-free "
                        f"group — the safety precheck is broken"
                    )
                orientation._repair(tail)
        else:
            if v in out[u]:
                out[u].discard(v)
                orientation._shrink(u)
                freed.append(u)
            elif u in out[v]:
                out[v].discard(u)
                orientation._shrink(v)
                freed.append(v)
            elif orientation.rebuilds == rebuilds_before:
                raise GraphError(f"edge {normalize_edge(u, v)} is not oriented")
    return freed


def reference_apply_batch(orientation, updates) -> GroupedApplyReport:
    """Per-group ``apply_batch``: every group prechecked and applied on its
    own, cap-safe groups first, then the proactive sweep in group order."""
    updates = list(updates)
    if not updates:
        return GroupedApplyReport(0, 0, 0, 0, 0)
    groups = plan_conflict_groups(updates)
    grouped = [[updates[index] for index in group] for group in groups]
    safe_set = {
        position
        for position, group_updates in enumerate(grouped)
        if _reference_group_is_cap_safe(orientation, group_updates)
    }
    safe = sorted(safe_set)
    unsafe = [position for position in range(len(grouped)) if position not in safe_set]
    rebuilds_before = orientation.rebuilds
    freed_by_group = {}
    for position in safe:
        freed_by_group[position] = _reference_apply_group(
            orientation, grouped[position], False, rebuilds_before
        )
    for position in unsafe:
        freed_by_group[position] = _reference_apply_group(
            orientation, grouped[position], True, rebuilds_before
        )
    opportunistic_before = orientation.opportunistic_flips
    for position in range(len(grouped)):
        for freed in freed_by_group[position]:
            _reference_proactive_flip(orientation, freed)
    orientation._updates_since_check += len(updates)
    if orientation._updates_since_check >= orientation._quality_threshold():
        orientation.ensure_quality()
    return GroupedApplyReport(
        num_updates=len(updates),
        num_groups=len(grouped),
        parallel_groups=len(safe),
        serial_groups=len(unsafe),
        proactive_flips=orientation.opportunistic_flips - opportunistic_before,
    )


def _orientation_state(orientation):
    return (
        [sorted(out) for out in orientation._out],
        orientation._outdeg.tobytes(),
        orientation.max_outdegree(),
        orientation.flips,
        orientation.opportunistic_flips,
        orientation.rebuilds,
        orientation.outdegree_cap,
    )


REFERENCE_GRAPHS = {
    "forest": lambda seed: random_forest(96, num_trees=3, seed=seed),
    "two-forests": lambda seed: union_of_random_forests(96, arboricity=2, seed=seed),
    "grid": lambda seed: grid_2d(8, 12),
}


def _reference_batches(graph, seed, count=12, size=30):
    """Insert-heavy batches into a hot set (they fill vertices to the cap
    and need flip paths), then delete-heavy ones (they free slots next to
    at-cap vertices), then mixed ones."""
    rng = random.Random(seed)
    live = set(graph.edges)
    hot = rng.sample(range(graph.num_vertices), 12)
    batches = []
    for step in range(count):
        deletes = 0.1 if step < count // 3 else (0.7 if step < 2 * count // 3 else 0.4)
        ops = []
        while len(ops) < size:
            if live and rng.random() < deletes:
                edge = sorted(live)[rng.randrange(len(live))]
            else:
                u = rng.choice(hot)
                v = rng.choice(hot) if rng.random() < 0.5 else rng.randrange(graph.num_vertices)
                if u == v:
                    continue
                edge = (min(u, v), max(u, v))
            if edge in live:
                live.discard(edge)
                ops.append(("-", *edge))
            else:
                live.add(edge)
                ops.append(("+", *edge))
        batches.append(UpdateBatch.from_ops(ops))
    return batches


def _replay(family, seed):
    """Run the same batches through the reference and the library; returns
    the per-batch reports after checking both sides agree at every step."""
    graph = REFERENCE_GRAPHS[family](seed)
    reference = IncrementalOrientation(DynamicGraph(graph), flip_slack=2)
    library = IncrementalOrientation(DynamicGraph(graph), flip_slack=2)
    assert _orientation_state(reference) == _orientation_state(library)
    reports = []
    for batch in _reference_batches(graph, seed):
        outcomes = []
        for orientation, apply in ((reference, reference_apply_batch), (library, None)):
            dynamic = orientation._dynamic
            dynamic.apply_ops(*batch.columns())
            at_cap = orientation.max_outdegree() >= orientation.outdegree_cap
            if apply is None:
                report = orientation.apply_batch(batch.updates)
            else:
                report = apply(orientation, batch.updates)
            outcomes.append((report, _orientation_state(orientation)))
        assert outcomes[0] == outcomes[1]
        report = outcomes[1][0]
        assert library.max_outdegree() == max(library._outdeg)
        reports.append((report, at_cap))
    return reports


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", sorted(REFERENCE_GRAPHS))
def test_one_pass_matches_the_per_group_reference(family, seed, kernel_backend):
    _replay(family, seed)


def test_reference_batches_cover_every_path():
    """The comparison is only meaningful if it sees all-cap-safe batches,
    batches with flip-prone groups and batches that start with a vertex at
    the cap and flip proactively."""
    seen = set()
    for family in REFERENCE_GRAPHS:
        for seed in range(3):
            for report, at_cap in _replay(family, seed):
                if report.serial_groups:
                    seen.add("flip-prone")
                else:
                    seen.add("cap-safe")
                    if at_cap and report.proactive_flips:
                        seen.add("at-cap")
    assert seen == {"cap-safe", "flip-prone", "at-cap"}


@pytest.mark.parametrize("drift_first", [False, True])
@pytest.mark.parametrize("drift", ["insert-oriented", "delete-unoriented"])
def test_drifted_group_fails_like_the_reference(drift, drift_first):
    """A batch with a cap-safe group and a hand-drifted group (an insert of
    an already-oriented edge, or a delete of an unoriented live edge) raises
    the reference's :class:`GraphError`, whichever group comes first."""

    def build():
        dynamic = DynamicGraph.empty(8)
        orientation = IncrementalOrientation(dynamic)
        out = [set() for _ in range(8)]
        if drift == "insert-oriented":
            out[2].add(3)  # phantom orientation of a dead edge
            ops = [("+", 2, 3)]
        else:
            dynamic.add_edge(2, 3)  # live edge that nothing orients
            ops = [("-", 2, 3)]
        orientation._set_heads(out)
        ops = ops + [("+", 0, 1)] if drift_first else [("+", 0, 1)] + ops
        batch = UpdateBatch.from_ops(ops)
        dynamic.apply_ops(*batch.columns())
        return orientation, batch

    messages = []
    for apply in (reference_apply_batch, IncrementalOrientation.apply_batch):
        orientation, batch = build()
        with pytest.raises(GraphError) as caught:
            apply(orientation, batch.updates)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "(2, 3)" in messages[1]

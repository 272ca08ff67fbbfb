"""The closed-form MPC memory ledger against a per-machine reference model.

:class:`ReferenceLedger` is the ledger written the obvious way: one tag dict
per machine, every spread object laid out machine by machine, every store
tried on a copy and committed only when no check raises.  The hypothesis
test drives it and :class:`~repro.mpc.cluster.MPCCluster` through the same
random sequence of spread stores, tag releases, graph loads (repeated loads
into one tag included) and communication rounds, and after every step
compares words in use, the peak, every machine's words, the round stats and
any exception's type and message, and checks that every keyed record is
positive.  One step kind swaps the cluster for a
``from_ledger_state(ledger_state())`` copy (through JSON), so the copy must
continue identically too.
"""

from __future__ import annotations

import json
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    CommunicationLimitExceeded,
    GlobalMemoryExceeded,
    MemoryLimitExceeded,
    ReproError,
    SimulationError,
)
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.mpc.metrics import RoundStats

CONFIGS = (
    MPCConfig(num_vertices=16, num_edges=16),
    MPCConfig(num_vertices=30, num_edges=5),
    MPCConfig(num_vertices=9, num_edges=0, memory_constant=1.0),
)
TAGS = ("a", "b", "c")


class ReferenceLedger:
    """Per-machine tag dicts with atomic stores (the ledger's specification)."""

    def __init__(self, config: MPCConfig, enforce_limits: bool, enforce_global_memory: bool):
        self.config = config
        self.machines = config.num_machines()
        self.capacity = config.words_per_machine
        self.budget = config.global_memory_words()
        self.enforce_limits = enforce_limits
        self.enforce_global_memory = enforce_global_memory
        self.tags: dict[int, dict[str, int]] = {}
        self.peak = 0
        self.stats = RoundStats()

    def words(self, machine_id: int) -> int:
        return sum(self.tags.get(machine_id, {}).values())

    def in_use(self) -> int:
        return sum(sum(tags.values()) for tags in self.tags.values())

    def _store(self, adds, tag, enforce, drop_tag=None) -> None:
        """Try ``adds`` (``(machine, words)`` in check order) on a copy."""
        trial = {m: dict(tags) for m, tags in self.tags.items()}
        if drop_tag is not None:
            for tags in trial.values():
                tags.pop(drop_tag, None)
        peak = self.peak
        for machine_id, words in adds:
            tags = trial.setdefault(machine_id, {})
            tags[tag] = tags.get(tag, 0) + words
            stored = sum(tags.values())
            peak = max(peak, stored)
            if enforce and stored > self.capacity:
                raise MemoryLimitExceeded(machine_id, stored, self.capacity)
        in_use = sum(sum(tags.values()) for tags in trial.values())
        if self.enforce_global_memory and in_use > self.budget:
            raise GlobalMemoryExceeded(in_use, self.budget)
        self.tags = trial
        self.peak = peak
        self.stats.observe_memory(peak, in_use)

    def _spread_adds(self, total: int):
        if total < 0:
            raise SimulationError("total_words must be non-negative")
        share = -(-total // self.machines) if total else 0
        adds, remaining = [], total
        for machine_id in range(self.machines):
            if remaining <= 0:
                break
            chunk = min(share, remaining)
            adds.append((machine_id, chunk))
            remaining -= chunk
        return adds

    def release_tag_everywhere(self, tag):
        for tags in self.tags.values():
            tags.pop(tag, None)

    def store_spread(self, total, tag):
        self._store(self._spread_adds(total), tag, self.enforce_limits)

    def restore_spread(self, total, tag):
        self._store(self._spread_adds(total), tag, self.enforce_limits, drop_tag=tag)

    def load_graph(self, graph, tag):
        words: dict[int, int] = {}
        for v in range(graph.num_vertices):
            machine_id = self.config.machine_of(v)
            words[machine_id] = words.get(machine_id, 0) + 1
        for index in range(graph.num_edges):
            machine_id = self.config.machine_of(graph.num_vertices + index)
            words[machine_id] = words.get(machine_id, 0) + 2
        self._store(list(words.items()), tag, self.enforce_limits)

    def communication_round(self, sources, destinations, words, label, split_oversized):
        """Zip the columns into ``(source, destination, words)`` tuples and
        run the round message by message; a round stores nothing."""
        sizes = [words] * len(sources) if isinstance(words, int) else list(words)
        if len(destinations) != len(sources) or len(sizes) != len(sources):
            lengths = f"{len(sources)} sources, {len(destinations)} destinations"
            if not isinstance(words, int):
                lengths += f", {len(sizes)} words"
            raise SimulationError(f"message columns differ in length: {lengths}")
        messages = list(zip(sources, destinations, sizes))
        sent: dict[int, int] = {}
        received: dict[int, int] = {}
        for source_key, destination_key, words in messages:
            if words < 0:
                raise SimulationError("message size must be non-negative")
            source = self.config.machine_of(source_key)
            destination = self.config.machine_of(destination_key)
            sent[source] = sent.get(source, 0) + words
            received[destination] = received.get(destination, 0) + words
        return self._charge(sent, received, label, split_oversized)

    def volume_round(self, sent_side, received_side, label, split_oversized):
        """Tally each side key by key; both sides must move the same words."""
        sides = []
        for name, (keys, words) in (("sent", sent_side), ("received", received_side)):
            sizes = [words] * len(keys) if isinstance(words, int) else list(words)
            if len(sizes) != len(keys):
                raise SimulationError(
                    f"{name} volume columns differ in length: "
                    f"{len(keys)} keys, {len(sizes)} words"
                )
            sides.append(list(zip(keys, sizes)))
        tallies = []
        for pairs in sides:
            tally: dict[int, int] = {}
            for key, words in pairs:
                if words < 0:
                    raise SimulationError("message size must be non-negative")
                machine_id = self.config.machine_of(key)
                tally[machine_id] = tally.get(machine_id, 0) + words
            tallies.append(tally)
        sent, received = tallies
        if sum(sent.values()) != sum(received.values()):
            raise SimulationError(
                f"sent and received volumes differ: {sum(sent.values())} words sent, "
                f"{sum(received.values())} received"
            )
        return self._charge(sent, received, label, split_oversized)

    def _charge(self, sent, received, label, split_oversized):
        max_sent = max(sent.values(), default=0)
        max_received = max(received.values(), default=0)
        volume = max(max_sent, max_received)
        if volume > self.capacity and self.enforce_limits and not split_oversized:
            direction = "sent" if max_sent >= max_received else "received"
            volumes = sent if direction == "sent" else received
            offender = min(m for m, words in volumes.items() if words == volume)
            raise CommunicationLimitExceeded(offender, direction, volume, self.capacity)
        self.stats.record_round(label, sum(sent.values()), max_sent, max_received)
        rounds = 1 if volume <= self.capacity else -(-volume // self.capacity)
        for _ in range(rounds - 1):
            self.stats.record_round(f"{label}:oversized-split", 0, 0, 0)
        return rounds


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

keys = st.integers(0, 24)
tags = st.sampled_from(TAGS)
totals = st.one_of(st.integers(-1, 150), st.integers(0, 3000))
sizes = st.integers(-1, 60)
# A round's message columns: sources, destinations, words (a column or one int).
message_columns = st.one_of(
    st.lists(st.tuples(keys, keys, sizes), max_size=6).map(
        lambda batch: tuple(array("l", column) for column in zip(*batch)) or ([], [], [])
    ),
    st.tuples(st.lists(st.tuples(keys, keys), max_size=6), sizes).map(
        lambda pair: ([s for s, _ in pair[0]], [d for _, d in pair[0]], pair[1])
    ),
    # Columns of (usually) different lengths.
    st.tuples(
        st.lists(keys, max_size=3),
        st.lists(keys, max_size=3),
        st.one_of(sizes, st.lists(sizes, max_size=3)),
    ),
)

# A round's per-key volumes: the two sides of one message list (equal
# totals), or two independent sides (usually unequal, or of mismatched
# column lengths).
volume_sides = st.one_of(
    st.lists(st.tuples(keys, keys, sizes), max_size=6).map(
        lambda batch: (
            ([s for s, _d, _w in batch], array("l", [w for _s, _d, w in batch])),
            ([d for _s, d, _w in batch], [w for _s, _d, w in batch]),
        )
    ),
    st.tuples(st.lists(keys, max_size=4), sizes).map(lambda side: (side, side)),
    st.tuples(
        st.tuples(st.lists(keys, max_size=3), st.one_of(sizes, st.lists(sizes, max_size=3))),
        st.tuples(st.lists(keys, max_size=3), st.one_of(sizes, st.lists(sizes, max_size=3))),
    ),
)

steps = st.one_of(
    st.tuples(st.just("release_tag_everywhere"), tags),
    st.tuples(st.just("store_spread"), totals, tags),
    st.tuples(st.just("restore_spread"), totals, tags),
    st.tuples(st.just("load_graph"), st.integers(1, 25), st.integers(0, 24), tags),
    st.tuples(st.just("communication_round"), message_columns, st.booleans()),
    st.tuples(st.just("volume_round"), volume_sides, st.booleans()),
    st.tuples(st.just("roundtrip")),
)


def _path_graph(num_vertices: int, num_edges: int) -> Graph:
    num_edges = min(num_edges, num_vertices - 1)
    return Graph(num_vertices, [(v, v + 1) for v in range(num_edges)])


def _run(target, step):
    kind, *args = step
    if kind == "load_graph":
        num_vertices, num_edges, tag = args
        return target.load_graph(_path_graph(num_vertices, num_edges), tag=tag)
    if kind == "communication_round":
        (sources, destinations, words), split = args
        return target.communication_round(
            sources, destinations, words, label="x", split_oversized=split
        )
    if kind == "volume_round":
        (sent, received), split = args
        return target.volume_round(sent, received, label="v", split_oversized=split)
    if kind in ("store_spread", "restore_spread"):
        total, tag = args
        return getattr(target, kind)(total, tag=tag)
    return target.release_tag_everywhere(*args)


def _outcome(target, step):
    try:
        return ("ok", _run(target, step))
    except ReproError as exc:
        return (type(exc), str(exc))


def _assert_same(cluster: MPCCluster, model: ReferenceLedger) -> None:
    assert cluster.global_memory_in_use() == model.in_use()
    assert cluster.peak_machine_memory() == model.peak
    assert cluster.stats.state_dict() == model.stats.state_dict()
    assert [cluster.machine_words(m) for m in range(model.machines)] == [
        model.words(m) for m in range(model.machines)
    ]
    for _machine_id, records in cluster.ledger_state()["keyed"]:
        assert records and all(words > 0 for words in records.values())


@pytest.mark.parametrize("enforce_limits", [True, False])
@pytest.mark.parametrize("enforce_global_memory", [True, False])
@settings(max_examples=40, deadline=None)
@given(config=st.sampled_from(CONFIGS), script=st.lists(steps, max_size=25))
@example(
    config=CONFIGS[0],
    script=[
        ("load_graph", 12, 11, "a"),
        ("store_spread", 40, "a"),
        ("load_graph", 20, 5, "a"),
        ("load_graph", 7, 3, "b"),
        ("roundtrip",),
        ("load_graph", 25, 24, "a"),
        ("restore_spread", 100, "a"),
        ("load_graph", 9, 8, "a"),
        ("release_tag_everywhere", "a"),
        ("load_graph", 16, 15, "b"),
        ("roundtrip",),
    ],
)
def test_cluster_matches_the_reference_ledger(
    enforce_limits, enforce_global_memory, config, script
):
    cluster = MPCCluster(
        config, enforce_limits=enforce_limits, enforce_global_memory=enforce_global_memory
    )
    model = ReferenceLedger(config, enforce_limits, enforce_global_memory)
    for step in script:
        if step[0] == "roundtrip":
            state = json.loads(json.dumps(cluster.ledger_state()))
            cluster = MPCCluster.from_ledger_state(state)
        else:
            assert _outcome(cluster, step) == _outcome(model, step), step
        _assert_same(cluster, model)


"""Standard constant-round MPC primitives.

The paper repeatedly appeals to "standard MPC primitives developed in previous
works" ([ASS+18] Section E, [GSZ11], [Gha] lecture notes) for the plumbing of
its algorithms: sorting, aggregation by key, broadcast trees, and the directed
information-gathering of Lemma 4.1.  This module provides the ones the
pipeline calls — aggregation by key, broadcast and gathering — on top of
:class:`~repro.mpc.cluster.MPCCluster`.

Each primitive does the actual data manipulation centrally (the simulator is a
single process) but charges the documented number of MPC rounds and routes the
data volume through the cluster so memory/communication constraints are
enforced.  The constants charged are:

===========================  ======  ==========================================
primitive                    rounds  reference
===========================  ======  ==========================================
``aggregate_by_key``         2       sort + local combine [ASS+18]
``broadcast``                2       n^{δ/2}-ary broadcast tree [Gha §1.3.2]
``gather_bundles``           3       Lemma 4.1 (sort, copy via broadcast trees,
                                     match)
===========================  ======  ==========================================
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import TypeVar

from repro.errors import SimulationError
from repro.mpc.cluster import MPCCluster

V = TypeVar("V")

AGGREGATE_ROUNDS = 2
BROADCAST_ROUNDS = 2
GATHER_ROUNDS = 3


def aggregate_by_key(
    cluster: MPCCluster,
    items: Iterable[tuple[int, V]],
    combine: Callable[[V, V], V],
    label: str = "aggregate",
) -> dict[int, V]:
    """Combine all values sharing a key with an associative ``combine`` function.

    The classic use in this reproduction is summing per-vertex counters (e.g.
    computing degrees or the per-vertex minimum layer in Algorithm 4).
    """
    grouped: dict[int, V] = {}
    for key, value in items:
        if key in grouped:
            grouped[key] = combine(grouped[key], value)
        else:
            grouped[key] = value
    messages = [(key, key, 1) for key in grouped]
    cluster.communication_round(messages, label=f"{label}:shuffle")
    cluster.charge_rounds(AGGREGATE_ROUNDS - 1, label=f"{label}:combine")
    return grouped


def broadcast(
    cluster: MPCCluster,
    payload_words: int,
    destinations: Sequence[int],
    source_key: int = 0,
    label: str = "broadcast",
) -> None:
    """Broadcast a payload of ``payload_words`` words to all ``destinations``.

    Uses the standard ``n^{δ/2}``-ary broadcast tree, hence a constant number
    of rounds; the per-round per-machine volume is bounded by the fan-out
    times the payload, which the cluster verifies.
    """
    if payload_words < 0:
        raise SimulationError("payload_words must be non-negative")
    if not destinations:
        cluster.charge_rounds(BROADCAST_ROUNDS, label=label)
        return
    fan_out = max(int(cluster.words_per_machine ** 0.5), 2)
    frontier = [source_key]
    remaining = list(destinations)
    rounds_used = 0
    while remaining:
        messages = []
        next_frontier = []
        for source in frontier:
            for _ in range(fan_out):
                if not remaining:
                    break
                destination = remaining.pop()
                messages.append((source, destination, payload_words))
                next_frontier.append(destination)
        cluster.communication_round(messages, label=f"{label}:tree")
        frontier = next_frontier
        rounds_used += 1
    if rounds_used < BROADCAST_ROUNDS:
        cluster.charge_rounds(BROADCAST_ROUNDS - rounds_used, label=label)


def gather_bundles(
    cluster: MPCCluster,
    bundles: Mapping[int, int],
    interest_lists: Mapping[int, Sequence[int]],
    label: str = "gather",
    store_tag: str | None = None,
) -> None:
    """Lemma 4.1: every node ``u`` receives the information bundles of ``L_u``.

    ``bundles[v]`` is the size (in words) of node ``v``'s bundle ``B_v``;
    ``interest_lists[u]`` is the list ``L_u`` of nodes whose bundles ``u``
    wants.  The lemma requires ``|B_v| ≤ n^{δ/2}``, ``|L_u| ≤ n^{δ/2}`` and the
    total delivered volume to be ``O(m + n)``; the cluster's communication
    accounting enforces the per-machine consequences of these bounds.

    Charges :data:`GATHER_ROUNDS` rounds (sort + copy + match, as in the
    lemma's proof sketch) plus the delivery round carrying the actual volume.
    """
    cluster.charge_rounds(GATHER_ROUNDS, label=f"{label}:plumbing")
    messages = []
    for u, wanted in interest_lists.items():
        for v in wanted:
            size = bundles.get(v, 0)
            if size > 0:
                messages.append((v, u, size))
    cluster.communication_round(messages, label=f"{label}:deliver", store_tag=store_tag)


"""Standard constant-round MPC primitives.

The paper repeatedly appeals to "standard MPC primitives developed in previous
works" ([ASS+18] Section E, [GSZ11], [Gha] lecture notes) for the plumbing of
its algorithms: sorting, aggregation by key, broadcast trees, and the directed
information-gathering of Lemma 4.1.  This module provides the ones the
pipeline calls — aggregation by key and gathering — on top of
:class:`~repro.mpc.cluster.MPCCluster`.

Each primitive does the actual data manipulation centrally (the simulator is a
single process) but charges the documented number of MPC rounds and routes the
data volume through the cluster so memory/communication constraints are
enforced.  Every exchange reaches the cluster as columns — message columns
(source keys, destination keys, word sizes) for
:meth:`~repro.mpc.cluster.MPCCluster.communication_round`, or per-key
volumes for :meth:`~repro.mpc.cluster.MPCCluster.volume_round` — and the
cluster tallies each key column per machine in one kernel call.  The
constants charged are:

===========================  ======  ==========================================
primitive                    rounds  reference
===========================  ======  ==========================================
``aggregate_by_key``         2       sort + local combine [ASS+18]
``gather_bundles``           3       Lemma 4.1 (sort, copy via broadcast trees,
                                     match)
===========================  ======  ==========================================
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TypeVar

from repro.mpc.cluster import MPCCluster

V = TypeVar("V")

AGGREGATE_ROUNDS = 2
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
    keys = list(grouped)
    cluster.communication_round(keys, keys, 1, label=f"{label}:shuffle")
    cluster.charge_rounds(AGGREGATE_ROUNDS - 1, label=f"{label}:combine")
    return grouped


def gather_bundles(
    cluster: MPCCluster,
    sent,
    received,
    label: str = "gather",
) -> int:
    """Lemma 4.1: every node ``u`` receives the information bundles of ``L_u``.

    The delivery comes as per-key volumes, ``(keys, words)`` pairs: ``sent``
    gives each owner the words it sends in total (its bundle size times the
    number of interest lists it is on), ``received`` each requester the
    words it receives (the bundle sizes of its list summed).  The lemma
    requires ``|B_v| ≤ n^{δ/2}``, ``|L_u| ≤ n^{δ/2}`` and the total
    delivered volume to be ``O(m + n)``; the cluster's communication
    accounting enforces the per-machine consequences of these bounds.

    Charges :data:`GATHER_ROUNDS` rounds (sort + copy + match, as in the
    lemma's proof sketch) plus the delivery round carrying the actual volume
    (:meth:`~repro.mpc.cluster.MPCCluster.volume_round`), and returns the
    rounds charged in total — more than ``GATHER_ROUNDS + 1`` when the
    delivery is split into several rounds.
    """
    cluster.charge_rounds(GATHER_ROUNDS, label=f"{label}:plumbing")
    return GATHER_ROUNDS + cluster.volume_round(sent, received, label=f"{label}:deliver")

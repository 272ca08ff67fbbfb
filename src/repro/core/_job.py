"""The job skeleton that Theorems 1.1 and 1.2 share.

Both guess an arboricity proxy ``k`` (one ``arboricity-guess`` round) and,
when ``k > 4·log n``, split the graph into ``⌈k / log n⌉`` random parts
(edges under Lemma 2.1 for :func:`repro.core.orientation.orient`, vertices
under Lemma 2.2 for :func:`repro.core.coloring.color`), each layered with
``k = ⌈2·log n⌉``.  The parts are independent: the paper runs them
simultaneously on the shared cluster, so their rounds coincide rather than
add.  :func:`fan_out` runs each part on its own sub-ledger
(:meth:`repro.mpc.cluster.MPCCluster.fork`) through the worker pool, and the
job's fold charges rounds as max-over-parts.  The parts are fixed by the
partition RNG before the fan-out, so results are identical for any worker
count.  The jobs keep only the partition, the per-part task and the merge.
"""

from __future__ import annotations

import math
import numbers
import operator
import random
from dataclasses import dataclass

from repro.core.parameters import log_n, refuse_bools
from repro.engine import WorkerPool
from repro.errors import ParameterError
from repro.graph.arboricity import arboricity_upper_bound
from repro.graph.graph import Graph
from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.obs.tracer import NULL_TRACER


@dataclass
class JobSetup:
    """What a job knows once :func:`set_up_job` has run."""

    cluster: MPCCluster
    tracer: object
    workers: int
    rng: random.Random
    k: int
    arboricity_proxy: int
    large_lambda: bool
    per_part_k: int


def _check_arguments(k, k_factor, workers) -> None:
    """Refuse, by name, a ``k``, ``k_factor`` or ``workers`` no job can run with."""
    refuse_bools(k=k, workers=workers)
    if workers < 1:
        raise ParameterError("workers must be at least 1")
    if k is not None:
        try:
            operator.index(k)
        except TypeError:
            raise ParameterError(f"k must be an integer, not {k!r}") from None
        if k < 1:
            raise ParameterError(f"k must be at least 1 (got {k!r})")
    if (
        isinstance(k_factor, bool)
        or not isinstance(k_factor, numbers.Real)
        or not (k_factor > 0 and math.isfinite(k_factor))
    ):
        raise ParameterError(f"k_factor must be a positive finite number (got {k_factor!r})")


def set_up_job(
    graph: Graph,
    delta: float,
    k: int | None,
    k_factor: float,
    seed: int | None,
    cluster: MPCCluster | None,
    force_partitioning: bool | None,
    workers: int,
    tracer,
) -> JobSetup | None:
    """Check the arguments and prepare the cluster, the RNG and the branch.

    The arguments are the jobs' own, in their order.  Returns ``None`` for
    a graph without vertices, which every job answers with its empty result.
    Otherwise a fresh cluster sized for ``graph`` is built and loaded when
    none is given, the tracer is attached, and ``k`` is guessed from the
    degeneracy when omitted (the paper runs every ``(1+ε)^i`` guess in
    parallel for a constant number of extra rounds and an ``O(log n)``
    factor of global memory; the rounds are charged here).
    ``force_partitioning`` overrides the ``k > 4·log n`` branch rule.
    """
    _check_arguments(k, k_factor, workers)
    if graph.num_vertices == 0:
        return None
    if cluster is None:
        cluster = MPCCluster(MPCConfig.for_graph(graph, delta=delta))
        cluster.load_graph(graph)
    tracer = NULL_TRACER if tracer is None else tracer
    if tracer.enabled:
        cluster.instrument(tracer)

    rng = random.Random(seed)
    if k is None:
        estimate = max(arboricity_upper_bound(graph), 1)
        k = max(2, int(math.ceil(k_factor * estimate)))
        cluster.charge_rounds(1, label="arboricity-guess")
    log_of_n = log_n(graph.num_vertices)
    large_lambda = k > 4 * log_of_n
    if force_partitioning is not None:
        large_lambda = force_partitioning
    return JobSetup(
        cluster=cluster,
        tracer=tracer,
        workers=workers,
        rng=rng,
        k=k,
        arboricity_proxy=max(1, int(math.ceil(k / max(k_factor, 1.0)))),
        large_lambda=large_lambda,
        per_part_k=max(2, int(math.ceil(2 * log_of_n))),
    )


def fan_out(name: str, task, args: list, total_work: int, job: JobSetup) -> list:
    """Run ``task`` over every part's ``args`` in the job's worker pool, in order.

    The whole map is one ``"<name>:fanout"`` span on the job's cluster.  The
    parts are fixed before the fan-out and each runs on its own sub-ledger,
    so the results are identical for any worker count.
    """
    tracer = job.tracer
    with WorkerPool(job.workers) as pool:
        if tracer.enabled:
            pool.instrument(tracer)
        with tracer.span(
            f"{name}:fanout", cat="kernel", cluster=job.cluster, parts=len(args)
        ):
            return pool.map(task, args, total_work=total_work)

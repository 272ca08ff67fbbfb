"""MPC model simulation substrate (rounds, memory accounting, primitives)."""

from repro.mpc.cluster import MPCCluster
from repro.mpc.config import MPCConfig
from repro.mpc.metrics import RoundRecord, RoundStats
from repro.mpc.primitives import aggregate_by_key, gather_bundles

__all__ = [
    "MPCCluster",
    "MPCConfig",
    "RoundRecord",
    "RoundStats",
    "aggregate_by_key",
    "gather_bundles",
]

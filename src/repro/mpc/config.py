"""Configuration of the simulated MPC cluster.

The scalable (strongly sublinear) MPC regime fixes a constant ``δ ∈ (0, 1)``
and gives every machine ``S = Θ(n^δ)`` words of local memory.  The number of
machines is whatever is needed for the global memory, which the paper bounds
by ``Õ(m + n)`` words.

:class:`MPCConfig` captures exactly these knobs plus the constant factors that
the theory hides, so experiments can (a) enforce the constraints and (b) sweep
``δ`` in the memory experiment E6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import kernels
from repro.errors import ParameterError


def check_delta(delta: float) -> None:
    """Raise :class:`ParameterError` unless the memory exponent ``δ`` is a
    positive finite number, so ``nan`` and ``inf`` are refused too."""
    if not (delta > 0 and math.isfinite(delta)):
        raise ParameterError(f"delta must be a positive finite number (got {delta!r})")


def local_memory(n: int, delta: float, constant: float = 1.0) -> float:
    """``constant · n^δ``: the scale of every ``n^δ``-sized quantity.  A δ
    so large that this overflows a float is refused with ParameterError."""
    try:
        words = constant * (n ** delta)
    except OverflowError:
        words = math.inf
    if math.isinf(words):
        raise ParameterError(
            f"delta={delta!r} is too large: the local memory n^delta overflows for n={n}"
        )
    return words


@dataclass(frozen=True)
class MPCConfig:
    """Resource parameters of a simulated MPC cluster.

    Parameters
    ----------
    num_vertices, num_edges:
        Size of the input the cluster is provisioned for (``n`` and ``m``).
    delta:
        The memory exponent: each machine holds ``S = ceil(memory_constant *
        n^delta)`` words.  Must lie strictly between 0 and 1 for the scalable
        regime (values ≥ 1 are allowed for the near-linear regime baselines
        but flagged by :attr:`is_strongly_sublinear`).
    memory_constant:
        Constant factor in front of ``n^delta``.  The theory hides it; the
        simulator needs a concrete value.
    global_memory_factor:
        The global memory budget is ``global_memory_factor * (m + n)`` words
        (plus a logarithmic slack factor, see :meth:`global_memory_words`),
        matching the paper's ``Õ(m + n)``.
    """

    num_vertices: int
    num_edges: int
    delta: float = 0.5
    memory_constant: float = 4.0
    global_memory_factor: float = 8.0

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ParameterError("num_vertices must be at least 1")
        if self.num_edges < 0:
            raise ParameterError("num_edges must be non-negative")
        check_delta(self.delta)
        if self.memory_constant <= 0 or self.global_memory_factor <= 0:
            raise ParameterError("constants must be positive")
        # Derived once: placement reads it per key.  Not a field, so equality,
        # hashing and ``repr`` still see only the five parameters.
        object.__setattr__(
            self,
            "_num_machines",
            max(1, -(-self.global_memory_words() // self.words_per_machine)),
        )

    # ------------------------------------------------------------------ #

    @property
    def is_strongly_sublinear(self) -> bool:
        """Whether the configuration is in the scalable (S = n^δ, δ < 1) regime."""
        return self.delta < 1.0

    @property
    def words_per_machine(self) -> int:
        """Local memory capacity ``S`` in words."""
        capacity = local_memory(self.num_vertices, self.delta, self.memory_constant)
        return max(int(math.ceil(capacity)), 16)

    @property
    def log_n(self) -> float:
        """``log2 n`` (at least 1.0 to avoid degenerate parameters on tiny inputs)."""
        return max(math.log2(self.num_vertices), 1.0)

    def global_memory_words(self) -> int:
        """Global memory budget, ``Õ(m + n)`` words.

        We charge ``global_memory_factor · (m + n) · ⌈log2 n⌉`` which matches
        the paper's soft-O: Theorem 1.1 explicitly spends an extra ``O(log n)``
        factor to guess the arboricity, and Lemma 3.13 spends ``O(n·B)`` with
        ``B ≤ n^δ`` absorbed into the same slack.
        """
        slack = max(int(math.ceil(self.log_n)), 1)
        return int(self.global_memory_factor * (self.num_edges + self.num_vertices + 1) * slack)

    def num_machines(self) -> int:
        """Number of machines needed so that M·S covers the global memory budget."""
        return self._num_machines

    def machine_of(self, key: int) -> int:
        """Deterministic placement of a key (vertex/edge id) onto a machine.

        A multiplicative hash keeps placement spread out even for consecutive
        ids, which is what an adversarial initial distribution would also
        achieve in expectation.  :func:`repro.kernels.tally_by_machine`
        applies the same placement to a whole column of keys at once.
        """
        return kernels.machine_of(key, self._num_machines)

    @classmethod
    def for_graph(cls, graph, delta: float = 0.5, **kwargs) -> "MPCConfig":
        """Convenience constructor from a :class:`repro.graph.Graph`."""
        return cls(
            num_vertices=max(graph.num_vertices, 1),
            num_edges=graph.num_edges,
            delta=delta,
            **kwargs,
        )

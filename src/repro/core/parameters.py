"""Parameter selection for the paper's algorithms.

The paper fixes its parameters with large proof-friendly constants
(``k ≥ 100·λ``, ``B = k^100 ≤ n^{δ/100}``, ``s = ⌈10 log log n⌉``,
``L = ⌈0.1 log_k B⌉``).  Running those constants verbatim is impossible at
laptop scale — ``k^100`` overflows any memory for ``k ≥ 2`` — so this module
centralises the translation from the paper's parameter *relations* to
feasible concrete values, keeping every structural requirement intact:

* ``k ≥ c_k · λ``      (the pruning parameter dominates the arboricity),
* ``B ≥ k²`` and ``B ≤ n^δ`` scaled by a constant (tree views fit a machine),
* ``s > log₂ L``        (enough exponentiation steps to span ``L`` layers),
* ``a = (s + 1) · k``   (the layer out-degree bound of Claim 3.12),
* ``L ≥ 1``.

DESIGN.md documents this as a substitution; the validators and tests check all
bounds against the *configured* constants so the shape of every claim is still
verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.mpc.config import check_delta, local_memory


@dataclass(frozen=True)
class Parameters:
    """Concrete parameters for one invocation of the layer-assignment pipeline.

    Attributes
    ----------
    k:
        Pruning parameter of Algorithm 1/2; must satisfy ``k ≥ λ``.
    budget:
        Tree-view budget ``B`` of Algorithm 2; trees never exceed ``B`` nodes.
    steps:
        Number of exponentiation steps ``s`` in Algorithm 2.
    num_layers:
        Number of layers ``L`` targeted by one call of Algorithm 4.
    """

    k: int
    budget: int
    steps: int
    num_layers: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ParameterError("k must be at least 1")
        if self.budget < 4:
            raise ParameterError("budget B must be at least 4")
        if self.steps < 1:
            raise ParameterError("steps s must be at least 1")
        if self.num_layers < 1:
            raise ParameterError("num_layers L must be at least 1")
        if self.steps < math.log2(self.num_layers) + 1e-9:
            raise ParameterError(
                f"steps s={self.steps} must exceed log2(L)={math.log2(self.num_layers):.2f} "
                "(Lemma 3.7 requires s > log2 L)"
            )

    @property
    def layer_out_degree(self) -> int:
        """The out-degree bound ``a = (s + 1) · k`` of Claim 3.12."""
        return (self.steps + 1) * self.k

    @property
    def sqrt_budget(self) -> int:
        """``⌊√B⌋`` — the per-tree size threshold used by Algorithm 2."""
        return int(math.isqrt(self.budget))


def refuse_bools(**values) -> None:
    """Raise :class:`ParameterError` for any integer argument given as a ``bool``.

    ``True`` and ``False`` are ints to Python, so ``k=True`` would silently
    run as ``k=1``; the public entry points refuse them by name instead.
    """
    for name, value in values.items():
        if isinstance(value, bool):
            raise ParameterError(f"{name} must be an integer, not a bool ({value!r})")


def log2_ceil(x: float) -> int:
    """``⌈log2 x⌉`` for ``x ≥ 1`` (0 for smaller values)."""
    if x <= 1:
        return 0
    return int(math.ceil(math.log2(x)))


def peeling_round_cap(n: int) -> int:
    """``4·⌈log2 n⌉ + 8``: the safety cap on the Barenboim–Elkin peeling's
    rounds, far above its ``O(log n)`` bound for a correct arboricity."""
    return 4 * log2_ceil(max(n, 2)) + 8


def log_n(n: int) -> float:
    """``log2 n`` clamped below at 1.0: the ``log n`` of the large-λ branch
    rule, the Lemma 2.1/2.2 part count and the per-part ``k``."""
    return max(math.log2(max(n, 2)), 1.0)


def loglog(n: int) -> float:
    """``log2 log2 n`` clamped below at 1.0 (the paper's ubiquitous quantity)."""
    if n < 4:
        return 1.0
    return max(math.log2(math.log2(n)), 1.0)


def density_bound(arboricity: int, n: int, constant: float) -> float:
    """``constant · max(λ, 1) · log log n``: the shape of the ``O(λ log log n)``
    outdegree and color bounds of Theorems 1.1 and 1.2."""
    return constant * max(arboricity, 1) * loglog(n)


def choose_parameters(
    num_vertices: int,
    arboricity_bound: int,
    delta: float = 0.5,
    k_factor: float = 2.0,
) -> Parameters:
    """Select ``(k, B, s, L)`` for a graph of ``num_vertices`` and arboricity ≤ ``arboricity_bound``.

    Mirrors Lemma 3.13's parameterisation with scaled constants:

    * ``k = max(2, ⌈k_factor · arboricity_bound⌉)``
      (paper: ``k ∈ [100λ, 200λ]``),
    * ``B = min(max(k², 64), max(4·⌈n^δ⌉, 64))``
      (paper: ``k^100 ≤ B ≤ n^{δ/100}``),
    * ``(L, s)`` from ``(k, B)`` by :func:`layers_and_steps`.
    """
    if num_vertices < 1:
        raise ParameterError("num_vertices must be at least 1")
    if arboricity_bound < 0:
        raise ParameterError("arboricity_bound must be non-negative")
    check_delta(delta)

    k = max(2, int(math.ceil(k_factor * max(arboricity_bound, 1))))
    machine_budget = int(math.ceil(local_memory(max(num_vertices, 2), delta))) * 4
    budget = min(max(k * k, 64), max(machine_budget, 64))
    num_layers, steps = layers_and_steps(k, budget)
    return Parameters(k=k, budget=budget, steps=steps, num_layers=num_layers)


def layers_and_steps(k: int, budget: int, num_layers: int | None = None) -> tuple[int, int]:
    """Lemma 3.13's ``(L, s)`` for pruning parameter ``k`` and budget ``B``.

    * ``L = max(1, ⌈c_L · log_k B⌉)`` with ``c_L = 1`` when ``B > k``, else 1
      (paper: ``⌈0.1 log_k B⌉``); a given ``num_layers`` is kept;
    * ``s = max(⌈log2 L⌉, 1) + 1`` (paper: ``⌈10 log log n⌉``).

    Lemma 3.7 only needs ``s > log2 L``; the paper's ``⌈10 log log n⌉`` is a
    proof-friendly overshoot (its ``L`` is itself ``Θ(log log n)``-sized), so
    the least admissible step count keeps the round constant small without
    changing the structure.
    """
    if num_layers is None:
        if budget > k:
            num_layers = max(1, int(math.ceil(math.log(budget) / math.log(max(k, 2)))))
        else:
            num_layers = 1
    return num_layers, log2_ceil(max(num_layers, 2)) + 1

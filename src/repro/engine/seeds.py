"""Per-task RNG streams for the host fan-out (see :func:`derive_seed`)."""

from __future__ import annotations

from repro.errors import ParameterError

_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int | None, index: int) -> int:
    """Deterministic per-task seed: splitmix64 of ``(base_seed, index)``.

    Tasks must not share one RNG (consumption order would then depend on the
    schedule); instead each task gets its own stream seeded by its *position*
    in the task list, so any worker count replays identical randomness.
    """
    x = ((0 if base_seed is None else base_seed) + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def seed_stream(base_seed: int | None, count: int) -> list[int]:
    """``count`` independent per-task seeds derived from one base seed."""
    if count < 0:
        raise ParameterError("count must be non-negative")
    return [derive_seed(base_seed, index) for index in range(count)]

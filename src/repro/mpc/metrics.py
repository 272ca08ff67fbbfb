"""Run metrics collected by the MPC simulator.

The primary measure in the MPC model is the number of rounds; the experiment
suite also records per-machine peak memory and the total communication volume
so that the memory claims of the paper (Claims 3.5 and 3.11, and the global
memory bounds of Theorems 1.1/1.2) can be reported, not just asserted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class RoundRecord:
    """One simulated MPC round."""

    index: int
    label: str
    words_sent: int
    max_machine_sent: int
    max_machine_received: int


@dataclass
class RoundStats:
    """Aggregated statistics of a simulated MPC execution."""

    rounds: list[RoundRecord] = field(default_factory=list)
    peak_machine_memory_words: int = 0
    peak_global_memory_words: int = 0
    rounds_by_label: Counter = field(default_factory=Counter)

    @property
    def num_rounds(self) -> int:
        """Total number of MPC rounds charged so far."""
        return len(self.rounds)

    @property
    def total_words_sent(self) -> int:
        """Total communication volume, in words, across the whole run."""
        return sum(record.words_sent for record in self.rounds)

    @property
    def max_round_volume(self) -> int:
        """Largest per-round communication volume in words."""
        return max((record.words_sent for record in self.rounds), default=0)

    def record_round(
        self,
        label: str,
        words_sent: int,
        max_machine_sent: int,
        max_machine_received: int,
    ) -> RoundRecord:
        """Append a round record and update per-label counters."""
        record = RoundRecord(
            index=len(self.rounds),
            label=label,
            words_sent=words_sent,
            max_machine_sent=max_machine_sent,
            max_machine_received=max_machine_received,
        )
        self.rounds.append(record)
        self.rounds_by_label[label] += 1
        return record

    def observe_memory(self, machine_peak_words: int, global_words: int) -> None:
        """Update peak memory high-water marks."""
        self.peak_machine_memory_words = max(self.peak_machine_memory_words, machine_peak_words)
        self.peak_global_memory_words = max(self.peak_global_memory_words, global_words)

    def since(self, round_index: int) -> "RoundStats":
        """The suffix of this ledger starting at ``round_index``, re-indexed.

        Used by multiplexers that keep one *persistent* sub-ledger per tenant
        but fold per-superstep deltas into a shared ledger: record
        ``num_rounds`` before the superstep, then fold ``since(mark)`` of
        every tenant with :meth:`merge_parallel`.  The returned snapshot
        carries this ledger's *current* memory high-water marks — co-resident
        tenants occupy the fleet for the whole superstep, so the parallel
        fold's sum-of-peaks semantics wants the lifetime peak, not a delta.

        A mark taken at the current head (``round_index == num_rounds``, the
        idle-tenant case) yields a zero-round delta that still carries the
        peaks; a mark *beyond* the head can only come from a stale or
        corrupted marker and raises rather than silently returning an empty
        delta.
        """
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        if round_index > len(self.rounds):
            raise ValueError(
                f"round mark {round_index} is beyond the ledger head "
                f"({len(self.rounds)} rounds recorded)"
            )
        delta = RoundStats()
        for offset, record in enumerate(self.rounds[round_index:]):
            delta.rounds.append(
                RoundRecord(
                    index=offset,
                    label=record.label,
                    words_sent=record.words_sent,
                    max_machine_sent=record.max_machine_sent,
                    max_machine_received=record.max_machine_received,
                )
            )
            delta.rounds_by_label[record.label] += 1
        delta.peak_machine_memory_words = self.peak_machine_memory_words
        delta.peak_global_memory_words = self.peak_global_memory_words
        return delta

    def merge_parallel(self, branches: "list[RoundStats]") -> int:
        """Fold sibling sub-ledgers in as *parallel* supersteps (in place).

        ``branches`` are the ledgers of tasks that executed concurrently on
        this cluster.  Round ``i`` of every branch happens in the same
        superstep, so the fold appends ``max(branch round counts)`` rounds to
        this ledger where superstep ``i`` carries

        * the label of the *longest* branch's round ``i`` (the critical path
          names the superstep; ties resolve to the earliest branch),
        * the **sum** of all branches' round-``i`` communication volumes, and
        * the **max** of their per-machine send/receive peaks.

        Memory folds as a **sum** of the branches' peaks — parallel tasks
        are co-resident on the same machine fleet (conservative: branches
        may peak at different times).  Returns the number of rounds charged.

        **Empty folds charge zero rounds.**  A fold with no branches is a
        no-op (no superstep ran, nothing is co-resident).  A fold whose
        branches are all zero-round deltas — a budget-exhausted scheduler
        tick where every tenant idled — likewise appends no rounds, but
        still observes the branches' summed memory peaks: the tenants were
        co-resident for the tick whether or not any of them was served.
        """
        branches = [branch for branch in branches if branch is not None]
        if not branches:
            return 0
        spine = max(branches, key=lambda branch: branch.num_rounds)
        depth = spine.num_rounds
        for index in range(depth):
            words = 0
            max_sent = 0
            max_received = 0
            for branch in branches:
                if index < branch.num_rounds:
                    record = branch.rounds[index]
                    words += record.words_sent
                    max_sent = max(max_sent, record.max_machine_sent)
                    max_received = max(max_received, record.max_machine_received)
            self.record_round(spine.rounds[index].label, words, max_sent, max_received)
        self.observe_memory(
            sum(branch.peak_machine_memory_words for branch in branches),
            sum(branch.peak_global_memory_words for branch in branches),
        )
        return depth

    def state_dict(self) -> dict:
        """The ledger as JSON-serializable columns (the checkpoint seam).

        Round indexes are implied by position and ``rounds_by_label`` is
        derivable, so the snapshot stores only the per-round payload plus
        the two memory high-water marks.
        """
        return {
            "rounds": [
                [r.label, r.words_sent, r.max_machine_sent, r.max_machine_received]
                for r in self.rounds
            ],
            "peak_machine_memory_words": self.peak_machine_memory_words,
            "peak_global_memory_words": self.peak_global_memory_words,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RoundStats":
        """Rebuild a ledger from :meth:`state_dict` output, exactly."""
        stats = cls()
        for label, words, max_sent, max_received in state["rounds"]:
            stats.record_round(str(label), words, max_sent, max_received)
        stats.observe_memory(
            state["peak_machine_memory_words"], state["peak_global_memory_words"]
        )
        return stats

    def summary(self) -> dict[str, float]:
        """A flat dictionary for the reporting layer."""
        return {
            "rounds": float(self.num_rounds),
            "total_words_sent": float(self.total_words_sent),
            "max_round_volume": float(self.max_round_volume),
            "peak_machine_memory_words": float(self.peak_machine_memory_words),
            "peak_global_memory_words": float(self.peak_global_memory_words),
        }

    def __repr__(self) -> str:
        return (
            f"RoundStats(rounds={self.num_rounds}, "
            f"peak_machine_memory={self.peak_machine_memory_words}, "
            f"peak_global_memory={self.peak_global_memory_words})"
        )

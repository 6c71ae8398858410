"""Trace analysis — the numbers the paper reads off Jumpshot.

For FT (Figure 9) the paper observes: communication-bound with a ~2:1
comm/comp ratio, all-to-all dominant, long iterations, balanced load.
For CG (Figure 12): communication-intensive, Wait/Send dominant, short
cycles, and per-rank asymmetry (ranks 4–7 wait more than 0–3).
:func:`analyze` extracts exactly those quantities.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.trace.events import TraceLog, categorize_op

__all__ = ["RankProfile", "TraceStats", "analyze"]


@dataclass
class RankProfile:
    """Per-rank time breakdown."""

    rank: int
    compute_s: float = 0.0
    comm_s: float = 0.0
    wait_s: float = 0.0
    idle_s: float = 0.0
    op_seconds: dict[str, float] = field(default_factory=dict)
    op_counts: dict[str, int] = field(default_factory=dict)

    @property
    def comm_total_s(self) -> float:
        """All non-compute MPI time (active comm + blocked wait)."""
        return self.comm_s + self.wait_s

    @property
    def comm_to_comp_ratio(self) -> float:
        """The paper's communication-to-computation ratio."""
        if self.compute_s <= 0:
            return float("inf")
        return self.comm_total_s / self.compute_s

    def dominant_ops(self, n: int = 3) -> list[tuple[str, float]]:
        """Top operations by accumulated time."""
        return sorted(self.op_seconds.items(), key=lambda kv: -kv[1])[:n]


@dataclass
class TraceStats:
    """Whole-job trace summary."""

    ranks: list[RankProfile]
    duration_s: float

    @property
    def comm_to_comp_ratio(self) -> float:
        comm = sum(r.comm_total_s for r in self.ranks)
        comp = sum(r.compute_s for r in self.ranks)
        return comm / comp if comp > 0 else float("inf")

    @property
    def imbalance(self) -> float:
        """Spread of per-rank comm/comp ratios: max/min (1.0 = balanced).

        Finite only when every rank computes; the paper's FT trace shows
        ~1, CG's shows a clear split between rank groups.
        """
        ratios = [r.comm_to_comp_ratio for r in self.ranks if r.compute_s > 0]
        if len(ratios) < 2 or min(ratios) <= 0:
            return float("inf")
        return max(ratios) / min(ratios)

    def dominant_ops(self, n: int = 3) -> list[tuple[str, float]]:
        total: dict[str, float] = defaultdict(float)
        for r in self.ranks:
            for op, secs in r.op_seconds.items():
                total[op] += secs
        return sorted(total.items(), key=lambda kv: -kv[1])[:n]

    def mean_event_duration(self, op: str) -> float:
        secs = sum(r.op_seconds.get(op, 0.0) for r in self.ranks)
        count = sum(r.op_counts.get(op, 0) for r in self.ranks)
        return secs / count if count else 0.0


#: Category → index of the per-rank time bin :func:`analyze` adds an
#: event's duration to.  DVS events are effectively instantaneous:
#: counted, but their time goes to a discarded bin.
_BINS = {"compute": 0, "comm": 1, "wait": 2, "idle": 3}
_NO_BIN = 4


def analyze(log: TraceLog) -> TraceStats:
    """Aggregate a trace log into per-rank and whole-job statistics.

    One pass over ``log.events``.  Each float sum is the left-to-right
    ``+=`` of a rank's event durations in log order, and each rank's
    ``op_seconds``/``op_counts`` keep first-seen op order (which
    ``dominant_ops`` breaks ties by).
    """
    bin_of: dict[str, int] = {}
    # rank -> (time bins, op -> [seconds, count])
    state: dict[int, tuple[list[float], dict[str, list]]] = {}
    for rank, op, t_begin, t_end, _, _ in log.events:
        d = t_end - t_begin
        acc = state.get(rank)
        if acc is None:
            acc = state[rank] = ([0.0, 0.0, 0.0, 0.0, 0.0], {})
        bins, ops = acc
        b = bin_of.get(op)
        if b is None:
            b = bin_of[op] = _BINS.get(categorize_op(op), _NO_BIN)
        bins[b] += d
        slot = ops.get(op)
        if slot is None:
            # 0.0 + d, not d: a first duration of -0.0 sums to 0.0.
            ops[op] = [0.0 + d, 1]
        else:
            slot[0] += d
            slot[1] += 1
    ranks = []
    for rank in sorted(state):
        bins, ops = state[rank]
        ranks.append(RankProfile(
            rank,
            compute_s=bins[0],
            comm_s=bins[1],
            wait_s=bins[2],
            idle_s=bins[3],
            op_seconds={op: slot[0] for op, slot in ops.items()},
            op_counts={op: slot[1] for op, slot in ops.items()},
        ))
    return TraceStats(ranks=ranks, duration_s=log.t_max - log.t_min)

"""Phase-level profiling.

The INTERNAL strategy needs to know, per *source phase* (the hook names
a workload announces), how long instances last and how communication-
bound they are.  :class:`PhaseRecorder` is a hooks object that records
every phase interval per rank; :func:`profile_phases` cross-references
those intervals with the MPE-like trace to produce a
:class:`PhaseProfile` per phase — the machine-readable version of what
the paper reads off Jumpshot before designing Figure 10's schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.mpi.communicator import RankContext
from repro.trace.events import TraceLog
from repro.workloads.base import PhaseHooks

__all__ = ["PhaseInterval", "PhaseRecorder", "PhaseProfile", "profile_phases"]


@dataclass(frozen=True)
class PhaseInterval:
    """One executed instance of a named phase on one rank."""

    rank: int
    phase: str
    t_begin: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_begin


class PhaseRecorder(PhaseHooks):
    """Hooks that log every phase interval (no DVS side effects)."""

    def __init__(self) -> None:
        self.intervals: list[PhaseInterval] = []
        self._open: dict[tuple[int, str], float] = {}

    def phase_begin(self, ctx: RankContext, phase: str) -> None:
        self._open[(ctx.rank, phase)] = ctx.env.now

    def phase_end(self, ctx: RankContext, phase: str) -> None:
        key = (ctx.rank, phase)
        t0 = self._open.pop(key, None)
        if t0 is None:
            raise RuntimeError(f"phase_end without begin: {phase!r} on rank {ctx.rank}")
        self.intervals.append(PhaseInterval(ctx.rank, phase, t0, ctx.env.now))

    def phases(self) -> list[str]:
        seen: list[str] = []
        for iv in self.intervals:
            if iv.phase not in seen:
                seen.append(iv.phase)
        return seen


@dataclass
class PhaseProfile:
    """Aggregate behaviour of one named phase across the run."""

    phase: str
    instances: int = 0
    total_seconds: float = 0.0
    mean_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0
    #: share of the phase's time spent in communication (from the trace)
    comm_fraction: float = 0.0
    #: share of whole-job rank-seconds this phase accounts for
    share_of_runtime: float = 0.0
    per_rank_seconds: dict[int, float] = field(default_factory=dict)

    @property
    def is_communication_phase(self) -> bool:
        """Heuristic the auto-scheduler uses: mostly comm inside."""
        return self.comm_fraction >= 0.6


def profile_phases(
    recorder: PhaseRecorder, trace: Optional[TraceLog] = None
) -> dict[str, PhaseProfile]:
    """Aggregate recorded intervals (and, if available, the trace) into
    per-phase profiles."""
    profiles: dict[str, PhaseProfile] = {}
    total_rank_seconds = sum(iv.duration for iv in recorder.intervals)
    for iv in recorder.intervals:
        prof = profiles.get(iv.phase)
        if prof is None:
            prof = profiles[iv.phase] = PhaseProfile(iv.phase)
        prof.instances += 1
        prof.total_seconds += iv.duration
        prof.min_seconds = min(prof.min_seconds, iv.duration)
        prof.max_seconds = max(prof.max_seconds, iv.duration)
        prof.per_rank_seconds[iv.rank] = (
            prof.per_rank_seconds.get(iv.rank, 0.0) + iv.duration
        )
    for prof in profiles.values():
        prof.mean_seconds = prof.total_seconds / prof.instances
        if total_rank_seconds > 0:
            prof.share_of_runtime = prof.total_seconds / total_rank_seconds

    if trace is not None:
        _attach_comm_fractions(profiles, recorder, trace)
    return profiles


def _attach_comm_fractions(
    profiles: dict[str, PhaseProfile],
    recorder: PhaseRecorder,
    trace: TraceLog,
) -> None:
    """Overlap trace comm events with phase windows, per rank.

    Vectorized: per rank, every (interval × event) overlap comes from
    one broadcast min/max; per phase, the positive overlaps then
    accumulate with ``np.cumsum`` — strictly left to right, in the same
    (interval order, event order) sequence as the scalar nested loop,
    so the result is bit-identical to it.
    """
    comm_events = [e for e in trace if e.category in ("comm", "wait")]
    by_rank: dict[int, list] = {}
    for e in comm_events:
        by_rank.setdefault(e.rank, []).append(e)
    intervals = recorder.intervals
    idx_by_rank: dict[int, list[int]] = {}
    for i, iv in enumerate(intervals):
        idx_by_rank.setdefault(iv.rank, []).append(i)
    row_overlaps: list[Optional[np.ndarray]] = [None] * len(intervals)
    for rank, indices in idx_by_rank.items():
        events = by_rank.get(rank)
        if not events:
            continue
        eb = np.array([e.t_begin for e in events], dtype=float)
        ee = np.array([e.t_end for e in events], dtype=float)
        ib = np.array([intervals[i].t_begin for i in indices], dtype=float)
        ie = np.array([intervals[i].t_end for i in indices], dtype=float)
        overlap = np.minimum(ie[:, None], ee[None, :]) - np.maximum(
            ib[:, None], eb[None, :]
        )
        for row, i in enumerate(indices):
            vals = overlap[row]
            row_overlaps[i] = vals[vals > 0.0]
    comm_inside: dict[str, float] = {name: 0.0 for name in profiles}
    by_phase: dict[str, list[np.ndarray]] = {}
    for i, iv in enumerate(intervals):
        vals = row_overlaps[i]
        if vals is not None and vals.size:
            by_phase.setdefault(iv.phase, []).append(vals)
    for name, chunks in by_phase.items():
        comm_inside[name] = float(np.cumsum(np.concatenate(chunks))[-1])
    for name, prof in profiles.items():
        if prof.total_seconds > 0:
            prof.comm_fraction = min(1.0, comm_inside[name] / prof.total_seconds)

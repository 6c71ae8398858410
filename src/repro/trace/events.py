"""Trace event log — the instrumented-MPICH analogue."""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

__all__ = ["TraceEvent", "TraceLog", "OP_CATEGORIES", "categorize_op"]


#: Operation-name → category ("compute", "comm", "wait", "dvs", "idle").
OP_CATEGORIES: dict[str, str] = {
    "compute": "compute",
    "idle": "idle",
    "set_cpuspeed": "dvs",
    "send": "comm",
    "recv": "comm",
    "wait_send": "wait",
    "wait_recv": "wait",
    "barrier": "comm",
    "bcast": "comm",
    "reduce": "comm",
    "allreduce": "comm",
    "allgather": "comm",
    "alltoall": "comm",
    "alltoallv": "comm",
}


def categorize_op(op: str) -> str:
    """Category of an operation name (unknown ops count as comm)."""
    return OP_CATEGORIES.get(op, "comm")


class TraceEvent(NamedTuple):
    """One logged operation interval on one rank.

    A named tuple: immutable, hashable, compared field by field, and
    cheap to build (the CSV decoder calls ``tuple.__new__`` on a ready
    field tuple, with no Python frame per event).  Being a tuple,
    an event also equals the plain tuple of its fields:
    ``TraceEvent(0, "compute", 0.0, 1.0) == (0, "compute", 0.0, 1.0,
    0.0, -1)``.
    """

    rank: int
    op: str
    t_begin: float
    t_end: float
    nbytes: float = 0.0
    peer: int = -1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_begin

    @property
    def category(self) -> str:
        return categorize_op(self.op)


class TraceLog:
    """Accumulates :class:`TraceEvent`\\ s; attach as the MPI tracer.

    Implements the tracer protocol the communicator expects:
    ``record(rank, op, t_begin, t_end, nbytes, peer)``.

    Order contract: the events of one rank, taken in log order, are
    that rank's operations in program order, and both simulation tiers
    (the event engine and :mod:`repro.sim.straightline`) record them
    bit-equal.  How the events of *different* ranks interleave in
    ``events`` differs between the tiers and carries no meaning: even
    sorted by ``t_end``, two tiers' logs can disagree.  Consumers read
    per-rank order only (:meth:`for_rank`, as
    :func:`~repro.trace.stats.analyze`,
    :func:`~repro.trace.jumpshot.render_timeline` and the phase
    profiler do).
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(
        self,
        rank: int,
        op: str,
        t_begin: float,
        t_end: float,
        nbytes: float = 0.0,
        peer: int = -1,
    ) -> None:
        if t_end < t_begin:
            raise ValueError("event ends before it begins")
        self.events.append(TraceEvent(rank, op, t_begin, t_end, nbytes, peer))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def ranks(self) -> list[int]:
        return sorted({e.rank for e in self.events})

    @property
    def t_min(self) -> float:
        return min((e.t_begin for e in self.events), default=0.0)

    @property
    def t_max(self) -> float:
        return max((e.t_end for e in self.events), default=0.0)

    def for_rank(self, rank: int) -> list[TraceEvent]:
        return [e for e in self.events if e.rank == rank]

    def filter(
        self,
        op: Optional[str] = None,
        category: Optional[str] = None,
        ranks: Optional[Iterable[int]] = None,
    ) -> list[TraceEvent]:
        rankset = set(ranks) if ranks is not None else None
        out = []
        for e in self.events:
            if op is not None and e.op != op:
                continue
            if category is not None and e.category != category:
                continue
            if rankset is not None and e.rank not in rankset:
                continue
            out.append(e)
        return out

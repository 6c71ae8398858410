"""Shared fixtures for the gear-plan optimizer tests."""

from __future__ import annotations

from typing import Callable, Generator

import pytest

from repro.hardware.opoints import PENTIUM_M_TABLE, OperatingPointTable
from repro.mpi.communicator import RankContext
from repro.workloads.base import NO_HOOKS, PhaseHooks, Workload


class TwoGroupWorkload(Workload):
    """Tiny two-group, two-phase code for brute-force comparisons.

    Ranks in the lower half do more on-chip work than the upper half
    (two rank-equivalence groups); each step is a ``work`` compute
    phase then a ``sync`` allreduce.  Collective-only traffic keeps
    every plan on its quotient program.
    """

    name = "T2"
    klass = "T"
    phases = ("work", "sync")

    def __init__(self, nprocs: int = 4, steps: int = 3) -> None:
        if nprocs < 2 or nprocs % 2:
            raise ValueError("needs an even rank count >= 2")
        self.nprocs = nprocs
        self.steps = steps

    def make_program(
        self, hooks: PhaseHooks = NO_HOOKS
    ) -> Callable[[RankContext], Generator]:
        half = self.nprocs // 2
        steps = self.steps

        def program(ctx: RankContext) -> Generator:
            hooks.on_init(ctx)
            on = 0.004 if ctx.rank < half else 0.0015
            for _ in range(steps):
                hooks.phase_begin(ctx, "work")
                yield from ctx.compute(
                    seconds=on, offchip_seconds=0.001, mem_activity=0.5
                )
                hooks.phase_end(ctx, "work")
                hooks.phase_begin(ctx, "sync")
                yield from ctx.allreduce(8)
                hooks.phase_end(ctx, "sync")

        return program


@pytest.fixture
def two_group() -> TwoGroupWorkload:
    return TwoGroupWorkload(nprocs=4, steps=3)


@pytest.fixture
def three_gears() -> OperatingPointTable:
    """600/1000/1400 MHz — a 3-point subset of the Pentium M table."""
    return OperatingPointTable(
        [PENTIUM_M_TABLE[0], PENTIUM_M_TABLE[2], PENTIUM_M_TABLE[4]]
    )

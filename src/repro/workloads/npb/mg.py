"""MG — multigrid kernel.

V-cycles over a grid hierarchy: compute bursts and halo exchanges
alternate quickly, which is exactly the structure that defeats the
CPUSPEED daemon's history-based prediction (paper: 21 % energy saved at
a 32 % delay cost).  Type II crescendo: energy falls about as fast as
delay rises (Table 2: D(600) = 1.39, E(600) = 0.76).
"""

from __future__ import annotations

import math
from typing import Callable, Generator

from repro.mpi.communicator import RankContext
from repro.mpi.costmodel import CostModel, WaitSignature
from repro.workloads.base import NO_HOOKS, PhaseHooks, Workload
from repro.workloads.npb.params import scale_for

__all__ = ["MG"]


class MG(Workload):
    """NAS MG phase program."""

    name = "MG"
    phases = ("residual", "halo", "norm")

    BASE_CYCLES = 30
    LEVELS = 5
    #: per-V-cycle totals at 1400 MHz
    ON_S = 0.35
    OFF_S = 0.45
    HALO_BYTES_L0 = 1.7e6
    MEM_ACTIVITY = 0.6
    #: geometric decay of work and message size per level
    LEVEL_DECAY = 0.25
    #: per-rank compute jitter (grid halo splits are never perfectly even)
    IMBALANCE = 0.03

    def __init__(self, klass: str = "C", nprocs: int = 8) -> None:
        if nprocs < 2 or nprocs % 2:
            # the halo partner rank ^ 1 must be a rank of the job
            raise ValueError("MG model needs an even rank count >= 2")
        self.klass = klass.upper()
        self.nprocs = nprocs
        s = scale_for(self.klass)
        rank_scale = 8.0 / nprocs
        self.cycles = s.n_iters(self.BASE_CYCLES)
        # per-level compute shares (down-sweep + up-sweep touch each level)
        weights = [self.LEVEL_DECAY**l for l in range(self.LEVELS)]
        total = sum(weights)
        self.level_on = [self.ON_S * s.seconds * rank_scale * w / total for w in weights]
        self.level_off = [self.OFF_S * s.seconds * rank_scale * w / total for w in weights]
        self.level_bytes = [
            self.HALO_BYTES_L0 * s.bytes * rank_scale * self.LEVEL_DECAY**l
            for l in range(self.LEVELS)
        ]
        self.rank_factor = [
            1.0 + self.IMBALANCE * math.sin(2.0 * math.pi * r / nprocs)
            for r in range(nprocs)
        ]

    def cost_model(self) -> CostModel:
        # Halo exchanges at fine granularity: mostly blocked polling
        # (low busy share), which pulls the daemon's windows under its
        # usage threshold — calibrated against the paper's MG "auto".
        return CostModel(
            comm_progress=WaitSignature(
                activity=0.85, busy=0.25, mem_activity=0.25, nic_activity=1.0
            )
        )

    def neighbor(self, rank: int) -> int:
        """Halo partner (hypercube-style pairing by lowest dimension)."""
        return rank ^ 1

    def make_program(
        self, hooks: PhaseHooks = NO_HOOKS
    ) -> Callable[[RankContext], Generator]:
        def program(ctx: RankContext) -> Generator:
            hooks.on_init(ctx)
            nbr = self.neighbor(ctx.rank)
            imb = self.rank_factor[ctx.rank]
            for _ in range(self.cycles):
                # down-sweep then up-sweep over the level hierarchy
                for level in list(range(self.LEVELS)) + list(
                    reversed(range(self.LEVELS))
                ):
                    hooks.phase_begin(ctx, "residual")
                    yield from ctx.compute(
                        seconds=self.level_on[level] / 2.0 * imb,
                        offchip_seconds=self.level_off[level] / 2.0 * imb,
                        mem_activity=self.MEM_ACTIVITY,
                    )
                    hooks.phase_end(ctx, "residual")
                    hooks.phase_begin(ctx, "halo")
                    yield from ctx.sendrecv(
                        nbr, self.level_bytes[level], src=nbr, tag=10 + level
                    )
                    hooks.phase_end(ctx, "halo")
                hooks.phase_begin(ctx, "norm")
                yield from ctx.allreduce(8)
                hooks.phase_end(ctx, "norm")

        return program

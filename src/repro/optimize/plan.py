"""Computed gear plans: per-rank-group, per-phase operating points.

The optimizer's search space is a table ``mhz[group][phase]`` over the
workload's rank-equivalence groups (ranks with identical phase programs,
:attr:`repro.workloads.compile.CompiledProgram.group_of`) and announced
phases.  :class:`OptimalPlanStrategy` turns one such table into a plain
scheduling strategy:

* **setup time** pins every rank's node at its group's first-phase
  speed (the EXTERNAL actuation path — free of in-run overhead);
* ranks whose row is *uniform* across phases never issue a call: their
  schedule is exactly a per-rank EXTERNAL setting, bit-for-bit;
* ranks whose row *varies* issue one ``set_cpuspeed`` per phase begin,
  exactly like the paper's INTERNAL instrumentation (each call charges
  the cost model's actuation overhead, so the optimizer sees the true
  price of per-phase switching).

The table lowers to one :class:`~repro.core.strategies.base.GearPlan`
(:meth:`OptimalPlanStrategy.gear_plan`): ``start_mhz_per_rank`` plus
per-rank phase tables (``rank_begin_calls``).  Both engines run that
plan — the event engine through the strategy's default
``setup``/``hooks``, the straightline and quotient tiers by lowering it
onto the compiled program — so no engine code is specific to computed
schedules.

Two consequences the search relies on: the all-fastest table is
bit-identical to a no-DVS run (zero calls), so the paper's baseline is
always a feasible candidate; and ranks in the same group always receive
identical calls, which keeps a symmetric workload's candidate batch on
the quotient program — the execution partition stays at G groups for
every candidate at once.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.workloads.base import Workload
from repro.core.strategies.base import GearPlan, Strategy

__all__ = ["OptimalPlanStrategy"]


class OptimalPlanStrategy(Strategy):
    """A computed per-group, per-phase schedule as a plain strategy.

    Parameters
    ----------
    group_of:
        Rank → group id, one entry per rank (the compile-time
        rank-equivalence partition, or any coarsening of it).
    phases:
        Phase names the table's columns refer to, in table order.
        Must be announced by the workload (validated in
        :meth:`gear_plan`).
    table:
        ``table[group][phase_index]`` = MHz for that group during that
        phase.  The group's first-phase speed doubles as its setup-time
        speed; a group whose row never varies keeps it for the whole
        run without issuing a single call.
    label:
        Display name for reports (default ``"optimal"``).

    The strategy is a value type: plain tuples all the way down, so it
    pickles into parallel workers and its public attributes content-hash
    into measurement cache keys like every other strategy.
    """

    name = "optimal"

    def __init__(
        self,
        group_of: Sequence[int],
        phases: Sequence[str],
        table: Sequence[Sequence[float]],
        label: Optional[str] = None,
    ) -> None:
        self.group_of = tuple(int(g) for g in group_of)
        self.phases = tuple(str(p) for p in phases)
        self.table = tuple(tuple(float(m) for m in row) for row in table)
        self.label = label
        if not self.phases:
            raise ValueError("need at least one phase column")
        n_groups = 1 + max(self.group_of) if self.group_of else 0
        if len(self.table) != n_groups:
            raise ValueError(
                f"table covers {len(self.table)} groups but group_of "
                f"names {n_groups}"
            )
        for row in self.table:
            if len(row) != len(self.phases):
                raise ValueError(
                    f"table row has {len(row)} entries for "
                    f"{len(self.phases)} phases"
                )

    # ------------------------------------------------------------------
    def _validate(self, workload: Workload) -> None:
        if len(self.group_of) != workload.nprocs:
            raise ValueError(
                f"plan maps {len(self.group_of)} ranks but {workload.tag} "
                f"runs {workload.nprocs}"
            )
        unknown = set(self.phases) - set(workload.phases)
        if unknown:
            raise ValueError(
                f"plan schedules phases {sorted(unknown)} that "
                f"{workload.tag} never announces (has {workload.phases})"
            )

    def gear_plan(self, workload: Optional[Workload] = None) -> Optional[GearPlan]:
        """The table as a plan over ``len(group_of)`` ranks; a workload
        only validates it."""
        if workload is not None:
            self._validate(workload)
        varies = [len(set(row)) > 1 for row in self.table]
        start = tuple(self.table[g][0] for g in self.group_of)
        rank_begin = []
        for i, phase in enumerate(self.phases):
            per_rank = tuple(
                (self.table[g][i],) if varies[g] else ()
                for g in self.group_of
            )
            if any(per_rank):
                rank_begin.append((phase, per_rank))
        return GearPlan(
            start_mhz_per_rank=start, rank_begin_calls=tuple(rank_begin)
        )

    def describe(self) -> str:
        label = self.label or "optimal"
        cells = sorted({m for row in self.table for m in row})
        gears = "/".join(f"{m:g}" for m in cells)
        return f"optimal[{label} {len(self.table)}g x {len(self.phases)}p {gears}MHz]"

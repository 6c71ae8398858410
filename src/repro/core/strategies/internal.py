"""Strategy #3 — INTERNAL source-level scheduling (paper Section 3.3).

User-driven, internal control: ``set_cpuspeed`` calls inserted in the
application around phases.  Two policy shapes cover the paper's two
case studies:

* :class:`PhasePolicy` — FT (Figure 10): drop to ``low_mhz`` when a
  named phase (the all-to-all) begins, restore ``high_mhz`` when it
  ends.
* :class:`RankPolicy` — CG (Figure 13): set a static per-rank speed at
  MPI_Init time (heterogeneous scheduling for asymmetric codes).

Policies are :class:`~repro.workloads.base.PhaseHooks`, i.e. exactly
the instrumentation surface every workload program exposes at the
source locations where the paper inserts its API calls.  The stock
shapes lower to a :class:`~repro.core.strategies.base.GearPlan`, and
both engines run that plan; only a policy that cannot be lowered runs
its own hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from repro.mpi.communicator import RankContext
from repro.workloads.base import PhaseHooks, Workload
from repro.core.strategies.base import GearPlan, Strategy

__all__ = ["PhasePolicy", "RankPolicy", "SplitSpeeds", "InternalStrategy"]


class PhasePolicy(PhaseHooks):
    """Scale down during named phases, restore afterwards.

    Parameters
    ----------
    low_phases:
        Phase names that run at ``low_mhz`` (e.g. ``{"alltoall"}``).
    low_mhz / high_mhz:
        The two operating points (paper FT: 600 / 1400).
    min_phase_seconds:
        The shortest phase the deriving heuristic thought worth a
        switch (:func:`~repro.core.strategies.auto.derive_phase_policy`
        records it).  Nothing acts on it: the policy switches at every
        listed phase.  It stays a public attribute because it is part
        of the policy's cache key.
    """

    def __init__(
        self,
        low_phases: Iterable[str],
        low_mhz: float = 600.0,
        high_mhz: float = 1400.0,
        min_phase_seconds: float = 0.0,
    ) -> None:
        self.low_phases = frozenset(low_phases)
        if not self.low_phases:
            raise ValueError("need at least one phase to scale down")
        self.low_mhz = low_mhz
        self.high_mhz = high_mhz
        self.min_phase_seconds = min_phase_seconds

    def on_init(self, ctx: RankContext) -> None:
        ctx.set_cpuspeed(self.high_mhz)

    def phase_begin(self, ctx: RankContext, phase: str) -> None:
        if phase in self.low_phases:
            ctx.set_cpuspeed(self.low_mhz)

    def phase_end(self, ctx: RankContext, phase: str) -> None:
        if phase in self.low_phases:
            ctx.set_cpuspeed(self.high_mhz)

    def __repr__(self) -> str:
        return (
            f"PhasePolicy({sorted(self.low_phases)}, "
            f"low={self.low_mhz:g}, high={self.high_mhz:g})"
        )


@dataclass(frozen=True)
class SplitSpeeds:
    """Rank→MHz rule behind :meth:`RankPolicy.split`.

    A plain dataclass (not a closure) so split policies pickle into
    parallel workers and carry their configuration into cache keys.
    """

    n_high: int
    high_mhz: float
    low_mhz: float

    def __call__(self, rank: int) -> float:
        return self.high_mhz if rank < self.n_high else self.low_mhz


class RankPolicy(PhaseHooks):
    """Static heterogeneous per-rank speeds set at MPI_Init.

    ``speed_of`` maps a rank to its MHz; the convenience constructor
    :meth:`split` reproduces the paper's CG policy (Figure 13): the
    first ``n_high`` ranks at ``high_mhz``, the rest at ``low_mhz``.
    """

    def __init__(self, speed_of: Callable[[int], float] | Mapping[int, float]) -> None:
        if isinstance(speed_of, Mapping):
            self.speeds: Optional[dict[int, float]] = dict(speed_of)
            self.speed_rule: Optional[Callable[[int], float]] = None
        else:
            self.speeds = None
            self.speed_rule = speed_of

    def _speed_of(self, rank: int) -> float:
        if self.speeds is not None:
            return self.speeds[rank]
        assert self.speed_rule is not None
        return self.speed_rule(rank)

    @classmethod
    def split(
        cls, n_high: int, high_mhz: float, low_mhz: float
    ) -> "RankPolicy":
        """Ranks ``< n_high`` run at ``high_mhz``, others at ``low_mhz``."""
        return cls(SplitSpeeds(n_high, high_mhz, low_mhz))

    def on_init(self, ctx: RankContext) -> None:
        ctx.set_cpuspeed(self._speed_of(ctx.rank))

    def __repr__(self) -> str:
        if self.speeds is not None:
            return f"RankPolicy({self.speeds!r})"
        return f"RankPolicy({self.speed_rule!r})"


class InternalStrategy(Strategy):
    """Wrap a phase/rank policy as a scheduling strategy."""

    name = "internal"

    def __init__(self, policy: PhaseHooks, label: Optional[str] = None) -> None:
        self.policy = policy
        self.label = label

    def describe(self) -> str:
        if self.label:
            return f"internal[{self.label}]"
        return f"internal({self.policy!r})"

    def hooks(self, workload: Workload) -> PhaseHooks:
        """The lowered plan's calls, or the policy itself when it cannot
        be lowered."""
        plan = self.gear_plan(workload)
        return self.policy if plan is None else plan.hooks()

    def gear_plan(self, workload: Optional[Workload] = None) -> Optional[GearPlan]:
        """Lower the policy's hook calls to a static (rank, phase) table.

        Only the exact stock policy shapes are lowered — a subclass may
        override hook behaviour arbitrarily, so it conservatively stays
        on the event engine, which runs its own hooks.
        """
        if workload is None:
            return None
        policy = self.policy
        if isinstance(policy, PhasePolicy):
            unknown = policy.low_phases - set(workload.phases)
            if unknown:
                raise ValueError(
                    f"policy targets phases {sorted(unknown)} that "
                    f"{workload.tag} never announces (has {workload.phases})"
                )
        if type(policy) is PhasePolicy:
            low = tuple(sorted(policy.low_phases))
            return GearPlan(
                init_calls=((float(policy.high_mhz),),) * workload.nprocs,
                begin_calls=tuple((p, (float(policy.low_mhz),)) for p in low),
                end_calls=tuple((p, (float(policy.high_mhz),)) for p in low),
            )
        if type(policy) is RankPolicy:
            try:
                return GearPlan(
                    init_calls=tuple(
                        (float(policy._speed_of(r)),)
                        for r in range(workload.nprocs)
                    )
                )
            except Exception:
                # A rank the mapping doesn't cover, a rule that raises:
                # let the event engine surface the genuine error.
                return None
        return None

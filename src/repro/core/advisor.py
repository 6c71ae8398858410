"""Schedule advisor — "middleware that alleviates users from thinking
about power" (paper Sections 6-7).

Given a workload and a user-chosen fused metric, the advisor runs the
paper's full methodology automatically:

1. one profiling run (trace + phase recording),
2. the EXTERNAL frequency sweep with metric-driven selection,
3. automatically derived INTERNAL candidates (phase-based and
   rank-heterogeneous, when the profile justifies them),
4. a CPUSPEED daemon run,

then evaluates every candidate by direct measurement and ranks them by
the metric.  The result records the whole comparison, so a user can see
*why* a schedule was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.workloads.base import Workload
from repro.core.framework import Measurement
from repro.core.metrics import ED3P, FusedMetric
from repro.core.strategies import (
    BetaConfig,
    BetaDaemonStrategy,
    CpuspeedDaemonStrategy,
    ExternalStrategy,
    InternalStrategy,
    NoDvsStrategy,
    PredictiveDaemonStrategy,
    Strategy,
)
from repro.core.strategies.auto import (
    WorkloadProfile,
    derive_phase_policy,
    derive_rank_policy,
    profile_workload,
)

__all__ = ["CandidateResult", "Advice", "ScheduleAdvisor"]


@dataclass
class CandidateResult:
    """One evaluated scheduling candidate."""

    label: str
    strategy: Strategy
    norm_delay: float
    norm_energy: float
    metric_value: float
    measurement: Measurement

    @property
    def energy_saving(self) -> float:
        return 1.0 - self.norm_energy

    @property
    def delay_increase(self) -> float:
        return self.norm_delay - 1.0


@dataclass
class Advice:
    """The advisor's output: a ranked comparison plus the winner."""

    workload: str
    metric: str
    candidates: list[CandidateResult]
    profile: WorkloadProfile
    max_delay_increase: Optional[float] = None

    @property
    def best(self) -> CandidateResult:
        return self.candidates[0]

    def render(self) -> str:
        lines = [
            f"Schedule advice for {self.workload} (metric: {self.metric}"
            + (
                f", delay cap {self.max_delay_increase:+.0%})"
                if self.max_delay_increase is not None
                else ")"
            )
        ]
        lines.append(
            f"{'rank':<5} {'schedule':<34} {'delay':>7} {'energy':>7} {self.metric:>8}"
        )
        for i, c in enumerate(self.candidates, start=1):
            marker = " <- recommended" if i == 1 else ""
            if (
                self.max_delay_increase is not None
                and c.delay_increase > self.max_delay_increase + 1e-9
            ):
                # Violators already rank after every compliant candidate;
                # say *why* instead of letting them sit there silently.
                marker = (
                    f" !! exceeds delay cap: measured "
                    f"{c.delay_increase:+.1%} > allowed "
                    f"{self.max_delay_increase:+.1%}"
                )
            lines.append(
                f"{i:<5} {c.label:<34} {c.norm_delay:>7.3f} "
                f"{c.norm_energy:>7.3f} {c.metric_value:>8.4f}{marker}"
            )
        return "\n".join(lines)


class ScheduleAdvisor:
    """Automated strategy selection for one workload."""

    def __init__(
        self,
        metric: FusedMetric = ED3P,
        frequencies_mhz: Optional[Sequence[float]] = None,
        include_daemon: bool = True,
        include_future_daemons: bool = False,
        include_optimal: bool = False,
        max_delay_increase: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        self.metric = metric
        self.frequencies_mhz = frequencies_mhz
        self.include_daemon = include_daemon
        #: also evaluate the beyond-the-paper schedulers (predictive and
        #: beta-adaptive daemons).
        self.include_future_daemons = include_future_daemons
        #: also run the offline gear-plan optimizer
        #: (:func:`repro.optimize.optimize_gear_plan`) and enter its
        #: winning plan as a candidate.  The optimizer's delta is the
        #: advisor's delay cap (default 0.05 when no cap is set).
        self.include_optimal = include_optimal
        #: optional hard performance constraint: candidates above this
        #: normalized-delay increase are ranked after all compliant ones.
        self.max_delay_increase = max_delay_increase
        self.seed = seed

    # ------------------------------------------------------------------
    def advise(self, workload: Workload) -> Advice:
        # Imported here: repro.experiments depends on repro.core, so a
        # module-level import would be circular.
        from repro.experiments.runner import frequency_sweep

        profile = profile_workload(workload, seed=self.seed)
        baseline = profile.measurement

        candidates: list[tuple[str, Strategy]] = [("no-dvs", NoDvsStrategy())]

        # EXTERNAL: metric-selected static frequency from a sweep.
        sweep = frequency_sweep(workload, self.frequencies_mhz, seed=self.seed)
        external = ExternalStrategy(profile=sweep.normalized, metric=self.metric)
        candidates.append((external.describe(), external))

        # INTERNAL: automatically derived policies, when justified.
        phase_policy = derive_phase_policy(profile)
        if phase_policy is not None:
            candidates.append(
                (
                    f"auto-internal phases {sorted(phase_policy.low_phases)}",
                    InternalStrategy(phase_policy, label="auto-phase"),
                )
            )
        rank_policy = derive_rank_policy(profile)
        if rank_policy is not None:
            candidates.append(
                ("auto-internal per-rank speeds",
                 InternalStrategy(rank_policy, label="auto-rank"))
            )

        if self.include_daemon:
            candidates.append(("cpuspeed daemon", CpuspeedDaemonStrategy()))
        if self.include_future_daemons:
            candidates.append(("predictive daemon", PredictiveDaemonStrategy()))
            delta = self.max_delay_increase if self.max_delay_increase else 0.05
            candidates.append(
                (f"beta daemon (delta={delta:g})",
                 BetaDaemonStrategy(BetaConfig(delta=delta)))
            )
        if self.include_optimal and workload.phases:
            from repro.optimize import optimize_gear_plan

            delta = self.max_delay_increase if self.max_delay_increase else 0.05
            plan = optimize_gear_plan(workload, delta=delta, seed=self.seed)
            candidates.append(
                (f"computed plan (delta={delta:g})", plan.strategy)
            )

        # Candidate evaluation is one grid through the current runner:
        # map_sweep batches the static candidates through the
        # straightline tiers (bit-identical to per-point run_workload)
        # and memoizes each point, so advisors sharing a runner share
        # fills.
        from repro.experiments.parallel import RunTask, current_runner

        measured: dict[int, Measurement] = {}
        tasks: list[tuple[int, RunTask]] = []
        for i, (_label, strategy) in enumerate(candidates):
            if isinstance(strategy, ExternalStrategy) and strategy.mhz in sweep.raw:
                measured[i] = sweep.raw[strategy.mhz]  # reuse the sweep's run
            else:
                tasks.append((i, RunTask(workload, strategy, self.seed)))
        for (i, _task), m in zip(
            tasks, current_runner().map_sweep([t for _, t in tasks])
        ):
            measured[i] = m

        results = []
        for i, (label, strategy) in enumerate(candidates):
            m = measured[i]
            d, e = m.normalized_against(baseline)
            results.append(
                CandidateResult(label, strategy, d, e, self.metric(d, e), m)
            )

        results.sort(key=self._rank_key)
        return Advice(
            workload=workload.tag,
            metric=self.metric.name,
            candidates=results,
            profile=profile,
            max_delay_increase=self.max_delay_increase,
        )

    def _rank_key(self, c: CandidateResult):
        violates = (
            self.max_delay_increase is not None
            and c.delay_increase > self.max_delay_increase + 1e-9
        )
        return (violates, c.metric_value, c.norm_delay)

"""Figure regeneration — one function per paper figure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.sim.engine import Environment
from repro.hardware.cluster import nemo_cluster
from repro.hardware.power import PENTIUM3_POWER
from repro.hardware.power import PENTIUM3_TABLE  # type: ignore[attr-defined]
from repro.mpi.launcher import launch
from repro.powerpack.profiles import PowerProfile
from repro.trace.events import TraceLog
from repro.trace.stats import TraceStats, analyze
from repro.core.crescendo import Crescendo, CrescendoType
from repro.core.framework import Measurement
from repro.core.metrics import ED2P, ED3P, FusedMetric, select_operating_point
from repro.core.strategies import (
    CpuspeedDaemonStrategy,
    InternalStrategy,
    PhasePolicy,
    RankPolicy,
)
from repro.experiments.calibration import FREQUENCIES_MHZ
from repro.experiments.parallel import RunTask, current_runner
from repro.experiments.runner import SweepResult, frequency_sweep, frequency_sweep_many
from repro.experiments.tables import NPB_CODES
from repro.workloads import get_workload

__all__ = [
    "PowerBreakdownResult",
    "figure1_power_breakdown",
    "figure2_swim_crescendo",
    "StrategyComparison",
    "figure5_cpuspeed",
    "MetricSelectionResult",
    "figure6_external_ed3p",
    "figure7_external_ed2p",
    "CrescendoFigure",
    "figure8_crescendos",
    "TraceFigure",
    "figure9_ft_trace",
    "figure11_ft_internal",
    "figure12_cg_trace",
    "figure14_cg_internal",
    "InternalComparison",
    "OptimalFrontierFigure",
    "figure_optimal_frontier",
]


# ----------------------------------------------------------------------
# Figure 1 — node power breakdown under load vs idle (Pentium III node)
# ----------------------------------------------------------------------
@dataclass
class PowerBreakdownResult:
    """Component power shares under load and at idle."""

    load_fractions: dict[str, float]
    idle_fractions: dict[str, float]

    @property
    def cpu_share_load(self) -> float:
        return self.load_fractions["cpu"]

    @property
    def cpu_share_idle(self) -> float:
        return self.idle_fractions["cpu"]


def figure1_power_breakdown(run_seconds: float = 30.0) -> PowerBreakdownResult:
    """Reproduce Figure 1 on the Pentium III node model.

    Runs swim (memory bound, like the paper's measurement) and samples
    the component breakdown; then samples the same node idle.
    """
    env = Environment()
    cluster = nemo_cluster(
        env, 1, power=PENTIUM3_POWER, opoints=PENTIUM3_TABLE, with_batteries=False
    )
    profile = PowerProfile(cluster, interval_s=0.25)
    swim = get_workload("SWIM", steps=max(2, int(run_seconds / 1.5)))
    profile.start()
    handle = launch(cluster, swim.make_program(), nprocs=1)
    env.run(handle.done)
    handle.check()
    profile.stop()
    load = profile.mean_fractions(0)

    idle_profile = PowerProfile(cluster, interval_s=0.25)
    idle_profile.start()
    env.run(until=env.now + run_seconds)
    idle_profile.stop()
    idle = idle_profile.mean_fractions(0)
    return PowerBreakdownResult(load_fractions=load, idle_fractions=idle)


# ----------------------------------------------------------------------
# Figure 2 — swim single-node energy-delay crescendo
# ----------------------------------------------------------------------
def figure2_swim_crescendo(seed: int = 0) -> SweepResult:
    """Reproduce Figure 2: swim at each fixed frequency on one node."""
    swim = get_workload("SWIM")
    return frequency_sweep(swim, FREQUENCIES_MHZ, seed=seed)


# ----------------------------------------------------------------------
# Figure 5 — CPUSPEED daemon across the NPB suite
# ----------------------------------------------------------------------
@dataclass
class StrategyComparison:
    """Normalized (delay, energy) per code for one strategy."""

    strategy: str
    points: dict[str, tuple[float, float]]
    measurements: dict[str, Measurement] = field(default_factory=dict)

    def sorted_by_delay(self) -> list[tuple[str, float, float]]:
        """The paper sorts Figure 5/6/7 by normalized delay."""
        return sorted(
            ((code, d, e) for code, (d, e) in self.points.items()),
            key=lambda t: t[1],
        )


def figure5_cpuspeed(
    codes: Optional[Sequence[str]] = None,
    klass: str = "C",
    interval_s: float = 2.0,
    seed: int = 0,
    sweeps: Optional[Mapping[str, SweepResult]] = None,
) -> StrategyComparison:
    """Reproduce Figure 5: CPUSPEED v1.2.1 on the NPB codes.

    CPUSPEED is normalized against the full-speed run with no DVS.  A
    code with a sweep in ``sweeps`` (code → Table 2 sweep, as Figures
    6/7/8 take) reuses that sweep's full-speed run, Table 2's 1400 MHz
    column ``sweep.raw[sweep.baseline_mhz]``: EXTERNAL at the fastest
    point is the same simulation as no DVS, so only the daemon run is
    submitted.  A code without a sweep gets its own no-DVS run, batched
    with the daemon runs.
    """
    from repro.core.strategies.cpuspeed import CpuspeedConfig

    code_list = [c.upper() for c in (codes or NPB_CODES)]
    workloads = {
        code: get_workload(code, klass=klass, nprocs=NPB_CODES[code])
        for code in code_list
    }
    config = CpuspeedConfig(interval_s=interval_s)
    tasks: list[RunTask] = []
    baseline_slots: dict[str, int] = {}
    for code in code_list:
        if sweeps is None or code not in sweeps:
            baseline_slots[code] = len(tasks)
            tasks.append(RunTask(workloads[code], None, seed))
        tasks.append(RunTask(workloads[code], CpuspeedDaemonStrategy(config), seed))
    results = current_runner().map(tasks)

    points: dict[str, tuple[float, float]] = {}
    measurements: dict[str, Measurement] = {}
    cursor = 0
    for code in code_list:
        if code in baseline_slots:
            baseline = results[cursor]
            cursor += 1
        else:
            sweep = sweeps[code]
            baseline = sweep.raw[sweep.baseline_mhz]
        auto = results[cursor]
        cursor += 1
        points[code] = auto.normalized_against(baseline)
        measurements[code] = auto
    return StrategyComparison("cpuspeed", points, measurements)


# ----------------------------------------------------------------------
# Figures 6/7 — EXTERNAL scheduling with metric-driven selection
# ----------------------------------------------------------------------
@dataclass
class MetricSelectionResult:
    """Figure 6/7: per code, the metric-selected frequency and outcome."""

    metric: str
    selected_mhz: dict[str, float]
    points: dict[str, tuple[float, float]]
    sweeps: dict[str, SweepResult]

    def sorted_by_delay(self) -> list[tuple[str, float, float]]:
        return sorted(
            ((code, d, e) for code, (d, e) in self.points.items()),
            key=lambda t: t[1],
        )


def _external_with_metric(
    metric: FusedMetric,
    codes: Optional[Sequence[str]],
    klass: str,
    seed: int,
    sweeps: Optional[Mapping[str, SweepResult]] = None,
) -> MetricSelectionResult:
    code_list = [c.upper() for c in (codes or NPB_CODES)]
    fresh = _sweep_missing(code_list, sweeps, klass, seed)
    selected: dict[str, float] = {}
    points: dict[str, tuple[float, float]] = {}
    used_sweeps: dict[str, SweepResult] = {}
    for code in code_list:
        sweep = sweeps[code] if sweeps is not None and code in sweeps else fresh[code]
        used_sweeps[code] = sweep
        mhz = select_operating_point(sweep.normalized, metric)
        selected[code] = mhz
        points[code] = sweep.normalized[mhz]
    return MetricSelectionResult(metric.name, selected, points, used_sweeps)


def _sweep_missing(
    code_list: Sequence[str],
    sweeps: Optional[Mapping[str, SweepResult]],
    klass: str,
    seed: int,
) -> dict[str, SweepResult]:
    """Sweep every code not already covered, as one flat batch."""
    missing = [
        code for code in code_list if sweeps is None or code not in sweeps
    ]
    if not missing:
        return {}
    workloads = {
        code: get_workload(code, klass=klass, nprocs=NPB_CODES[code])
        for code in missing
    }
    by_tag = frequency_sweep_many(
        [workloads[code] for code in missing], FREQUENCIES_MHZ, seed=seed
    )
    return {code: by_tag[workloads[code].tag] for code in missing}


def figure6_external_ed3p(
    codes: Optional[Sequence[str]] = None,
    klass: str = "C",
    seed: int = 0,
    sweeps: Optional[Mapping[str, SweepResult]] = None,
) -> MetricSelectionResult:
    """Reproduce Figure 6: EXTERNAL control with the ED3P metric."""
    return _external_with_metric(ED3P, codes, klass, seed, sweeps)


def figure7_external_ed2p(
    codes: Optional[Sequence[str]] = None,
    klass: str = "C",
    seed: int = 0,
    sweeps: Optional[Mapping[str, SweepResult]] = None,
) -> MetricSelectionResult:
    """Reproduce Figure 7: EXTERNAL control with the ED2P metric."""
    return _external_with_metric(ED2P, codes, klass, seed, sweeps)


# ----------------------------------------------------------------------
# Figure 8 — energy-delay crescendos + Type I–IV classification
# ----------------------------------------------------------------------
@dataclass
class CrescendoFigure:
    crescendos: dict[str, Crescendo]
    types: dict[str, CrescendoType]

    def groups(self) -> dict[str, list[str]]:
        """Codes grouped by type label (paper's four panels)."""
        out: dict[str, list[str]] = {}
        for code, ctype in sorted(self.types.items()):
            out.setdefault(ctype.value, []).append(code)
        return out


def figure8_crescendos(
    codes: Optional[Sequence[str]] = None,
    klass: str = "C",
    seed: int = 0,
    sweeps: Optional[Mapping[str, SweepResult]] = None,
) -> CrescendoFigure:
    """Reproduce Figure 8: per-code crescendos and their categories."""
    code_list = [c.upper() for c in (codes or NPB_CODES)]
    fresh = _sweep_missing(code_list, sweeps, klass, seed)
    crescendos: dict[str, Crescendo] = {}
    types: dict[str, CrescendoType] = {}
    for code in code_list:
        sweep = sweeps[code] if sweeps is not None and code in sweeps else fresh[code]
        cres = Crescendo(code, sweep.normalized)
        crescendos[code] = cres
        types[code] = cres.classify()
    return CrescendoFigure(crescendos, types)


# ----------------------------------------------------------------------
# Figures 9/12 — performance traces (FT, CG)
# ----------------------------------------------------------------------
@dataclass
class TraceFigure:
    code: str
    stats: TraceStats
    log: TraceLog

    @property
    def comm_to_comp_ratio(self) -> float:
        return self.stats.comm_to_comp_ratio

    def timeline(self, width: int = 100) -> str:
        from repro.trace.jumpshot import render_timeline

        return render_timeline(self.log, width=width)


def figure9_ft_trace(klass: str = "C", seed: int = 0) -> TraceFigure:
    """Reproduce Figure 9: FT performance trace and its observations."""
    w = get_workload("FT", klass=klass, nprocs=NPB_CODES["FT"])
    m = current_runner().run(w, trace=True, seed=seed)
    return TraceFigure("FT", analyze(m.trace), m.trace)


def figure12_cg_trace(klass: str = "C", seed: int = 0) -> TraceFigure:
    """Reproduce Figure 12: CG trace (asymmetric rank groups)."""
    w = get_workload("CG", klass=klass, nprocs=NPB_CODES["CG"])
    m = current_runner().run(w, trace=True, seed=seed)
    return TraceFigure("CG", analyze(m.trace), m.trace)


# ----------------------------------------------------------------------
# Figures 11/14 — INTERNAL scheduling case studies
# ----------------------------------------------------------------------
@dataclass
class InternalComparison:
    """Figure 11/14: internal policies vs the external sweep vs auto."""

    code: str
    internal: dict[str, tuple[float, float]]
    external: dict[float, tuple[float, float]]
    auto: tuple[float, float]
    measurements: dict[str, Measurement] = field(default_factory=dict)


def figure11_ft_internal(
    klass: str = "C",
    seed: int = 0,
    high_mhz: float = 1400.0,
    low_mhz: float = 600.0,
    sweep: Optional[SweepResult] = None,
) -> InternalComparison:
    """Reproduce Figure 11: FT under INTERNAL (1400/600 around the
    all-to-all) vs every EXTERNAL setting vs CPUSPEED."""
    w = get_workload("FT", klass=klass, nprocs=NPB_CODES["FT"])
    if sweep is None:
        sweep = frequency_sweep(w, FREQUENCIES_MHZ, seed=seed)
    baseline = sweep.raw[sweep.baseline_mhz]
    policy = PhasePolicy({"alltoall"}, low_mhz=low_mhz, high_mhz=high_mhz)
    internal, auto = current_runner().map([
        RunTask(
            w, InternalStrategy(policy, label=f"{high_mhz:.0f}/{low_mhz:.0f}"), seed
        ),
        RunTask(w, CpuspeedDaemonStrategy(), seed),
    ])
    return InternalComparison(
        code="FT",
        internal={"internal": internal.normalized_against(baseline)},
        external=sweep.normalized,
        auto=auto.normalized_against(baseline),
        measurements={"internal": internal, "auto": auto},
    )


def figure14_cg_internal(
    klass: str = "C",
    seed: int = 0,
    sweep: Optional[SweepResult] = None,
) -> InternalComparison:
    """Reproduce Figure 14: CG under heterogeneous INTERNAL settings.

    INTERNAL I: ranks 0-3 at 1200 MHz, ranks 4-7 at 800 MHz.
    INTERNAL II: ranks 0-3 at 1000 MHz, ranks 4-7 at 800 MHz.
    """
    w = get_workload("CG", klass=klass, nprocs=NPB_CODES["CG"])
    if sweep is None:
        sweep = frequency_sweep(w, FREQUENCIES_MHZ, seed=seed)
    baseline = sweep.raw[sweep.baseline_mhz]
    half = NPB_CODES["CG"] // 2
    settings = (("internal I", 1200.0, 800.0), ("internal II", 1000.0, 800.0))
    tasks = [
        RunTask(
            w,
            InternalStrategy(
                RankPolicy.split(half, high_mhz=high, low_mhz=low), label=label
            ),
            seed,
        )
        for label, high, low in settings
    ]
    tasks.append(RunTask(w, CpuspeedDaemonStrategy(), seed))
    results = current_runner().map(tasks)
    internal: dict[str, tuple[float, float]] = {}
    measurements: dict[str, Measurement] = {}
    for (label, _, _), m in zip(settings, results):
        internal[label] = m.normalized_against(baseline)
        measurements[label] = m
    auto = results[-1]
    measurements["auto"] = auto
    return InternalComparison(
        code="CG",
        internal=internal,
        external=sweep.normalized,
        auto=auto.normalized_against(baseline),
        measurements=measurements,
    )


# ----------------------------------------------------------------------
# Beyond the paper: Figure 11/14 candidates vs the computed frontier
# ----------------------------------------------------------------------
@dataclass
class OptimalFrontierFigure:
    """Hand-picked Figure 11/14 schedules against the optimizer's frontier.

    ``comparison`` holds the paper's shipped candidates (INTERNAL
    policies, the EXTERNAL sweep, CPUSPEED); ``result`` the offline
    optimizer's energy-delay frontier and winner at the same delta.
    Everything is normalized against the same full-speed baseline.
    """

    code: str
    delta: float
    comparison: InternalComparison
    result: "OptimizeResult"  # noqa: F821 — repro.optimize import is lazy


def figure_optimal_frontier(
    code: str = "FT",
    klass: str = "C",
    seed: int = 0,
    delta: float = 0.05,
) -> OptimalFrontierFigure:
    """Compare the shipped Figure 11/14 schedules with the computed plan.

    Runs the paper figure for ``code`` (Figure 11 for FT, Figure 14 for
    CG; a sweep-plus-CPUSPEED comparison for other codes) and the
    offline gear-plan optimizer at the same performance constraint.
    """
    from repro.optimize import optimize_gear_plan

    code = code.upper()
    if code == "FT":
        comparison = figure11_ft_internal(klass=klass, seed=seed)
    elif code == "CG":
        comparison = figure14_cg_internal(klass=klass, seed=seed)
    else:
        w = get_workload(code, klass=klass, nprocs=NPB_CODES.get(code, 8))
        sweep = frequency_sweep(w, FREQUENCIES_MHZ, seed=seed)
        baseline = sweep.raw[sweep.baseline_mhz]
        (auto,) = current_runner().map([RunTask(w, CpuspeedDaemonStrategy(), seed)])
        comparison = InternalComparison(
            code=code,
            internal={},
            external=sweep.normalized,
            auto=auto.normalized_against(baseline),
            measurements={"auto": auto},
        )
    w = get_workload(code, klass=klass, nprocs=NPB_CODES.get(code, 8))
    result = optimize_gear_plan(w, delta=delta, seed=seed)
    return OptimalFrontierFigure(
        code=code, delta=delta, comparison=comparison, result=result
    )

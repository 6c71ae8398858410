"""Experiment runner: application × strategy → measured (delay, energy).

One call builds a fresh NEMO-like cluster, installs the strategy
(static settings / daemons / source hooks), launches the workload's
rank program, and measures delay and energy — exactly, plus optionally
through the paper's ACPI and Baytech channels and the MPE-like tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.sim.engine import Environment
from repro.faults.injector import FaultInjector, resolve_injector
from repro.faults.spec import FaultSpec
from repro.hardware.cluster import Cluster, nemo_cluster
from repro.hardware.network import NetworkParameters
from repro.hardware.opoints import OperatingPointTable, PENTIUM_M_TABLE
from repro.hardware.power import NEMO_POWER, NodePowerParameters
from repro.mpi.launcher import launch
from repro.powerpack.collector import DataCollector, EnergyReport
from repro.trace.events import TraceLog
from repro.workloads.base import CompositeHooks, NO_HOOKS, PhaseHooks, Workload
from repro.core.strategies.base import NoDvsStrategy, Strategy

__all__ = ["Measurement", "run_workload", "straightline_ineligibility"]


@dataclass
class Measurement:
    """Directly measured outcome of one run."""

    workload: str
    strategy: str
    elapsed_s: float
    energy_j: float
    per_node_energy_j: dict[int, float]
    dvs_transitions: int
    time_at_mhz: dict[float, float]
    acpi_energy_j: Optional[float] = None
    baytech_energy_j: Optional[float] = None
    trace: Optional[TraceLog] = None
    report: Optional[EnergyReport] = None
    extras: dict = field(default_factory=dict)

    def normalized_against(self, baseline: "Measurement") -> tuple[float, float]:
        """(normalized delay, normalized energy) vs a no-DVS baseline."""
        if baseline.elapsed_s <= 0 or baseline.energy_j <= 0:
            raise ValueError("invalid baseline measurement")
        return (
            self.elapsed_s / baseline.elapsed_s,
            self.energy_j / baseline.energy_j,
        )

    def __str__(self) -> str:
        return (
            f"{self.workload} under {self.strategy}: "
            f"{self.elapsed_s:.2f}s, {self.energy_j:.0f}J, "
            f"{self.dvs_transitions} transitions"
        )


def straightline_ineligibility(
    workload: Workload,
    strategy: Strategy,
    *,
    cluster: Optional[Cluster] = None,
    trace: bool = False,
    measurement_channels: bool = False,
    extra_hooks: Optional[PhaseHooks] = None,
    injector: Optional[FaultInjector] = None,
) -> Optional[str]:
    """Why this run cannot use the straightline tier (``None`` = it can).

    ``run_workload(engine="auto")`` consults the fast tier only when
    this is ``None``; the string says why the run goes straight to the
    event engine.  Faults are checked before the gear plan so a fault
    environment reports as such even when the strategy itself lowers.
    A traced run qualifies only with a static gear plan
    (:attr:`GearPlan.static`: no-DVS, EXTERNAL); a traced plan with
    in-run DVS calls or a traced daemon reports "tracing requested".
    """
    if cluster is not None:
        return "caller-supplied cluster"
    if trace:
        plan = strategy.gear_plan(workload)
        if plan is None or not plan.static:
            return "tracing requested"
    if measurement_channels:
        return "measurement channels requested"
    if extra_hooks is not None:
        return "extra phase hooks installed"
    if injector is not None:
        return "fault injection active"
    if strategy.gear_plan(workload) is None and strategy.controller() is None:
        return "strategy has no static gear plan (dynamic DVS)"
    return None


def run_workload(
    workload: Workload,
    strategy: Optional[Strategy] = None,
    seed: int = 0,
    trace: bool = False,
    measurement_channels: bool = False,
    network_params: Optional[NetworkParameters] = None,
    power: NodePowerParameters = NEMO_POWER,
    opoints: OperatingPointTable = PENTIUM_M_TABLE,
    transition_latency_s: float = 20e-6,
    cluster: Optional[Cluster] = None,
    extra_hooks: Optional[PhaseHooks] = None,
    faults: Union[FaultSpec, FaultInjector, None] = None,
    engine: str = "auto",
) -> Measurement:
    """Run ``workload`` under ``strategy`` on a fresh cluster.

    Parameters
    ----------
    engine:
        Simulation tier.  ``"auto"`` (default) uses the straightline
        direct accumulator (:mod:`repro.sim.straightline`) when the run
        qualifies — a strategy with a static gear plan
        (:meth:`Strategy.gear_plan` non-``None``) *or* a stateful
        sampled controller (:meth:`Strategy.controller` non-``None``;
        the CPUSPEED, predictive, β and power-cap daemons), no
        faults/channels, default cluster and hooks, and tracing only
        with a static plan — and the event engine otherwise, or when
        the fast tier declines the run; the tiers produce bit-for-bit
        identical measurements on the supported subset.  A zero-rate
        :class:`~repro.faults.spec.FaultSpec` (``is_noop()``) does not
        count as faults here: it provably injects nothing.
        ``"event"`` forces the event engine; any other value raises
        :class:`ValueError`.  To demand the fast tier, call
        :func:`repro.sim.straightline.run_straightline` directly.
    faults:
        Optional fault environment (a
        :class:`~repro.faults.spec.FaultSpec`, or a ready injector to
        inspect afterwards).  Faults that actually fired are reported
        in ``Measurement.extras["faults"]``; a zero-rate spec leaves
        the result bit-for-bit identical to ``faults=None``.
    measurement_channels:
        Also measure through the simulated ACPI batteries and Baytech
        strip (slower; adds sampling processes).  The exact meters are
        always read.
    trace:
        Attach an MPE-like :class:`TraceLog` (returned on the
        measurement).  Both tiers record the same events per rank; see
        :class:`TraceLog` for the order contract.
    cluster:
        Reuse a prepared cluster instead of building one (advanced; the
        cluster must be fresh — meters accumulate from construction).
    extra_hooks:
        Additional :class:`PhaseHooks` composed with the strategy's own
        (e.g. a :class:`~repro.trace.phasestats.PhaseRecorder` profiling
        the run the strategy is scheduling).
    """
    strategy = strategy or NoDvsStrategy()
    injector = resolve_injector(faults)
    # A zero-rate spec provably injects nothing (a run under it is
    # bit-for-bit a clean run — tests/faults/test_determinism.py), so
    # it doesn't pin the run to the event engine; paths that do build
    # a cluster still carry the (inert) injector along.
    inert_faults = isinstance(faults, FaultSpec) and faults.is_noop()

    if engine not in ("auto", "event"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "auto" and straightline_ineligibility(
        workload,
        strategy,
        cluster=cluster,
        trace=trace,
        measurement_channels=measurement_channels,
        extra_hooks=extra_hooks,
        injector=None if inert_faults else injector,
    ) is None:
        # Imported lazily: the straightline tier sits on top of the
        # workload/strategy layers and must not load with repro.sim.
        from repro.sim.straightline import try_run_straightline

        fast = try_run_straightline(
            workload,
            strategy,
            seed=seed,
            network_params=network_params,
            power=power,
            opoints=opoints,
            transition_latency_s=transition_latency_s,
            trace=trace,
        )
        if fast is not None:
            return fast

    if cluster is None:
        env = Environment()
        cluster = nemo_cluster(
            env,
            n_nodes=workload.nprocs,
            power=power,
            opoints=opoints,
            network_params=network_params,
            transition_latency_s=transition_latency_s,
            with_batteries=measurement_channels,
            seed=seed,
            injector=injector,
        )
    else:
        env = cluster.env
        if len(cluster) < workload.nprocs:
            raise ValueError(
                f"cluster has {len(cluster)} nodes; workload needs {workload.nprocs}"
            )
    node_ids = list(range(workload.nprocs))

    hooks = strategy.hooks(workload)
    if extra_hooks is not None:
        hooks = CompositeHooks(hooks, extra_hooks) if hooks is not NO_HOOKS else extra_hooks
    tracer = TraceLog() if trace else None
    collector = (
        DataCollector(cluster, node_ids, injector=injector)
        if measurement_channels
        else None
    )

    strategy.setup(cluster, node_ids)
    begin_energy = {nid: cluster[nid].energy_j() for nid in node_ids}
    begin_transitions = sum(cluster[nid].cpu.stats.transitions for nid in node_ids)
    if collector is not None:
        collector.begin()

    handle = launch(
        cluster,
        workload.make_program(hooks),
        nprocs=workload.nprocs,
        node_ids=node_ids,
        cost=workload.cost_model(),
        tracer=tracer,
        injector=injector,
    )
    env.run(handle.done)
    handle.check()
    strategy.teardown(cluster)

    report = collector.end() if collector is not None else None
    per_node = {
        nid: cluster[nid].energy_j() - begin_energy[nid] for nid in node_ids
    }
    time_at: dict[float, float] = {}
    transitions = -begin_transitions
    for nid in node_ids:
        cpu = cluster[nid].cpu
        cpu.busy_seconds()  # flush accounting to `now`
        transitions += cpu.stats.transitions
        for mhz, secs in cpu.stats.time_at_mhz.items():
            time_at[mhz] = time_at.get(mhz, 0.0) + secs

    # Degradation report: attached only when a fault actually fired, so
    # clean and zero-rate runs stay equal (extras == {}) to pre-fault
    # baselines.
    extras: dict = {}
    if injector is not None and injector.log.any:
        extras["faults"] = injector.log.as_dict()

    return Measurement(
        workload=workload.tag,
        strategy=strategy.describe(),
        elapsed_s=handle.elapsed(),
        energy_j=sum(per_node.values()),
        per_node_energy_j=per_node,
        dvs_transitions=transitions,
        time_at_mhz=time_at,
        acpi_energy_j=report.total_acpi_j if report is not None else None,
        baytech_energy_j=report.total_baytech_j if report is not None else None,
        trace=tracer,
        report=report,
        extras=extras,
    )

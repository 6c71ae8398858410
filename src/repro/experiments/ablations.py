"""Ablation studies on the design choices DESIGN.md calls out.

The paper leaves several axes to "future work"; these studies sweep
them on the simulator:

* :func:`daemon_interval_study` — the v1.1 → v1.2.1 change was the
  polling interval: sweep it (the paper's Section 5.1 motivation).
* :func:`daemon_threshold_study` — "we intend to study the affects of
  varying thresholds" (Section 5.1).
* :func:`transition_latency_study` — INTERNAL scheduling granularity vs
  DVS mode-transition cost (Section 3.3's trade-off).
* :func:`network_speed_study` — how comm-phase savings shrink as the
  fabric gets faster (the substrate choice behind NEMO's 100 Mb study).
* :func:`scaling_study` — savings vs node count for one code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.hardware.network import NetworkParameters
from repro.experiments.parallel import RunTask, current_runner
from repro.core.strategies import (
    CpuspeedConfig,
    CpuspeedDaemonStrategy,
    InternalStrategy,
    NoDvsStrategy,
    PhasePolicy,
)
from repro.workloads import get_workload

__all__ = [
    "AblationPoint",
    "daemon_interval_study",
    "daemon_threshold_study",
    "transition_latency_study",
    "network_speed_study",
    "scaling_study",
]


@dataclass(frozen=True)
class AblationPoint:
    """One swept setting and its normalized outcome."""

    setting: float
    norm_delay: float
    norm_energy: float

    @property
    def energy_saving(self) -> float:
        return 1.0 - self.norm_energy


def _normalized(workload, strategy, seed=0, **kwargs):
    base, m = _normalized_many([(workload, strategy, kwargs)], seed=seed)[0]
    return m.normalized_against(base)


def _normalized_many(configs, seed=0):
    """Run (baseline, strategy) for every (workload, strategy, kwargs)
    triple as one flat batch; returns [(baseline, measurement), ...]."""
    tasks = []
    for workload, strategy, kwargs in configs:
        tasks.append(RunTask(workload, NoDvsStrategy(), seed, dict(kwargs)))
        tasks.append(RunTask(workload, strategy, seed, dict(kwargs)))
    results = current_runner().map(tasks)
    return [(results[2 * i], results[2 * i + 1]) for i in range(len(configs))]


def daemon_interval_study(
    code: str = "FT",
    klass: str = "B",
    intervals_s: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0),
    seed: int = 0,
) -> list[AblationPoint]:
    """CPUSPEED polling interval sweep on one code.

    Too short and the daemon reacts to noise inside phases (v1.1's
    regime); too long and it lags every phase change.
    """
    workload = get_workload(code, klass=klass)
    configs = [
        (workload, CpuspeedDaemonStrategy(CpuspeedConfig(interval_s=interval)), {})
        for interval in intervals_s
    ]
    return [
        AblationPoint(interval, *m.normalized_against(base))
        for interval, (base, m) in zip(intervals_s, _normalized_many(configs, seed=seed))
    ]


def daemon_threshold_study(
    code: str = "MG",
    klass: str = "B",
    usage_thresholds: Sequence[float] = (60.0, 70.0, 80.0, 90.0),
    seed: int = 0,
) -> list[AblationPoint]:
    """Step-down threshold sweep (paper's stated future work).

    Lower thresholds keep the daemon fast (less saving, less delay);
    higher thresholds make it slide toward the slowest point.
    """
    workload = get_workload(code, klass=klass)
    configs = []
    for usage in usage_thresholds:
        config = CpuspeedConfig(
            interval_s=2.0,
            minimum_threshold=min(50.0, usage - 10.0),
            usage_threshold=usage,
            maximum_threshold=max(95.0, usage + 5.0),
        )
        configs.append((workload, CpuspeedDaemonStrategy(config), {}))
    return [
        AblationPoint(usage, *m.normalized_against(base))
        for usage, (base, m) in zip(
            usage_thresholds, _normalized_many(configs, seed=seed)
        )
    ]


def transition_latency_study(
    code: str = "FT",
    klass: str = "B",
    latencies_s: Sequence[float] = (10e-6, 100e-6, 1e-3, 10e-3, 100e-3),
    low_phase: Optional[str] = None,
    seed: int = 0,
) -> list[AblationPoint]:
    """INTERNAL phase scheduling vs DVS transition cost.

    At 10 us (SpeedStep) the FT policy is free; by ~100 ms per
    transition the policy's delay cost eats the gains — the paper's
    granularity condition ("period duration outweighs voltage state
    transition costs") made quantitative.
    """
    workload = get_workload(code, klass=klass)
    phase = low_phase or ("alltoall" if "alltoall" in workload.phases else workload.phases[-1])
    policy = PhasePolicy({phase}, low_mhz=600, high_mhz=1400)
    configs = [
        (
            workload,
            InternalStrategy(policy, label=f"lat={latency:g}"),
            {"transition_latency_s": latency},
        )
        for latency in latencies_s
    ]
    return [
        AblationPoint(latency, *m.normalized_against(base))
        for latency, (base, m) in zip(latencies_s, _normalized_many(configs, seed=seed))
    ]


def network_speed_study(
    code: str = "FT",
    klass: str = "B",
    bandwidth_scales: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    seed: int = 0,
) -> list[AblationPoint]:
    """How INTERNAL comm-phase savings change with fabric bandwidth.

    Faster networks shrink the communication share, and with it the
    slack DVS exploits — total energy saving falls even though the
    policy stays optimal for its phase.
    """
    workload = get_workload(code, klass=klass)
    base_params = NetworkParameters()
    phase = "alltoall" if "alltoall" in workload.phases else workload.phases[-1]
    policy = PhasePolicy({phase}, low_mhz=600, high_mhz=1400)
    configs = [
        (
            workload,
            InternalStrategy(policy, label=f"bw x{scale:g}"),
            {
                "network_params": NetworkParameters(
                    bandwidth_Bps=base_params.bandwidth_Bps * scale,
                    latency_s=base_params.latency_s,
                )
            },
        )
        for scale in bandwidth_scales
    ]
    return [
        AblationPoint(scale, *m.normalized_against(base))
        for scale, (base, m) in zip(
            bandwidth_scales, _normalized_many(configs, seed=seed)
        )
    ]


def scaling_study(
    code: str = "FT",
    klass: str = "B",
    node_counts: Sequence[int] = (2, 4, 8, 16),
    seed: int = 0,
) -> list[AblationPoint]:
    """Savings vs node count under INTERNAL scheduling for one code."""
    configs = []
    for n in node_counts:
        workload = get_workload(code, klass=klass, nprocs=n)
        phase = "alltoall" if "alltoall" in workload.phases else workload.phases[-1]
        policy = PhasePolicy({phase}, low_mhz=600, high_mhz=1400)
        configs.append((workload, InternalStrategy(policy), {}))
    return [
        AblationPoint(float(n), *m.normalized_against(base))
        for n, (base, m) in zip(node_counts, _normalized_many(configs, seed=seed))
    ]

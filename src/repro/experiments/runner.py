"""Grid runners and normalization helpers.

Every helper here routes its simulations through the *current runner*
(:mod:`repro.experiments.parallel`), so installing a
:class:`~repro.experiments.parallel.ParallelRunner` parallelises and
memoizes every sweep without the callers changing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.framework import Measurement
from repro.core.strategies import ExternalStrategy, NoDvsStrategy, Strategy
from repro.experiments.parallel import RunTask, current_runner
from repro.workloads.base import Workload

__all__ = [
    "RepeatSummary",
    "SweepResult",
    "count_degraded",
    "frequency_sweep",
    "frequency_sweep_many",
    "normalized_point",
    "run_baseline",
    "run_repeated",
    "summarize_repeats",
]


def count_degraded(measurements: Iterable[Measurement]) -> int:
    """How many measurements were perturbed by injected faults.

    A run simulated under a fault spec only carries a degradation
    report (``extras["faults"]``) when a fault actually *fired*; a run
    whose opportunities all drew "no fault" counts as clean here.
    """
    return sum(1 for m in measurements if m.extras.get("faults"))


@dataclass
class SweepResult:
    """A frequency sweep for one workload.

    ``raw`` maps MHz → :class:`Measurement`; ``normalized`` maps MHz →
    (delay, energy) relative to the fastest frequency.
    """

    workload: str
    raw: dict[float, Measurement]
    baseline_mhz: float
    #: lazily computed normalization (``raw`` is treated as immutable
    #: once the first normalized point has been read).
    _normalized: Optional[dict[float, tuple[float, float]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def normalized(self) -> dict[float, tuple[float, float]]:
        cached = self._normalized
        if cached is None:
            base = self.raw[self.baseline_mhz]
            cached = self._normalized = {
                mhz: m.normalized_against(base)
                for mhz, m in sorted(self.raw.items())
            }
        return cached

    @property
    def profile(self) -> dict[float, tuple[float, float]]:
        """Alias used by metric-driven selection code."""
        return self.normalized


def run_baseline(workload: Workload, seed: int = 0, **kwargs) -> Measurement:
    """The paper's no-DVS reference run (all nodes at top speed)."""
    return current_runner().run(workload, NoDvsStrategy(), seed=seed, **kwargs)


def _resolved_frequencies(
    frequencies_mhz: Optional[Sequence[float]],
) -> Sequence[float]:
    if frequencies_mhz is not None:
        return frequencies_mhz
    from repro.hardware.opoints import PENTIUM_M_TABLE

    return PENTIUM_M_TABLE.frequencies_mhz()


def frequency_sweep(
    workload: Workload,
    frequencies_mhz: Optional[Sequence[float]] = None,
    seed: int = 0,
    **kwargs,
) -> SweepResult:
    """Run the workload at every static frequency (Table 2 columns)."""
    return frequency_sweep_many([workload], frequencies_mhz, seed=seed, **kwargs)[
        workload.tag
    ]


def frequency_sweep_many(
    workloads: Sequence[Workload],
    frequencies_mhz: Optional[Sequence[float]] = None,
    seed: int = 0,
    **kwargs,
) -> dict[str, SweepResult]:
    """Sweep several workloads as one flat task grid (tag → sweep).

    Submitting the full (workload × frequency) grid at once keeps every
    worker of a parallel runner busy instead of parallelising only
    within one workload's handful of frequencies, and lets the runner
    measure each workload's frequencies in one ``run_batch`` call.
    """
    frequencies = [float(mhz) for mhz in _resolved_frequencies(frequencies_mhz)]
    tasks = [
        RunTask(workload, ExternalStrategy(mhz=mhz), seed, dict(kwargs))
        for workload in workloads
        for mhz in frequencies
    ]
    measurements = current_runner().map(tasks)
    sweeps: dict[str, SweepResult] = {}
    n_freq = len(frequencies)
    for i, workload in enumerate(workloads):
        raw = dict(zip(frequencies, measurements[i * n_freq : (i + 1) * n_freq]))
        sweeps[workload.tag] = SweepResult(
            workload=workload.tag, raw=raw, baseline_mhz=float(max(frequencies))
        )
    return sweeps


def normalized_point(
    workload: Workload,
    strategy: Strategy,
    baseline: Optional[Measurement] = None,
    seed: int = 0,
    **kwargs,
) -> tuple[float, float, Measurement]:
    """Run one strategy and normalize against the no-DVS baseline.

    Returns ``(norm_delay, norm_energy, measurement)``.
    """
    if baseline is None:
        baseline = run_baseline(workload, seed=seed, **kwargs)
    m = current_runner().run(workload, strategy, seed=seed, **kwargs)
    d, e = m.normalized_against(baseline)
    return d, e, m


@dataclass(frozen=True)
class RepeatSummary:
    """Mean/spread of repeated measurements (paper: ">= 3 times or more
    to identify outliers")."""

    n: int
    mean_elapsed_s: float
    std_elapsed_s: float
    mean_energy_j: float
    std_energy_j: float
    mean_acpi_energy_j: Optional[float]
    std_acpi_energy_j: Optional[float]

    @property
    def acpi_relative_spread(self) -> Optional[float]:
        """Coefficient of variation of the ACPI channel — the paper's
        reason for repeating: sensor jitter, not application noise."""
        if self.mean_acpi_energy_j in (None, 0.0):
            return None
        return (self.std_acpi_energy_j or 0.0) / self.mean_acpi_energy_j


def summarize_repeats(measurements: Sequence[Measurement]) -> RepeatSummary:
    """Aggregate repeated runs of the same configuration."""
    if not measurements:
        raise ValueError("nothing to summarize")
    import math

    def stats(values):
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)

    me, se = stats([m.elapsed_s for m in measurements])
    mj, sj = stats([m.energy_j for m in measurements])
    acpi = [m.acpi_energy_j for m in measurements]
    if any(a is None for a in acpi):
        ma = sa = None
    else:
        ma, sa = stats(acpi)
    return RepeatSummary(
        n=len(measurements),
        mean_elapsed_s=me,
        std_elapsed_s=se,
        mean_energy_j=mj,
        std_energy_j=sj,
        mean_acpi_energy_j=ma,
        std_acpi_energy_j=sa,
    )


def run_repeated(
    workload: Workload,
    strategy: Strategy,
    seeds: Iterable[int] = (0, 1, 2),
    **kwargs,
) -> list[Measurement]:
    """Repeat a run with different seeds (the paper repeats >= 3x).

    Measurement-channel jitter (battery refresh) differs per seed; the
    simulated application itself is deterministic, so the seeds map to
    independent tasks a parallel runner executes concurrently.
    """
    tasks = [RunTask(workload, strategy, s, dict(kwargs)) for s in seeds]
    return current_runner().map(tasks)

"""Calibration sensitivity analysis.

How much do the reproduced conclusions depend on the fitted constants?
This module perturbs the calibrated power model and re-scores fidelity
against the published Table 2, and checks whether the paper's
*qualitative* claims (the crescendo taxonomy, the FT INTERNAL win)
survive each perturbation — the robustness appendix a careful
reproduction should carry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.hardware.power import NEMO_POWER, NodePowerParameters
from repro.core.crescendo import Crescendo
from repro.core.strategies import ExternalStrategy, InternalStrategy, NoDvsStrategy, PhasePolicy
from repro.experiments.calibration import PAPER_CRESCENDO_TYPES
from repro.experiments.parallel import RunTask, current_runner
from repro.workloads import get_workload

__all__ = ["PerturbationResult", "power_model_sensitivity", "perturbed_power"]


@dataclass(frozen=True)
class PerturbationResult:
    """Outcome of one perturbed-model evaluation."""

    parameter: str
    scale: float
    #: measured (norm delay, norm energy) of FT at 600 MHz
    ft_600: tuple[float, float]
    #: crescendo classification still matches the paper for the codes run
    taxonomy_holds: bool
    #: FT INTERNAL still saves >= 20 % at <= 2 % delay
    internal_win_holds: bool


def perturbed_power(parameter: str, scale: float) -> NodePowerParameters:
    """NEMO power parameters with one constant scaled."""
    if not hasattr(NEMO_POWER, parameter):
        raise ValueError(f"unknown power parameter {parameter!r}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    return replace(NEMO_POWER, **{parameter: getattr(NEMO_POWER, parameter) * scale})


def _evaluate(power: NodePowerParameters, parameter: str, scale: float,
              codes: Sequence[str], klass: str, seed: int) -> PerturbationResult:
    kwargs = {"power": power}
    sweep_mhz = (600.0, 1000.0)
    workloads = {code: get_workload(code, klass=klass) for code in codes}
    tasks: list[RunTask] = []
    for code in codes:
        w = workloads[code]
        tasks.append(RunTask(w, NoDvsStrategy(), seed, dict(kwargs)))
        tasks.extend(
            RunTask(w, ExternalStrategy(mhz=mhz), seed, dict(kwargs))
            for mhz in sweep_mhz
        )
    # FT INTERNAL headline under the perturbed model
    ft = get_workload("FT", klass=klass)
    tasks.append(RunTask(ft, NoDvsStrategy(), seed, dict(kwargs)))
    tasks.append(
        RunTask(
            ft,
            InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)),
            seed,
            dict(kwargs),
        )
    )
    results = current_runner().map(tasks)

    taxonomy_holds = True
    ft_600 = (0.0, 0.0)
    stride = 1 + len(sweep_mhz)
    for i, code in enumerate(codes):
        base = results[i * stride]
        points = {1400.0: (1.0, 1.0)}
        for j, mhz in enumerate(sweep_mhz):
            points[mhz] = results[i * stride + 1 + j].normalized_against(base)
        if code == "FT":
            ft_600 = points[600.0]
        measured_type = Crescendo(code, points).classify().value
        if measured_type != PAPER_CRESCENDO_TYPES[code]:
            taxonomy_holds = False

    base, internal = results[-2], results[-1]
    d, e = internal.normalized_against(base)
    internal_win_holds = d <= 1.02 and e <= 0.80

    return PerturbationResult(parameter, scale, ft_600, taxonomy_holds, internal_win_holds)


def power_model_sensitivity(
    parameters: Sequence[str] = (
        "cpu_dynamic_max_w",
        "cpu_leakage_max_w",
        "board_w",
        "nic_active_w",
    ),
    scales: Sequence[float] = (0.8, 1.0, 1.2),
    codes: Sequence[str] = ("EP", "FT"),
    klass: str = "B",
    seed: int = 0,
) -> list[PerturbationResult]:
    """Sweep ±20 % perturbations of the fitted power constants.

    Delays are power-independent by construction, so the question is
    whether the *energy*-derived conclusions (taxonomy, INTERNAL win)
    are knife-edge artifacts of the calibration.  They are not: see
    the tests, which assert both claims hold across the whole grid.
    """
    results = []
    for parameter in parameters:
        for scale in scales:
            power = perturbed_power(parameter, scale)
            results.append(
                _evaluate(power, parameter, scale, codes, klass, seed)
            )
    return results

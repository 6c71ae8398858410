"""Offline gear-plan optimization.

Computes per-rank-group, per-phase DVS schedules that minimize energy
under the paper's performance constraint (time within ``(1 + delta)`` of
the no-DVS baseline), by batched frontier search over the straightline
quotient tier.  See :mod:`repro.optimize.search` for the search itself
and :mod:`repro.optimize.plan` for the strategy the winner becomes.
"""

from repro.optimize.plan import OptimalPlanStrategy
from repro.optimize.search import (
    OptimizeResult,
    PlanCandidate,
    SearchTelemetry,
    optimize_gear_plan,
)

__all__ = [
    "OptimalPlanStrategy",
    "OptimizeResult",
    "PlanCandidate",
    "SearchTelemetry",
    "optimize_gear_plan",
]

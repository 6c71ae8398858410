"""Optimizer vs the paper's shipped schedules (Figures 11 and 14).

The acceptance bar: at the same delta, the computed plan satisfies the
performance constraint and consumes no more energy than any shipped
EXTERNAL or INTERNAL candidate that also satisfies it.
"""

from __future__ import annotations

import pytest

from repro.core.framework import run_workload
from repro.core.strategies import (
    ExternalStrategy,
    InternalStrategy,
    PhasePolicy,
    RankPolicy,
)
from repro.experiments.store import CacheStats
from repro.optimize import optimize_gear_plan
from repro.workloads.npb.cg import CG
from repro.workloads.npb.ft import FT

DELTA = 0.05
FREQS = (600.0, 800.0, 1000.0, 1200.0, 1400.0)


def shipped_candidates(code: str):
    external = [ExternalStrategy(mhz=m) for m in FREQS]
    if code == "FT":
        # Figure 11: 1400 MHz compute, 600 MHz during the all-to-all.
        internal = [
            InternalStrategy(PhasePolicy({"alltoall"}, low_mhz=600.0,
                                         high_mhz=1400.0))
        ]
    else:
        # Figure 14: heterogeneous per-rank speeds (INTERNAL I and II).
        internal = [
            InternalStrategy(RankPolicy.split(2, high_mhz=1200.0, low_mhz=800.0)),
            InternalStrategy(RankPolicy.split(2, high_mhz=1000.0, low_mhz=800.0)),
        ]
    return external + internal


@pytest.mark.parametrize(
    "code, make_workload",
    [
        ("FT", lambda: FT(klass="T", nprocs=4)),
        ("CG", lambda: CG(klass="T", nprocs=4)),
    ],
)
def test_computed_plan_beats_shipped_candidates(code, make_workload) -> None:
    res = optimize_gear_plan(make_workload(), delta=DELTA, stats=CacheStats())
    # No candidate falls to the event engine: FT has no p2p traffic and
    # CG's halo exchange classifies into exact channel classes.
    assert res.telemetry.scalar_fallbacks == 0
    assert res.telemetry.batches > 0
    cap = (1 + DELTA) * res.baseline.elapsed_s
    assert res.best.elapsed_s <= cap * (1 + 1e-9)

    beaten = 0
    for strategy in shipped_candidates(code):
        m = run_workload(make_workload(), strategy)
        assert m.elapsed_s > 0
        if m.elapsed_s <= cap * (1 + 1e-9):
            assert res.best.energy_j <= m.energy_j, strategy.describe()
            beaten += 1
    assert beaten > 0  # at least no-DVS-equivalent EXTERNAL 1400 qualifies

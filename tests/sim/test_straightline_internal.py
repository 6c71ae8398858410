"""Piecewise-static INTERNAL runs on the straightline tier.

Differential equivalence for gear-changing strategies: every
:class:`Measurement` field must be bit-for-bit identical between the
event engine and the straightline tier's lowered gear plans — the same
contract ``test_straightline_equivalence`` pins for static runs,
extended to in-run ``set_cpuspeed`` calls (paper Figures 11 and 14).
"""

from __future__ import annotations

import pytest

from repro.core.framework import Measurement, run_workload
from repro.core.strategies.base import GearPlan, NoDvsStrategy
from repro.core.strategies.external import ExternalStrategy
from repro.core.strategies.internal import (
    InternalStrategy,
    PhasePolicy,
    RankPolicy,
)
from repro.sim.straightline import run_straightline
from repro.workloads.npb.cg import CG
from repro.workloads.npb.ft import FT


def assert_identical(fast: Measurement, ref: Measurement) -> None:
    assert fast.workload == ref.workload
    assert fast.strategy == ref.strategy
    assert fast.elapsed_s == ref.elapsed_s
    assert fast.energy_j == ref.energy_j
    assert fast.per_node_energy_j == ref.per_node_energy_j
    assert fast.dvs_transitions == ref.dvs_transitions
    assert fast.time_at_mhz == ref.time_at_mhz
    assert fast.extras == ref.extras


def run_both(workload_factory, strategy_factory, seed: int = 0):
    ref = run_workload(
        workload_factory(), strategy_factory(), seed=seed, engine="event"
    )
    fast = run_straightline(workload_factory(), strategy_factory(), seed=seed)
    return fast, ref


# ----------------------------------------------------------------------
# FT Figure 11: phase-scoped scaling around the all-to-all
# ----------------------------------------------------------------------
@pytest.mark.parametrize("low,high", [(600, 1400), (800, 1400), (1000, 1200)])
@pytest.mark.parametrize("seed", [0, 3])
def test_ft_phase_policy(low: float, high: float, seed: int) -> None:
    fast, ref = run_both(
        lambda: FT(klass="T", nprocs=4),
        lambda: InternalStrategy(PhasePolicy({"alltoall"}, low, high)),
        seed=seed,
    )
    assert_identical(fast, ref)
    assert fast.dvs_transitions > 0  # the plan actually switched gears


# ----------------------------------------------------------------------
# CG Figure 14: static heterogeneous per-rank speeds (SplitSpeeds)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n_high,high,low", [(2, 1400, 800), (1, 1200, 600), (3, 1400, 600)]
)
@pytest.mark.parametrize("seed", [0, 3])
def test_cg_split_speeds(n_high: int, high: float, low: float, seed: int) -> None:
    fast, ref = run_both(
        lambda: CG(klass="T", nprocs=4),
        lambda: InternalStrategy(RankPolicy.split(n_high, high, low)),
        seed=seed,
    )
    assert_identical(fast, ref)


def test_cg_heterogeneous_rank_map() -> None:
    speeds = {0: 1400.0, 1: 600.0, 2: 1400.0, 3: 600.0}
    fast, ref = run_both(
        lambda: CG(klass="T", nprocs=4),
        lambda: InternalStrategy(RankPolicy(dict(speeds))),
    )
    assert_identical(fast, ref)


def test_gear_plan_transitions_mid_communication() -> None:
    # The exchange phase is CG's p2p traffic: the lowered plan switches
    # gears right around rendezvous sends/recvs in flight between
    # heterogeneously-clocked nodes.
    fast, ref = run_both(
        lambda: CG(klass="T", nprocs=4),
        lambda: InternalStrategy(PhasePolicy({"exchange"}, 600, 1400)),
    )
    assert_identical(fast, ref)
    assert fast.dvs_transitions > 0


def test_ft_auto_picks_piecewise_tier(monkeypatch) -> None:
    # engine="auto" must route an INTERNAL strategy through the fast
    # tier now that its policy lowers to a gear plan.
    import repro.sim.straightline as straightline

    calls = []
    original = straightline.try_run_straightline

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result is not None)
        return result

    monkeypatch.setattr(straightline, "try_run_straightline", spy)
    m = run_workload(
        FT(klass="T", nprocs=4),
        InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)),
        engine="auto",
    )
    assert calls == [True]
    ref = run_workload(
        FT(klass="T", nprocs=4),
        InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)),
        engine="event",
    )
    assert_identical(m, ref)


# ----------------------------------------------------------------------
# gear-plan lowering rules
# ----------------------------------------------------------------------
def test_subclassed_policy_stays_dynamic() -> None:
    class Tweaked(PhasePolicy):
        def phase_begin(self, ctx, phase):  # pragma: no cover - never lowered
            pass

    strategy = InternalStrategy(Tweaked({"alltoall"}, 600, 1400))
    assert strategy.gear_plan(FT(klass="T", nprocs=4)) is None


def test_guarded_phase_policy_stays_dynamic() -> None:
    policy = PhasePolicy({"alltoall"}, 600, 1400, min_phase_seconds=0.5)
    assert InternalStrategy(policy).gear_plan(FT(klass="T", nprocs=4)) is None


def test_rank_policy_gap_stays_dynamic() -> None:
    # A mapping that misses rank 3: the event engine must surface the
    # genuine KeyError, so the plan refuses to lower.
    policy = RankPolicy({0: 1400.0, 1: 600.0, 2: 800.0})
    assert InternalStrategy(policy).gear_plan(CG(klass="T", nprocs=4)) is None


def test_is_static_delegates_to_gear_plan() -> None:
    assert NoDvsStrategy().is_static()
    assert ExternalStrategy(mhz=800.0).is_static()
    ext = ExternalStrategy(mhz=800.0)
    plan = ext.gear_plan(None)
    assert isinstance(plan, GearPlan) and plan.static
    # An INTERNAL strategy needs the workload to lower, so without one
    # it is not *statically* known — is_static() stays conservative.
    assert not InternalStrategy(PhasePolicy({"alltoall"})).is_static()

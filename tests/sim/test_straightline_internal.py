"""Piecewise-static INTERNAL runs on the straightline tier.

Differential equivalence for gear-changing strategies: every
:class:`Measurement` field must be bit-for-bit identical between the
event engine and the straightline tier's lowered gear plans — the same
contract ``test_straightline_equivalence`` pins for static runs,
extended to in-run ``set_cpuspeed`` calls (paper Figures 11 and 14).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.framework import Measurement, run_workload
from repro.core.strategies.base import GearPlan, NoDvsStrategy
from repro.core.strategies.external import ExternalStrategy
from repro.core.strategies.internal import (
    InternalStrategy,
    PhasePolicy,
    RankPolicy,
)
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.optimize.plan import OptimalPlanStrategy
from repro.sim.straightline import _lower_gear_actions, run_straightline
from repro.workloads.compile import compile_workload
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


# ----------------------------------------------------------------------
# DVS call overhead: a no-op call keeps its TOUCH breakpoint, a gear
# change's TOUCH (same instant as its GEAR) is never emitted
# ----------------------------------------------------------------------
class FreeCallsFT(FT):
    """FT whose ``set_cpuspeed`` calls stall for no overhead."""

    def cost_model(self):
        return dataclasses.replace(super().cost_model(),
                                   dvs_call_overhead_s=0.0)


def optimal_plan(workload, rows) -> OptimalPlanStrategy:
    """``rows[g]`` for every rank group of ``workload``'s compile."""
    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    group_of = compiled.group_of.tolist()
    return OptimalPlanStrategy(group_of, workload.phases,
                               [rows[g % len(rows)]
                                for g in range(compiled.n_groups)])


@pytest.mark.parametrize("make", [
    lambda: FT(klass="T", nprocs=4),
    lambda: FreeCallsFT(klass="T", nprocs=4),
], ids=["default-overhead", "no-overhead"])
def test_repeated_gear_row_matches_event_engine(make) -> None:
    # FT's phases are setup, evolve, alltoall, checksum.  Repeating
    # 1000 MHz over evolve and alltoall makes the alltoall call (and
    # every later evolve call) a no-op, next to gear-changing calls.
    row = (600.0, 1000.0, 1000.0, 600.0)
    fast, ref = run_both(make, lambda: optimal_plan(make(), [row]))
    assert_identical(fast, ref)
    workload = make()
    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    plan = optimal_plan(workload, [row]).gear_plan(workload)
    calls = sum(map(len, _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)))
    assert 0 < fast.dvs_transitions < calls  # both kinds of call ran


def test_gear_change_sheds_exactly_its_touch(monkeypatch) -> None:
    # Against the TOUCH-per-call emission: the same measurement, and a
    # CG.T.8 plan's breakpoint lists shrink by one event per
    # gear-changing call.
    import repro.sim.straightline as sl

    assert CG(klass="T", nprocs=8).cost_model().dvs_call_overhead_s != 0.0
    counts: list = []
    real_finalize = sl._Executor.finalize

    def finalize(self, t_end):
        counts.append({
            "events": sum(len(nd.events) for nd in self.nodes),
            "touches": sum(ev[2] == sl._EV_TOUCH
                           for nd in self.nodes for ev in nd.events),
            "calls": sum(len(r.acts) for r in self.ranks),
            "changes": sum(nd.gears for nd in self.nodes),
        })
        return real_finalize(self, t_end)

    monkeypatch.setattr(sl._Executor, "finalize", finalize)
    rows = [(600.0, 1000.0, 1400.0), (1400.0, 800.0, 1200.0)]
    trimmed = run_straightline(CG(klass="T", nprocs=8),
                               optimal_plan(CG(klass="T", nprocs=8), rows))

    real_apply = sl._Executor._apply_gear

    def apply_with_touch(self, r, target):
        # The TOUCH every call emitted before its GEAR at the same t.
        if target != r.node.index and r.node.cpu_free <= r.t:
            self._emit(r.node, r.t, sl._EV_TOUCH, None)
        real_apply(self, r, target)

    monkeypatch.setattr(sl._Executor, "_apply_gear", apply_with_touch)
    full = run_straightline(CG(klass="T", nprocs=8),
                            optimal_plan(CG(klass="T", nprocs=8), rows))
    assert_identical(trimmed, full)
    now, before = counts
    assert now["calls"] == before["calls"] > now["changes"] > 0
    assert now["changes"] == before["changes"]
    assert before["touches"] == before["calls"]
    assert now["touches"] == now["calls"] - now["changes"]
    assert before["events"] - now["events"] == now["changes"]

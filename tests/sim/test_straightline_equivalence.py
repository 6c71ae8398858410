"""Differential tests: straightline tier ≡ event engine, bit for bit.

The straightline executor promises *exact* reproduction of the event
engine's arithmetic on its supported subset (static or lowered gear
plans, no faults; tracing only for plans with no in-run DVS call).
Every comparison here is ``==`` on raw floats — no tolerances.
"""

from __future__ import annotations

import pytest

from repro.core.framework import Measurement, run_workload
from repro.core.strategies.base import NoDvsStrategy
from repro.core.strategies.cpuspeed import CpuspeedDaemonStrategy
from repro.core.strategies.external import ExternalStrategy
from repro.faults.spec import FaultSpec
from repro.sim.straightline import (
    StraightlineUnsupported,
    run_straightline,
    try_run_straightline,
)
from repro.workloads.compile import CompileError, compile_workload
from repro.workloads.microbench import CommBound, DiskBound
from repro.workloads.npb.cg import CG
from repro.workloads.npb.ep import EP
from repro.workloads.npb.ft import FT
from repro.workloads.npb.is_ import IS
from repro.workloads.npb.mg import MG
from repro.workloads.npb.sp import SP
from repro.workloads.spec import Swim

GEARS = [600.0, 800.0, 1000.0, 1200.0, 1400.0]

WORKLOADS = {
    "CG": lambda: CG(klass="T", nprocs=4),
    "FT": lambda: FT(klass="T", nprocs=4),
    "EP": lambda: EP(klass="T", nprocs=4),
    "MG": lambda: MG(klass="T", nprocs=4),
}


def assert_identical(fast: Measurement, ref: Measurement) -> None:
    """Field-by-field exact equality (floats compared with ==)."""
    assert fast.workload == ref.workload
    assert fast.strategy == ref.strategy
    assert fast.elapsed_s == ref.elapsed_s
    assert fast.energy_j == ref.energy_j
    assert fast.per_node_energy_j == ref.per_node_energy_j
    assert fast.dvs_transitions == ref.dvs_transitions
    assert fast.time_at_mhz == ref.time_at_mhz
    assert fast.acpi_energy_j == ref.acpi_energy_j
    assert fast.baytech_energy_j == ref.baytech_energy_j
    assert fast.trace is ref.trace is None
    assert fast.report is ref.report is None
    assert fast.extras == ref.extras


def run_both(workload_factory, strategy_factory, seed: int = 0):
    ref = run_workload(
        workload_factory(), strategy_factory(), seed=seed, engine="event"
    )
    fast = run_straightline(workload_factory(), strategy_factory(), seed=seed)
    return fast, ref


# ----------------------------------------------------------------------
# the differential matrix: EXTERNAL gears × NPB codes × seeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", sorted(WORKLOADS))
@pytest.mark.parametrize("mhz", GEARS)
def test_external_matrix(code: str, mhz: float) -> None:
    fast, ref = run_both(WORKLOADS[code], lambda: ExternalStrategy(mhz=mhz))
    assert_identical(fast, ref)


@pytest.mark.parametrize("code", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seed_matrix(code: str, seed: int) -> None:
    fast, ref = run_both(
        WORKLOADS[code], lambda: ExternalStrategy(mhz=800.0), seed=seed
    )
    assert_identical(fast, ref)


@pytest.mark.parametrize("code", sorted(WORKLOADS))
def test_nodvs_baseline(code: str) -> None:
    fast, ref = run_both(WORKLOADS[code], NoDvsStrategy)
    assert_identical(fast, ref)


def test_single_node_swim() -> None:
    fast, ref = run_both(
        lambda: Swim(klass="T"), lambda: ExternalStrategy(mhz=600.0)
    )
    assert_identical(fast, ref)


def test_idle_phases_diskbound() -> None:
    fast, ref = run_both(
        lambda: DiskBound(seconds=0.5, cycles_count=4),
        lambda: ExternalStrategy(mhz=1000.0),
    )
    assert_identical(fast, ref)


def test_heterogeneous_per_node_gears() -> None:
    fast, ref = run_both(
        WORKLOADS["CG"],
        lambda: ExternalStrategy(per_node_mhz=[600.0, 1400.0, 800.0, 1200.0]),
    )
    assert_identical(fast, ref)


def test_rendezvous_pingpong() -> None:
    # 1 MB messages sit far above the eager threshold: the rendezvous
    # RTS/CTS path with both CPUs in progress state.
    fast, ref = run_both(
        lambda: CommBound(nprocs=2, rounds=3, nbytes=1e6),
        lambda: ExternalStrategy(mhz=800.0),
    )
    assert_identical(fast, ref)


def test_collective_collision_is() -> None:
    # IS: alltoall/alltoallv with a non-zero collision coefficient —
    # the frequency-dependent congestion term must match exactly.
    for mhz in (600.0, 1400.0):
        fast, ref = run_both(
            lambda: IS(klass="T", nprocs=4), lambda: ExternalStrategy(mhz=mhz)
        )
        assert_identical(fast, ref)


def test_p2p_collision_sp() -> None:
    # SP: the only code whose point-to-point wire bytes carry the
    # collision factor (cost.p2p_wire_bytes).
    for mhz in (600.0, 1400.0):
        fast, ref = run_both(
            lambda: SP(klass="T", nprocs=4), lambda: ExternalStrategy(mhz=mhz)
        )
        assert_identical(fast, ref)


def test_auto_equals_event() -> None:
    # engine="auto" must give byte-identical results to both tiers.
    auto = run_workload(WORKLOADS["CG"](), ExternalStrategy(mhz=800.0))
    ref = run_workload(WORKLOADS["CG"](), ExternalStrategy(mhz=800.0), engine="event")
    assert_identical(auto, ref)


# ----------------------------------------------------------------------
# fallback triggers: these configurations must run on the event engine
# ----------------------------------------------------------------------
def _event_only(monkeypatch, **kwargs):
    """``run_workload(engine="auto")`` on CG with the fast tier poisoned:
    the configuration must never consult it."""
    import repro.sim.straightline as sl

    def boom(*args, **kw):  # pragma: no cover - failure mode
        raise AssertionError("straightline tier consulted")

    with monkeypatch.context() as m:
        m.setattr(sl, "try_run_straightline", boom)
        m.setattr(sl, "run_straightline", boom)
        return run_workload(
            WORKLOADS["CG"](), kwargs.pop("strategy", ExternalStrategy(mhz=800.0)),
            **kwargs,
        )


def test_faults_fall_back(monkeypatch) -> None:
    m = _event_only(monkeypatch, faults=FaultSpec(transition_fail_rate=0.5))
    assert m.elapsed_s > 0  # event tier, reports like a normal run


def test_trace_falls_back(monkeypatch) -> None:
    # Only a static plan traces on the fast tier (see
    # test_straightline_trace.py): a traced plan with in-run DVS calls,
    # or a traced daemon, stays on the event engine.
    from repro.core.strategies.internal import InternalStrategy, RankPolicy

    internal = InternalStrategy(RankPolicy.split(2, 1400.0, 800.0))
    assert not internal.gear_plan(WORKLOADS["CG"]()).static
    for strategy in (internal, CpuspeedDaemonStrategy()):
        m = _event_only(monkeypatch, strategy=strategy, trace=True)
        assert m.trace is not None and len(m.trace) > 0


def test_channels_fall_back(monkeypatch) -> None:
    m = _event_only(monkeypatch, measurement_channels=True)
    assert m.acpi_energy_j is not None


def test_dynamic_strategy_falls_back(monkeypatch) -> None:
    # cpuspeed/predictive daemons run on the sampled-control tier and
    # beta/power-cap on the stateful-controller tier
    # (tests/sim/test_straightline_stateful.py); a Strategy subclass
    # with neither a gear plan nor a controller — the conservative
    # defaults — remains the declined representative.
    from repro.core.strategies.base import Strategy

    class AdHoc(Strategy):
        name = "adhoc-dynamic"

    assert not AdHoc().is_static()
    with pytest.raises(StraightlineUnsupported, match="no static gear plan"):
        run_straightline(WORKLOADS["CG"](), AdHoc())
    m = _event_only(monkeypatch, strategy=AdHoc())
    assert m.dvs_transitions >= 0


def test_auto_consults_fast_tier(monkeypatch) -> None:
    import repro.sim.straightline as sl

    calls = []
    real = sl.try_run_straightline

    def spy(workload, strategy=None, **kw):
        calls.append(workload.name)
        return real(workload, strategy, **kw)

    monkeypatch.setattr(sl, "try_run_straightline", spy)
    run_workload(WORKLOADS["EP"](), ExternalStrategy(mhz=800.0))
    assert calls == ["EP"]
    calls.clear()
    run_workload(WORKLOADS["EP"](), CpuspeedDaemonStrategy())
    assert calls == ["EP"]  # daemons consult the sampled-control tier
    calls.clear()
    from repro.core.strategies import BetaDaemonStrategy

    run_workload(WORKLOADS["EP"](), BetaDaemonStrategy())
    assert calls == ["EP"]  # stateful controllers consult the tier too


def test_plan_mismatch_is_typed() -> None:
    # A per-node start table shorter than the job declines with its
    # own code, not the generic "unsupported".
    from repro.core.strategies.base import GearPlan, Strategy

    class Short(Strategy):
        name = "short-table"

        def gear_plan(self, workload):
            return GearPlan(start_mhz_per_rank=(800.0,))

    stats: dict = {}
    assert try_run_straightline(WORKLOADS["CG"](), Short(), stats=stats) is None
    assert stats["fallback_reason"] == "plan_mismatch"


def test_unrecordable_program_returns_none() -> None:
    class Weird(CommBound):
        def make_program(self, hooks=None):
            def program(ctx):
                yield ctx.env.timeout(1.0)  # raw event: not recordable

            return program

    assert try_run_straightline(Weird(nprocs=2)) is None
    with pytest.raises(CompileError):
        compile_workload(Weird(nprocs=2), 1.4e9)

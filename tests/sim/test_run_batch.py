"""Many points of one workload per call (:func:`run_batch`).

The contract: a batch returns one Measurement per (strategy, seed)
point, in input order, each bit-for-bit equal to the single-point
straightline run (and therefore to the event engine).  Each distinct
gear plan is compiled, lowered and interpreted once per call.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.framework import run_workload
from repro.core.strategies.base import NoDvsStrategy
from repro.core.strategies.cpuspeed import CpuspeedDaemonStrategy
from repro.core.strategies.external import ExternalStrategy
from repro.core.strategies.internal import (
    InternalStrategy,
    PhasePolicy,
    RankPolicy,
)
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.optimize.plan import OptimalPlanStrategy
from repro.sim.straightline import (
    lowering_cache_counters,
    run_batch,
    run_straightline,
)
from repro.workloads.compile import compile_workload
from repro.workloads.npb.cg import CG
from repro.workloads.npb.ft import FT
from repro.workloads.npb.mg import MG


def assert_batch_matches_scalar(workload_factory, points) -> None:
    batch = run_batch(workload_factory(), points)
    assert len(batch) == len(points)
    for (strategy, seed), measured in zip(points, batch):
        ref = run_straightline(workload_factory(), strategy, seed=seed)
        assert measured == ref


def test_external_grid() -> None:
    points = [
        (ExternalStrategy(mhz=mhz), seed)
        for mhz in (600.0, 800.0, 1000.0, 1200.0, 1400.0)
        for seed in (0, 1)
    ]
    assert_batch_matches_scalar(lambda: FT(klass="T", nprocs=4), points)


def test_internal_phase_grid() -> None:
    points = [
        (InternalStrategy(PhasePolicy({"alltoall"}, low, high)), seed)
        for low, high in [(600, 1400), (800, 1400), (1000, 1200)]
        for seed in (0, 3)
    ]
    assert_batch_matches_scalar(lambda: FT(klass="T", nprocs=4), points)


def test_internal_rank_grid() -> None:
    points = [
        (InternalStrategy(RankPolicy.split(n, high, low)), 0)
        for n, high, low in [(1, 1400, 600), (2, 1400, 800), (3, 1200, 600)]
    ]
    assert_batch_matches_scalar(lambda: CG(klass="T", nprocs=4), points)


def test_mixed_shapes_one_call() -> None:
    # Plans of different kinds in one call return in input order.
    points = [
        (NoDvsStrategy(), 0),
        (ExternalStrategy(mhz=800.0), 0),
        (InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)), 0),
        (ExternalStrategy(per_node_mhz=[1400.0, 600.0, 1400.0, 600.0]), 0),
        (InternalStrategy(PhasePolicy({"alltoall"}, 800, 1200)), 1),
    ]
    assert_batch_matches_scalar(lambda: FT(klass="T", nprocs=4), points)


def test_none_strategy_is_nodvs() -> None:
    workload = FT(klass="T", nprocs=4)
    batch = run_batch(workload, [(None, 0), (ExternalStrategy(mhz=600.0), 0)])
    ref = run_straightline(FT(klass="T", nprocs=4), NoDvsStrategy())
    assert batch[0] == ref


def test_dynamic_strategy_point_runs_on_event_engine() -> None:
    # A point without a gear plan is declined, not raised: it runs on
    # the event engine while the rest of the call stays on the tier.
    stats: dict = {}
    batch = run_batch(
        FT(klass="T", nprocs=4),
        [(ExternalStrategy(mhz=800.0), 0), (CpuspeedDaemonStrategy(), 1)],
        stats=stats,
    )
    assert batch[0] == run_straightline(
        FT(klass="T", nprocs=4), ExternalStrategy(mhz=800.0)
    )
    assert batch[1] == run_workload(
        FT(klass="T", nprocs=4), CpuspeedDaemonStrategy(), seed=1,
        engine="event",
    )
    assert stats["event_points"] == 1
    assert stats["fallback_reasons"] == {"no_plan": 1}


def test_single_point_batch() -> None:
    assert_batch_matches_scalar(
        lambda: CG(klass="T", nprocs=4), [(ExternalStrategy(mhz=1000.0), 2)]
    )


def test_empty_batch_returns_empty_list() -> None:
    """Regression: an empty points list must not reach the compiler."""
    assert run_batch(FT(klass="T", nprocs=4), []) == []


# ----------------------------------------------------------------------
# Duplicate and diverging plans: each distinct plan is simulated once
# ----------------------------------------------------------------------
def spy_executors(monkeypatch) -> list:
    """One entry per ``_Executor`` construction from here on."""
    import repro.sim.straightline as sl

    built: list = []
    real_init = sl._Executor.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(sl._Executor, "__init__", init)
    return built


def test_duplicate_plans_are_simulated_once(monkeypatch) -> None:
    # The seed cannot reach a straightline run: 3 plans x 4 seeds build
    # 3 interpreters, and each point still gets a result of its own.
    # The labels give equal plans different descriptions.
    points = [
        (InternalStrategy(PhasePolicy({"alltoall"}, low, high),
                          label=f"{low}-{high}@{seed}"), seed)
        for low, high in [(600, 1400), (800, 1400), (1000, 1200)]
        for seed in range(4)
    ]
    refs = [run_straightline(FT(klass="T", nprocs=4), s, seed=seed)
            for s, seed in points]
    built = spy_executors(monkeypatch)
    stats: dict = {}
    batch = run_batch(FT(klass="T", nprocs=4), points, stats=stats)
    assert len(built) == 3
    assert stats["quotient_points"] == len(points)
    assert batch == refs
    assert len({id(m) for m in batch}) == len(batch)
    for (strategy, _seed), measured in zip(points, batch):
        assert measured.strategy == strategy.describe()
    node, energy = next(iter(batch[0].per_node_energy_j.items()))
    batch[0].per_node_energy_j[node] = -1.0
    batch[0].time_at_mhz.clear()
    assert batch[1] == refs[1]
    assert batch[1].per_node_energy_j[node] == energy


def test_diverging_plans_lower_and_compile_once(monkeypatch) -> None:
    # CG's split-speed plans reorder the rank schedule across gears.
    # Each plan is looked up in the lowering cache once and run once
    # on its quotient program, and the workload compiles once per call.
    import repro.sim.straightline as sl

    points = [
        (InternalStrategy(RankPolicy.split(4, 1400, 600)), 0),
        (InternalStrategy(RankPolicy.split(4, 1400, 800)), 0),
        (ExternalStrategy(per_node_mhz=[1400.0] * 4 + [600.0] * 4), 0),
        (InternalStrategy(RankPolicy.split(4, 600, 1400)), 0),
    ]
    refs = [run_straightline(CG(klass="T", nprocs=8), s, seed=seed)
            for s, seed in points]
    compiles: list = []
    real_compile = sl.compile_workload

    def compile_spy(workload, hz):
        compiles.append(workload)
        return real_compile(workload, hz)

    monkeypatch.setattr(sl, "compile_workload", compile_spy)
    built = spy_executors(monkeypatch)
    h0, m0 = lowering_cache_counters()
    stats: dict = {}
    batch = run_batch(CG(klass="T", nprocs=8), points, stats=stats)
    h1, m1 = lowering_cache_counters()
    assert (h1 - h0) + (m1 - m0) == len(points)
    assert len(compiles) == 1
    assert len(built) == len(points)
    assert stats["quotient_points"] == len(points)
    assert batch == refs


def test_declined_duplicate_runs_event_engine_with_own_seed(
    monkeypatch, event_engine_runs
) -> None:
    # When the per-plan run refuses a plan, every point holding it runs
    # on the event engine with its own seed: event-engine results may
    # depend on the seed.
    import repro.core.framework as framework
    import repro.sim.straightline as sl

    def refuse(*args, **kwargs):
        raise sl.StraightlineUnsupported("refused for the test")

    seeds: list[int] = []
    real_run = framework.run_workload

    def run(workload, strategy=None, *, seed=0, **kwargs):
        seeds.append(seed)
        return real_run(workload, strategy, seed=seed, **kwargs)

    monkeypatch.setattr(sl, "_run_plan", refuse)
    monkeypatch.setattr(framework, "run_workload", run)
    strategy = ExternalStrategy(mhz=800.0)
    stats: dict = {}
    batch = run_batch(FT(klass="T", nprocs=4),
                      [(strategy, 0), (strategy, 1)], stats=stats)
    assert len(event_engine_runs) == 2
    assert seeds == [0, 1]
    assert stats["event_points"] == 2
    assert stats["fallback_reasons"] == {"unsupported": 2}
    assert batch[0] is not batch[1]
    for seed, measured in enumerate(batch):
        assert measured == real_run(FT(klass="T", nprocs=4), strategy,
                                    seed=seed, engine="event")


def _with_groups(make):
    """``make`` and its workload's compile-time rank → group map."""
    compiled = compile_workload(make(), PENTIUM_M_TABLE.fastest.frequency_hz)
    return make, tuple(int(g) for g in compiled.group_of)


MIXED = {
    "CG": _with_groups(lambda: CG(klass="T", nprocs=8)),
    "MG": _with_groups(lambda: MG(klass="T", nprocs=8)),
}


@st.composite
def mixed_plan_batches(draw):
    """A code and per-group, per-phase optimizer plans for it, with
    repeats: the asymmetric schedules whose batches diverge."""
    code = draw(st.sampled_from(sorted(MIXED)))
    make, group_of = MIXED[code]
    phases = make().phases
    n_groups = max(group_of) + 1
    mhz = st.sampled_from(PENTIUM_M_TABLE.frequencies_mhz())
    row = st.lists(mhz, min_size=len(phases), max_size=len(phases))
    table = st.lists(row, min_size=n_groups, max_size=n_groups)
    tables = draw(st.lists(table, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(tables), min_size=2, max_size=6))
    return code, [
        (OptimalPlanStrategy(group_of, phases, t), seed)
        for seed, t in enumerate(picks)
    ]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mixed_plan_batches())
def test_mixed_plan_batch_matches_scalar_lanes(case) -> None:
    code, points = case
    make, _group_of = MIXED[code]
    batch = run_batch(make(), points)
    for (strategy, seed), measured in zip(points, batch):
        assert measured == run_straightline(make(), strategy, seed=seed)


# ----------------------------------------------------------------------
# deadline_s: plans that end past it come back as None, unintegrated
# ----------------------------------------------------------------------
def _bits(m) -> dict:
    """Every measured field of ``m``, floats as ``float.hex``."""
    return {
        "workload": m.workload,
        "strategy": m.strategy,
        "elapsed_s": m.elapsed_s.hex(),
        "energy_j": m.energy_j.hex(),
        "per_node_energy_j": {
            nid: e.hex() for nid, e in m.per_node_energy_j.items()
        },
        "dvs_transitions": m.dvs_transitions,
        "time_at_mhz": {
            mhz.hex(): s.hex() for mhz, s in m.time_at_mhz.items()
        },
        "acpi_energy_j": m.acpi_energy_j,
        "baytech_energy_j": m.baytech_energy_j,
        "trace": m.trace,
        "extras": m.extras,
    }


def _deadline_points() -> list:
    """FT.T.4 at every gear, the slow ones repeated under new seeds."""
    return [
        (ExternalStrategy(mhz=mhz), seed)
        for seed in (0, 1)
        for mhz in (600.0, 800.0, 1000.0, 1200.0, 1400.0)
    ]


def test_deadline_drops_late_plans_and_their_duplicates() -> None:
    points = _deadline_points()
    full_stats: dict = {}
    full = run_batch(FT(klass="T", nprocs=4), points, stats=full_stats)
    deadline = full[2].elapsed_s  # the 1000 MHz run: 600/800 end later
    stats: dict = {}
    cut = run_batch(FT(klass="T", nprocs=4), points, stats=stats,
                    deadline_s=deadline)
    late = [m.elapsed_s > deadline for m in full]
    assert late == [True, True, False, False, False] * 2
    for was_late, f, c in zip(late, full, cut):
        if was_late:
            assert c is None
        else:
            assert _bits(c) == _bits(f)
    assert stats == full_stats


def test_deadline_never_cuts_a_declined_point(monkeypatch) -> None:
    # The event engine measures a declined point in full, wherever it
    # ends: a plan-less daemon point in an ordinary call, and every
    # point of a call whose workload does not compile.
    import repro.sim.straightline as sl
    from repro.workloads.compile import CompileError

    points = [(ExternalStrategy(mhz=600.0), 0), (CpuspeedDaemonStrategy(), 1)]
    full_stats: dict = {}
    full = run_batch(FT(klass="T", nprocs=4), points, stats=full_stats)
    stats: dict = {}
    cut = run_batch(FT(klass="T", nprocs=4), points, stats=stats,
                    deadline_s=0.0)
    assert cut[0] is None
    assert _bits(cut[1]) == _bits(full[1])
    assert stats == full_stats == {
        "quotient_points": 1, "event_points": 1,
        "fallback_reasons": {"no_plan": 1},
    }

    def refuse(workload, hz):
        raise CompileError("declined for the test")

    monkeypatch.setattr(sl, "compile_workload", refuse)
    points = _deadline_points()[:3]
    full_stats = {}
    full = run_batch(FT(klass="T", nprocs=4), points, stats=full_stats)
    stats = {}
    cut = run_batch(FT(klass="T", nprocs=4), points, stats=stats,
                    deadline_s=0.0)
    assert [_bits(m) for m in cut] == [_bits(m) for m in full]
    assert stats == full_stats == {
        "event_points": 3, "fallback_reasons": {"compile_error": 3},
    }


def test_deadline_skips_finalize_only_for_late_plans(monkeypatch) -> None:
    # A late plan still runs its interpreter (the verdict needs its
    # elapsed time) but never integrates energy.
    import repro.sim.straightline as sl

    finalized: list = []
    real_finalize = sl._Executor.finalize

    def finalize(self, t_end):
        finalized.append(t_end)
        return real_finalize(self, t_end)

    monkeypatch.setattr(sl._Executor, "finalize", finalize)
    built = spy_executors(monkeypatch)
    points = _deadline_points()
    deadline = run_batch(FT(klass="T", nprocs=4), points[2:3])[0].elapsed_s
    built.clear()
    finalized.clear()
    run_batch(FT(klass="T", nprocs=4), points, deadline_s=deadline)
    assert len(built) == 5  # one interpreter per distinct plan
    assert len(finalized) == 3 and max(finalized) <= deadline

"""Batched numpy evaluation (:func:`repro.sim.straightline.run_batch`).

The contract: a batch returns one Measurement per (strategy, seed)
point, in input order, each bit-for-bit equal to the scalar
straightline run (and therefore to the event engine).
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
    # Different gear-plan shapes group separately but return in order.
    points = [
        (NoDvsStrategy(), 0),
        (ExternalStrategy(mhz=800.0), 0),
        (InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)), 0),
        (ExternalStrategy(per_node_mhz=[1400.0, 600.0, 1400.0, 600.0]), 0),
        (InternalStrategy(PhasePolicy({"alltoall"}, 800, 1200)), 1),
    ]
    assert_batch_matches_scalar(lambda: FT(klass="T", nprocs=4), points)


def test_partially_masked_gear_events() -> None:
    # Grouping a plan whose gear call is a no-op (low == high: the
    # begin-phase call re-sets the current point) with one that really
    # shifts gears produces gear events masked to part of the batch —
    # the masked-out elements' integration must still match scalar bits.
    import repro.sim.straightline as sl

    executors = []
    orig = sl._BatchExecutor.finalize

    def spy(self, t_end):
        executors.append(any(
            ev[2] == sl._EV_GEAR and not ev[4].all()
            for node in self.nodes
            for ev in node.events
        ))
        return orig(self, t_end)

    sl._BatchExecutor.finalize = spy
    try:
        points = [
            (InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)), 0),
            (InternalStrategy(PhasePolicy({"alltoall"}, 1400, 1400)), 0),
        ]
        assert_batch_matches_scalar(lambda: FT(klass="T", nprocs=4), points)
    finally:
        sl._BatchExecutor.finalize = orig
    assert True in executors  # a partially masked gear event ran


def test_masked_gear_event_is_no_boundary() -> None:
    # An element a gear event is masked out of integrates as if the
    # event were absent.  The event sits strictly between its
    # neighbours, so splitting the interval there would round
    # differently from the one whole-gap interval a lone run adds.
    import numpy as np

    import repro.sim.straightline as sl
    from repro.hardware.network import NetworkParameters
    from repro.hardware.opoints import PENTIUM_M_TABLE
    from repro.hardware.power import NEMO_POWER
    from repro.workloads.compile import compile_workload

    workload = FT(klass="T", nprocs=4)
    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    seg = (1.0, 1.0, 0.0, 0.0)

    def integrate(events):
        B = len(events[0][0])
        ex = sl._BatchExecutor(
            compiled, workload.cost_model(), NetworkParameters(), NEMO_POWER,
            PENTIUM_M_TABLE, [np.full(B, 2)] * 4, None, 20e-6,
        )
        T = np.stack([e[0] for e in events])
        return ex._integrate_matrix(ex.nodes[0], events, T, np.full(B, 0.9))

    def ev(times, seq, kind, payload=None, mask=None):
        return (np.array(times), seq, kind, payload, mask)

    batch = integrate([
        ev([0.1, 0.1], 1, sl._EV_START, seg),
        ev([0.2, 0.2], 2, sl._EV_GEAR, np.array([4, 2]),
           np.array([True, False])),
        ev([0.5, 0.5], 3, sl._EV_END),
    ])
    shifted = integrate([
        ev([0.1], 1, sl._EV_START, seg),
        ev([0.2], 2, sl._EV_GEAR, np.array([4]), np.array([True])),
        ev([0.5], 3, sl._EV_END),
    ])
    lone = integrate([ev([0.1], 1, sl._EV_START, seg), ev([0.5], 3, sl._EV_END)])
    assert batch[0][0] == shifted[0][0] and batch[1][0] == shifted[1][0]
    assert batch[0][1] == lone[0][0] and batch[1][1] == lone[1][0]


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
# Divergence and duplicate plans: each distinct plan is simulated once
# ----------------------------------------------------------------------
def spy_tiers(monkeypatch) -> tuple[list, list]:
    """(``_BatchExecutor`` widths, ``run_straightline`` strategies), one
    entry per executor construction / scalar run from here on."""
    import repro.sim.straightline as sl

    widths: list[int] = []
    scalars: list = []
    real_init = sl._BatchExecutor.__init__
    real_scalar = sl.run_straightline

    def init(self, compiled, cost, net, power, opoints, start_idx, *args,
             **kwargs):
        widths.append(len(start_idx[0]))
        real_init(self, compiled, cost, net, power, opoints, start_idx,
                  *args, **kwargs)

    def scalar(workload, strategy=None, **kwargs):
        scalars.append(strategy)
        return real_scalar(workload, strategy, **kwargs)

    monkeypatch.setattr(sl._BatchExecutor, "__init__", init)
    monkeypatch.setattr(sl, "run_straightline", scalar)
    return widths, scalars


def test_diverged_batch_runs_each_plan_once_on_scalar(monkeypatch) -> None:
    # CG's split-speed plans reorder the rank schedule across gears, so
    # their batch diverges.  It is abandoned once, not bisected: every
    # plan then runs exactly once on the scalar tier.  The EXTERNAL
    # plan is a shape group of its own and never builds an executor.
    points = [
        (InternalStrategy(RankPolicy.split(4, 1400, 600)), 0),
        (InternalStrategy(RankPolicy.split(4, 1400, 800)), 0),
        (ExternalStrategy(per_node_mhz=[1400.0] * 4 + [600.0] * 4), 0),
        (InternalStrategy(RankPolicy.split(4, 600, 1400)), 0),
    ]
    refs = [run_straightline(CG(klass="T", nprocs=8), s, seed=seed)
            for s, seed in points]
    widths, scalars = spy_tiers(monkeypatch)
    stats: dict = {}
    batch = run_batch(CG(klass="T", nprocs=8), points, stats=stats)
    assert widths == [3]
    assert sorted(map(id, scalars)) == sorted(id(s) for s, _ in points)
    assert stats["splits"] == 1
    assert stats["scalar_points"] == 4
    assert "quotient_points" not in stats
    assert batch == refs


def test_duplicate_plans_are_simulated_once(monkeypatch) -> None:
    # The seed cannot reach a straightline run: 3 plans x 4 seeds is a
    # batch of 3, and each point still gets a result of its own.  The
    # labels give equal plans different descriptions.
    points = [
        (InternalStrategy(PhasePolicy({"alltoall"}, low, high),
                          label=f"{low}-{high}@{seed}"), seed)
        for low, high in [(600, 1400), (800, 1400), (1000, 1200)]
        for seed in range(4)
    ]
    refs = [run_straightline(FT(klass="T", nprocs=4), s, seed=seed)
            for s, seed in points]
    widths, scalars = spy_tiers(monkeypatch)
    stats: dict = {}
    batch = run_batch(FT(klass="T", nprocs=4), points, stats=stats)
    assert widths == [3]
    assert not scalars
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


def test_declined_duplicate_runs_event_engine_with_own_seed(
    monkeypatch, event_engine_runs
) -> None:
    # When the scalar tier refuses a plan, every point holding it runs
    # on the event engine with its own seed: event-engine results may
    # depend on the seed.
    import repro.core.framework as framework
    import repro.sim.straightline as sl

    def refuse(workload, strategy=None, **kwargs):
        raise sl.StraightlineUnsupported("refused for the test")

    seeds: list[int] = []
    real_run = framework.run_workload

    def run(workload, strategy=None, *, seed=0, **kwargs):
        seeds.append(seed)
        return real_run(workload, strategy, seed=seed, **kwargs)

    monkeypatch.setattr(sl, "run_straightline", refuse)
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

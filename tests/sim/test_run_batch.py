"""Batched numpy evaluation (:func:`repro.sim.straightline.run_batch`).

The contract: a batch returns one Measurement per (strategy, seed)
point, in input order, each bit-for-bit equal to the scalar
straightline run (and therefore to the event engine).
"""

from __future__ import annotations

from repro.core.framework import run_workload
from repro.core.strategies.base import NoDvsStrategy
from repro.core.strategies.cpuspeed import CpuspeedDaemonStrategy
from repro.core.strategies.external import ExternalStrategy
from repro.core.strategies.internal import (
    InternalStrategy,
    PhasePolicy,
    RankPolicy,
)
from repro.sim.straightline import (
    run_batch,
    run_straightline,
)
from repro.workloads.npb.cg import CG
from repro.workloads.npb.ft import FT


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

"""OptimalPlanStrategy: validation and cross-tier equivalence."""

from __future__ import annotations

import pytest

from repro.core.framework import run_workload
from repro.optimize import OptimalPlanStrategy
from repro.sim.straightline import run_batch, run_straightline
from repro.workloads.npb.cg import CG
from repro.workloads.npb.ft import FT


def test_validation_rejects_malformed_tables() -> None:
    with pytest.raises(ValueError, match="at least one phase"):
        OptimalPlanStrategy((0, 0), (), ())
    with pytest.raises(ValueError, match="covers 1 groups"):
        OptimalPlanStrategy((0, 1), ("a",), [[600.0]])
    with pytest.raises(ValueError, match="2 entries for 1 phases"):
        OptimalPlanStrategy((0,), ("a",), [[600.0, 800.0]])


def test_validation_rejects_mismatched_workload() -> None:
    w = FT(klass="T", nprocs=4)
    wrong_ranks = OptimalPlanStrategy((0,) * 8, w.phases, [[1400.0] * 4])
    with pytest.raises(ValueError, match="8 ranks"):
        wrong_ranks.gear_plan(w)
    wrong_phase = OptimalPlanStrategy((0,) * 4, ("bogus",), [[1400.0]])
    with pytest.raises(ValueError, match="never announces"):
        wrong_phase.hooks(w)


def test_gear_plan_shape_and_static() -> None:
    w = FT(klass="T", nprocs=4)
    s = OptimalPlanStrategy(
        (0,) * 4, w.phases, [[1400.0, 600.0, 600.0, 1400.0]]
    )
    plan = s.gear_plan(w)
    assert plan is not None
    assert not plan.static
    assert s.gear_plan(None) == plan  # the workload only validates it
    assert plan.start_mhz_per_rank == (1400.0,) * 4
    assert plan.calls_at("init", "", 0) == ()  # setup pins the start speed
    assert plan.calls_at("begin", "evolve", 2) == (600.0,)
    assert plan.calls_at("end", "evolve", 2) == ()
    assert "1g x 4p" in s.describe()

    # a phase-uniform table never issues a call: pure per-rank EXTERNAL
    uniform = OptimalPlanStrategy((0,) * 4, w.phases, [[800.0] * 4])
    uplan = uniform.gear_plan(w)
    assert uplan.static
    assert uplan.start_mhz_per_rank == (800.0,) * 4
    assert uplan.rank_begin_calls == ()


@pytest.mark.parametrize(
    "make_workload, groups",
    [
        (lambda: FT(klass="T", nprocs=4), (0, 0, 0, 0)),
        (lambda: CG(klass="T", nprocs=4), (0, 0, 1, 1)),
    ],
)
def test_event_engine_matches_straightline(make_workload, groups) -> None:
    w = make_workload()
    n_groups = 1 + max(groups)
    gears = [1400.0, 800.0, 600.0, 1000.0]
    table = [
        [gears[(g + p) % len(gears)] for p in range(len(w.phases))]
        for g in range(n_groups)
    ]
    s = OptimalPlanStrategy(groups, w.phases, table)
    ev = run_workload(make_workload(), s, engine="event")
    sl = run_straightline(make_workload(), s)
    assert ev.elapsed_s == sl.elapsed_s
    assert ev.energy_j == sl.energy_j
    assert ev.per_node_energy_j == sl.per_node_energy_j


def test_batched_plans_match_scalar() -> None:
    w = CG(klass="T", nprocs=4)
    groups = (0, 0, 1, 1)
    tables = [
        [[1400.0, 600.0, 1400.0], [800.0, 600.0, 800.0]],
        [[1200.0, 1200.0, 1200.0], [600.0, 600.0, 600.0]],
        [[1000.0, 800.0, 1400.0], [1400.0, 1000.0, 600.0]],
    ]
    points = [
        (OptimalPlanStrategy(groups, w.phases, t), 0) for t in tables
    ]
    batch = run_batch(CG(klass="T", nprocs=4), points)
    for (s, seed), m in zip(points, batch):
        assert m == run_straightline(CG(klass="T", nprocs=4), s, seed=seed)

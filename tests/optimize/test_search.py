"""Frontier search: brute-force equality, constraint, telemetry."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import run_workload
from repro.experiments.store import CacheStats
from repro.optimize import OptimalPlanStrategy, optimize_gear_plan, search
from repro.workloads.npb.ft import FT

from tests.optimize.conftest import TwoGroupWorkload

GROUPS = (0, 0, 1, 1)


def brute_force(workload, delta, opoints, stats=None):
    """Enumerate every plan on the event engine; return (best, baseline)."""
    mhzs = opoints.frequencies_mhz()
    P = len(workload.phases)
    baseline = run_workload(
        workload,
        OptimalPlanStrategy(GROUPS, workload.phases, [[mhzs[-1]] * P] * 2),
        opoints=opoints,
        engine="event",
    )
    cap = (1 + delta) * baseline.elapsed_s
    best = None
    for combo in itertools.product(mhzs, repeat=2 * P):
        table = [combo[:P], combo[P:]]
        m = run_workload(
            workload,
            OptimalPlanStrategy(GROUPS, workload.phases, table),
            opoints=opoints,
            engine="event",
        )
        if m.elapsed_s <= cap * (1 + 1e-9):
            if best is None or (m.energy_j, m.elapsed_s) < (
                best.energy_j,
                best.elapsed_s,
            ):
                best = m
    return best, baseline


def test_exhaustive_matches_event_engine_brute_force(
    two_group, three_gears
) -> None:
    stats = CacheStats()
    res = optimize_gear_plan(
        two_group, delta=0.08, opoints=three_gears, stats=stats
    )
    assert res.telemetry.exhaustive
    assert res.telemetry.space_size == 3 ** 4
    assert res.n_groups == 2

    expected, baseline = brute_force(two_group, 0.08, three_gears)
    # bit-exact equality with the independent event-engine enumeration
    assert res.best.energy_j == expected.energy_j
    assert res.best.elapsed_s == expected.elapsed_s
    assert res.baseline.elapsed_s == baseline.elapsed_s
    assert res.baseline.energy_j == baseline.energy_j

    assert stats.opt_candidates == 3 ** 4
    assert stats.opt_pruned == 3 ** 4 - len(res.frontier)
    assert stats.opt_batches == res.telemetry.batches > 0
    assert stats.opt_max_batch == res.telemetry.max_batch > 0


def test_frontier_search_matches_exhaustive(
    two_group, three_gears, monkeypatch
) -> None:
    exhaustive = optimize_gear_plan(
        two_group, delta=0.08, opoints=three_gears, stats=CacheStats()
    )
    # force the frontier search on the same space
    monkeypatch.setattr(search, "EXHAUSTIVE_LIMIT", 0)
    searched = optimize_gear_plan(
        two_group, delta=0.08, opoints=three_gears, stats=CacheStats()
    )
    assert not searched.telemetry.exhaustive
    assert searched.telemetry.rounds >= 1
    assert searched.best.energy_j == exhaustive.best.energy_j
    assert searched.best.elapsed_s == exhaustive.best.elapsed_s
    # the search visits a strict subset of the space
    assert (
        searched.telemetry.candidates_evaluated
        < exhaustive.telemetry.candidates_evaluated
    )


def test_frontier_is_feasible_and_nondominated(two_group, three_gears) -> None:
    res = optimize_gear_plan(
        two_group, delta=0.10, opoints=three_gears, stats=CacheStats()
    )
    cap = 1.10 * res.baseline.elapsed_s
    for c in res.frontier:
        assert c.feasible
        assert c.elapsed_s <= cap * (1 + 1e-9)
    for a, b in itertools.permutations(res.frontier, 2):
        dominates = (
            a.elapsed_s <= b.elapsed_s
            and a.energy_j <= b.energy_j
            and (a.elapsed_s < b.elapsed_s or a.energy_j < b.energy_j)
        )
        assert not dominates
    # the winner is on the frontier and minimizes energy over it
    energies = [c.energy_j for c in res.frontier]
    assert res.best.energy_j == min(energies)


@given(
    delta=st.floats(min_value=0.0, max_value=0.25),
    exhaustive=st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_returned_plan_never_violates_constraint(delta, exhaustive) -> None:
    from repro.hardware.opoints import PENTIUM_M_TABLE, OperatingPointTable

    opoints = OperatingPointTable(
        [PENTIUM_M_TABLE[0], PENTIUM_M_TABLE[2], PENTIUM_M_TABLE[4]]
    )
    with pytest.MonkeyPatch.context() as mp:
        if not exhaustive:
            mp.setattr(search, "EXHAUSTIVE_LIMIT", 0)
        res = optimize_gear_plan(
            TwoGroupWorkload(nprocs=4, steps=2),
            delta=delta,
            opoints=opoints,
            stats=CacheStats(),
        )
    cap = (1 + delta) * res.baseline.elapsed_s
    assert res.best.elapsed_s <= cap * (1 + 1e-9)
    # delta=0 must still return a plan: the baseline itself is feasible
    assert res.best.feasible


def test_baseline_is_all_fastest_no_dvs(two_group, three_gears) -> None:
    from repro.core.strategies.base import NoDvsStrategy

    res = optimize_gear_plan(
        two_group, delta=0.05, opoints=three_gears, stats=CacheStats()
    )
    ref = run_workload(
        two_group, NoDvsStrategy(), opoints=three_gears, engine="event"
    )
    assert res.baseline.elapsed_s == ref.elapsed_s
    assert res.baseline.energy_j == ref.energy_j


def test_beats_or_matches_uniform_candidates(two_group, three_gears) -> None:
    """The winner consumes no more energy than any feasible uniform or
    per-group-uniform (EXTERNAL / split-INTERNAL) schedule."""
    res = optimize_gear_plan(
        two_group, delta=0.10, opoints=three_gears, stats=CacheStats()
    )
    cap = 1.10 * res.baseline.elapsed_s
    mhzs = three_gears.frequencies_mhz()
    P = len(two_group.phases)
    for g0 in mhzs:
        for g1 in mhzs:
            m = run_workload(
                two_group,
                OptimalPlanStrategy(
                    GROUPS, two_group.phases, [[g0] * P, [g1] * P]
                ),
                opoints=three_gears,
                engine="event",
            )
            if m.elapsed_s <= cap * (1 + 1e-9):
                assert res.best.energy_j <= m.energy_j


def test_render_lists_frontier_and_winner(two_group, three_gears) -> None:
    res = optimize_gear_plan(
        two_group, delta=0.08, opoints=three_gears, stats=CacheStats()
    )
    text = res.render()
    assert "Optimal gear plan for T2.T.4" in text
    assert "delay cap 1.080" in text
    assert "[exhaustive]" in text
    assert res.best.strategy.describe() in text
    assert text.count("delay ") >= len(res.frontier)


def test_seed_assignments_cover_uniform_family() -> None:
    from repro.optimize.search import _seed_assignments

    # small per-group space: every per-group-uniform plan is a seed
    small = _seed_assignments(2, 3, 3, group_seed_limit=128)
    assert len(small) == 3 ** 2  # uniforms are a subset of the product
    assert (2, 2, 2, 0, 0, 0) in small

    # large per-group space: uniforms plus one-group deviations only
    big = _seed_assignments(4, 2, 5, group_seed_limit=8)
    assert (3,) * 8 in big  # the uniform family survives
    assert (4, 4, 1, 1, 4, 4, 4, 4) in big  # group 1 deviates alone
    assert len(big) == 5 + 4 * 4


def test_uncompilable_workload_searches_per_rank(
    two_group, three_gears, monkeypatch
) -> None:
    """A workload the compiler declines still optimizes — one group per
    rank, every candidate scored on the event engine inside
    ``run_batch`` — and counts each in ``scalar_fallbacks``.  Both the
    search's probe and the straightline tier see the refusal."""
    from repro.sim import straightline as sl
    from repro.workloads import compile as compile_mod

    def refuse(workload, hz):
        raise compile_mod.CompileError("declined for the test")

    monkeypatch.setattr(compile_mod, "compile_workload", refuse)
    monkeypatch.setattr(sl, "compile_workload", refuse)
    monkeypatch.setattr(search, "EXHAUSTIVE_LIMIT", 0)
    res = optimize_gear_plan(
        two_group, delta=0.08, opoints=three_gears, stats=CacheStats()
    )
    assert res.n_groups == 4  # one group per rank: no quotient known
    assert res.telemetry.batches >= 2  # the baseline, then the seeds
    assert res.telemetry.scalar_fallbacks == res.telemetry.candidates_evaluated
    cap = 1.08 * res.baseline.elapsed_s
    assert res.best.elapsed_s <= cap * (1 + 1e-9)


def test_rejects_phase_free_workloads(three_gears) -> None:
    w = FT(klass="T", nprocs=4)
    w.phases = ()
    with pytest.raises(ValueError, match="no phases"):
        optimize_gear_plan(w, stats=CacheStats())


def test_rejects_negative_delta(two_group) -> None:
    with pytest.raises(ValueError, match="non-negative"):
        optimize_gear_plan(two_group, delta=-0.1, stats=CacheStats())

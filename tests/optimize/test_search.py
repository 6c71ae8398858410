"""Frontier search: brute-force equality, constraint, telemetry."""

from __future__ import annotations

import dataclasses
import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import run_workload
from repro.experiments.store import CacheStats
from repro.optimize import OptimalPlanStrategy, optimize_gear_plan, search
from repro.workloads.npb.cg import CG
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
    assert f"{res.telemetry.over_cap} over the cap" in text
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


# ----------------------------------------------------------------------
# Over-cap plans are scored by elapsed time alone
# ----------------------------------------------------------------------
def _bits(m) -> tuple:
    """A measurement's scored fields, floats as ``float.hex``."""
    return (
        m.workload, m.strategy, m.elapsed_s.hex(), m.energy_j.hex(),
        tuple((n, e.hex()) for n, e in m.per_node_energy_j.items()),
        m.dvs_transitions,
        tuple((f.hex(), t.hex()) for f, t in m.time_at_mhz.items()),
        m.extras,
    )


def _candidate_bits(c) -> tuple:
    return (c.assignment, c.strategy.table, _bits(c.measurement),
            c.norm_delay.hex(), c.norm_energy.hex(), c.feasible)


SEARCHES = {
    "two_group": (lambda: TwoGroupWorkload(nprocs=4, steps=3), 0.08, True,
                  None),
    "two_group-frontier": (lambda: TwoGroupWorkload(nprocs=4, steps=3),
                           0.08, True, 0),
    "FT.T.8": (lambda: FT(klass="T", nprocs=8), 0.05, False, None),
    "CG.T.8": (lambda: CG(klass="T", nprocs=8), 0.05, False, None),
}


@functools.lru_cache(maxsize=None)
def search_with_and_without_deadline(name: str):
    """``(shipped, full, scored)``: the search as shipped, the same
    search with ``run_batch`` measuring every plan in full (its
    ``deadline_s`` dropped), and every measurement the full run took."""
    from repro.hardware.opoints import PENTIUM_M_TABLE, OperatingPointTable
    from repro.sim import straightline as sl

    make, delta, three_gears, exhaustive_limit = SEARCHES[name]
    opoints = (
        OperatingPointTable(
            [PENTIUM_M_TABLE[0], PENTIUM_M_TABLE[2], PENTIUM_M_TABLE[4]]
        )
        if three_gears else None
    )
    real_run_batch = sl.run_batch
    scored: list = []

    def run_batch_in_full(workload, points, *, deadline_s=None, **kwargs):
        measured = real_run_batch(workload, points, **kwargs)
        scored.extend(measured)
        return measured

    with pytest.MonkeyPatch.context() as mp:
        if exhaustive_limit is not None:
            mp.setattr(search, "EXHAUSTIVE_LIMIT", exhaustive_limit)
        shipped = optimize_gear_plan(make(), delta=delta, opoints=opoints,
                                     stats=CacheStats())
        mp.setattr(sl, "run_batch", run_batch_in_full)
        full = optimize_gear_plan(make(), delta=delta, opoints=opoints,
                                  stats=CacheStats())
    return shipped, full, scored


def within_cap(res, scored) -> int:
    cap = (1 + res.delta) * res.baseline.elapsed_s
    return sum(m.elapsed_s <= cap * (1 + 1e-9) for m in scored)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_over_cap_scoring_changes_no_result(name) -> None:
    shipped, full, scored = search_with_and_without_deadline(name)
    assert _bits(shipped.baseline) == _bits(full.baseline)
    assert _candidate_bits(shipped.best) == _candidate_bits(full.best)
    assert ([_candidate_bits(c) for c in shipped.frontier]
            == [_candidate_bits(c) for c in full.frontier])
    got = dataclasses.asdict(shipped.telemetry)
    expected = dataclasses.asdict(full.telemetry)
    assert expected.pop("over_cap") == 0
    over_cap = got.pop("over_cap")
    assert got == expected
    assert over_cap == len(scored) - within_cap(full, scored) > 0


def test_over_cap_counts_plans_past_the_cap() -> None:
    shipped, full, scored = search_with_and_without_deadline("FT.T.8")
    t = shipped.telemetry
    assert t.exhaustive and t.candidates_evaluated == 625
    assert t.over_cap == t.candidates_evaluated - within_cap(full, scored)
    assert f"({t.candidates_pruned} pruned, {t.over_cap} over the cap)" in (
        shipped.render()
    )


def test_energy_is_integrated_only_within_the_cap(
    two_group, three_gears, monkeypatch
) -> None:
    # One finalize per plan within the cap, the baseline included; a
    # plan past the cap is decided by its elapsed time alone.
    from repro.sim import straightline as sl

    _shipped, full, scored = search_with_and_without_deadline("two_group")
    finalized: list = []
    real_finalize = sl._Executor.finalize

    def finalize(self, t_end):
        finalized.append(t_end)
        return real_finalize(self, t_end)

    monkeypatch.setattr(sl._Executor, "finalize", finalize)
    res = optimize_gear_plan(two_group, delta=0.08, opoints=three_gears,
                             stats=CacheStats())
    assert len(finalized) == within_cap(full, scored) < len(scored)
    cap = 1.08 * res.baseline.elapsed_s
    assert max(finalized) <= cap * (1 + 1e-9)

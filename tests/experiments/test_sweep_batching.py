"""The runner's batch tier: grouping, equivalence, cache stability.

``ParallelRunner.map`` routes straightline-eligible misses of one
workload+configuration through ``run_batch``, inline or as one pool
task — the results must stay bit-for-bit identical to per-point
``run_workload``, and the cache keys (slots) must be exactly the ones
the event engine has always used.
"""

from __future__ import annotations

import pytest

from repro.core.framework import run_workload
from repro.core.strategies import (
    CpuspeedDaemonStrategy,
    ExternalStrategy,
    InternalStrategy,
    NoDvsStrategy,
    PhasePolicy,
    RankPolicy,
)
from repro.experiments.parallel import ParallelRunner, RunTask, use
from repro.experiments.store import MeasurementCache, cache_key
from repro.experiments.tables import table2
from repro.workloads import get_workload


def _grid_tasks():
    ft = get_workload("FT", klass="T", nprocs=4)
    cg = get_workload("CG", klass="T", nprocs=4)
    tasks = [
        RunTask(ft, ExternalStrategy(mhz=mhz), 0)
        for mhz in (600.0, 800.0, 1000.0, 1200.0, 1400.0)
    ]
    tasks += [
        RunTask(cg, ExternalStrategy(mhz=mhz), seed)
        for mhz in (600.0, 1400.0)
        for seed in (0, 1)
    ]
    tasks.append(RunTask(ft, InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)), 0))
    tasks.append(RunTask(ft, None, 0))
    tasks.append(RunTask(ft, CpuspeedDaemonStrategy(), 0))  # sampled-control tier
    tasks.append(RunTask(cg, NoDvsStrategy(), 0, {"engine": "event"}))  # pinned
    return tasks


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_equals_per_point_run_workload(jobs) -> None:
    tasks = _grid_tasks()
    direct = [
        run_workload(t.workload, t.strategy, seed=t.seed, **t.kwargs)
        for t in tasks
    ]
    with ParallelRunner(jobs=jobs, memo=False) as runner:
        mapped = runner.map(_grid_tasks())
    assert len(mapped) == len(direct)
    for x, y in zip(mapped, direct):
        assert x == y


def _table2_stats(jobs):
    with ParallelRunner(jobs=jobs, memo=True) as runner, use(runner):
        rows = table2(klass="T")
    return rows, runner.stats


def test_table2_counts_lowering_and_fallbacks_at_any_jobs() -> None:
    # Table 2's 40 gear-plan points go through run_batch inline and in
    # the pool alike, so both record the same tier telemetry.
    serial_rows, serial = _table2_stats(1)
    pooled_rows, pooled = _table2_stats(2)
    assert serial.lowering_misses > 0
    assert pooled.lowering_hits + pooled.lowering_misses == (
        serial.lowering_hits + serial.lowering_misses
    )
    assert serial.fallback_reasons == pooled.fallback_reasons
    assert serial.straightline_fallbacks == pooled.straightline_fallbacks
    for code, row in serial_rows.items():
        assert row.columns == pooled_rows[code].columns


def test_ablation_helpers_route_through_sweep_unchanged() -> None:
    # ablations/sensitivity submit through the runner's batch path;
    # their numbers must be pinned to the direct per-point path.
    from repro.experiments.ablations import transition_latency_study

    direct = transition_latency_study(
        code="FT", klass="T", latencies_s=(20e-6, 1e-3)
    )
    with use(ParallelRunner(jobs=1, memo=True)):
        routed = transition_latency_study(
            code="FT", klass="T", latencies_s=(20e-6, 1e-3)
        )
    assert [
        (p.setting, p.norm_delay, p.norm_energy) for p in direct
    ] == [(p.setting, p.norm_delay, p.norm_energy) for p in routed]


def test_batch_results_fill_cache_slots(tmp_path) -> None:
    # Batch-evaluated points land in the same content-addressed slots
    # the per-point path uses, so a later per-point run hits.
    tasks = [
        RunTask(get_workload("FT", klass="T", nprocs=4), ExternalStrategy(mhz=mhz), 0)
        for mhz in (600.0, 1000.0, 1400.0)
    ]
    runner = ParallelRunner(jobs=1, cache_dir=tmp_path, memo=False)
    swept = runner.map(tasks)
    assert runner.stats.misses == 3 and runner.stats.stores == 3
    replay = ParallelRunner(jobs=1, cache_dir=tmp_path, memo=False)
    again = replay.map(tasks)
    assert replay.stats.hits == 3 and replay.stats.misses == 0
    for x, y in zip(swept, again):
        assert x == y


def test_sweep_surfaces_structured_fallback_reasons() -> None:
    # MG's xor-neighbor exchange crosses its body groups, so the
    # quotient probe declines with a typed code that must flow from
    # run_batch telemetry into the runner's CacheStats.
    mg = get_workload("MG", klass="T", nprocs=8)
    tasks = [
        RunTask(mg, ExternalStrategy(mhz=mhz), 0)
        for mhz in (600.0, 1000.0, 1400.0)
    ]
    runner = ParallelRunner(jobs=1, memo=False)
    runner.map(tasks)
    assert runner.stats.fallback_reasons.get("p2p_unclassifiable", 0) >= 1
    assert "p2p_unclassifiable" in runner.stats.render()


def test_sweep_classified_p2p_never_declines_on_classification() -> None:
    # CG's halo exchange classifies exactly: no p2p decline code ever
    # appears and every point runs on its quotient program — zero
    # event-engine fallbacks.
    cg = get_workload("CG", klass="T", nprocs=8)
    tasks = [
        RunTask(cg, ExternalStrategy(mhz=mhz), 0)
        for mhz in (600.0, 1000.0, 1400.0)
    ]
    runner = ParallelRunner(jobs=1, memo=False)
    runner.map(tasks)
    assert not any(r.startswith("p2p_") for r in runner.stats.fallback_reasons)
    assert runner.stats.straightline_fallbacks == 0


def test_declined_controller_point_simulates_once(
    monkeypatch, event_engine_runs
) -> None:
    # A controller point the straightline tier declines in map
    # goes straight to the event engine: one straightline attempt and
    # one event-engine run per point.
    from repro.sim import straightline as sl

    attempts: list[int] = []

    def decline(workload, strategy, *, seed=0, stats=None, **kwargs):
        attempts.append(seed)
        if stats is not None:
            stats["fallback_reason"] = "unsupported"
        return None

    monkeypatch.setattr(sl, "try_run_straightline", decline)
    ft = get_workload("FT", klass="T", nprocs=4)
    tasks = [RunTask(ft, CpuspeedDaemonStrategy(), seed) for seed in (0, 1)]
    runner = ParallelRunner(jobs=1, memo=False)
    swept = runner.map(tasks)
    assert attempts == [0, 1]
    assert len(event_engine_runs) == 2
    for task, m in zip(tasks, swept):
        assert m == run_workload(ft, task.strategy, seed=task.seed,
                                 engine="event")


def test_declined_gear_plan_point_is_tried_once(
    monkeypatch, event_engine_runs
) -> None:
    # run_batch runs each of MG's three plans once; when the fast tier
    # refuses the 600 MHz plan it runs once on the event engine inside
    # run_batch, and the rest of the sweep stays on the fast tier.
    from repro.sim import straightline as sl

    real = sl._run_plan
    attempts: list[float] = []

    def refuse_600(workload, strategy, *args):
        attempts.append(strategy.mhz)
        if strategy.mhz == 600.0:
            raise sl.StraightlineUnsupported("refused for the test")
        return real(workload, strategy, *args)

    monkeypatch.setattr(sl, "_run_plan", refuse_600)
    mg = get_workload("MG", klass="T", nprocs=8)
    tasks = [
        RunTask(mg, ExternalStrategy(mhz=mhz), 0)
        for mhz in (600.0, 1000.0, 1400.0)
    ]
    runner = ParallelRunner(jobs=1, memo=False)
    swept = runner.map(tasks)
    assert attempts.count(600.0) == 1
    assert len(event_engine_runs) == 1
    assert runner.stats.straightline_fallbacks == 1
    assert runner.stats.fallback_reasons["unsupported"] == 1
    for task, m in zip(tasks, swept):
        assert m == run_workload(mg, task.strategy, engine="event")


def test_uncompilable_sweep_compiles_once(monkeypatch) -> None:
    # A workload the compiler refuses: run_batch tries the compiler
    # once for the whole group and finishes every point on the event
    # engine, each counted once.
    from repro.sim import straightline as sl
    from repro.workloads.compile import CompileError

    compiles: list = []

    def refuse(workload, hz):
        compiles.append(workload)
        raise CompileError("refused for the test")

    monkeypatch.setattr(sl, "compile_workload", refuse)
    ft = get_workload("FT", klass="T", nprocs=4)
    tasks = [
        RunTask(ft, ExternalStrategy(mhz=mhz), 0)
        for mhz in (600.0, 1000.0, 1400.0)
    ]
    runner = ParallelRunner(jobs=1, memo=False)
    swept = runner.map(tasks)
    assert len(compiles) == 1
    assert runner.stats.straightline_fallbacks == 3
    assert runner.stats.fallback_reasons == {"compile_error": 3}
    for task, m in zip(tasks, swept):
        assert m == run_workload(ft, task.strategy, engine="event")


def test_pre_pr_cache_keys_unchanged() -> None:
    # Cache slots captured before the piecewise tier existed: adding
    # Strategy.gear_plan and the batch path must not move a single key,
    # or every historical cache would silently go cold.
    ft = get_workload("FT", klass="T", nprocs=4)
    cg = get_workload("CG", klass="T", nprocs=4)
    assert cache_key(
        ft, InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)), 0, {}
    ) == "c2a3a7a11e922e93949c27665789e612d45546ba3c1de6c33701c5ebeaf9cebd"
    assert cache_key(
        cg, InternalStrategy(RankPolicy.split(2, 1400, 800)), 3, {}
    ) == "885b257d225616e69f38e3bd787e3e3a0983595609faa8d0671e67d225208dd2"


def test_event_engine_cache_entry_replays_into_sweep(tmp_path) -> None:
    # A measurement cached from the event engine (pre-PR world) must be
    # returned verbatim by a post-PR sweep of the same point, and a
    # fresh auto-tier run must equal it.
    ft = get_workload("FT", klass="T", nprocs=4)
    strategy = InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400))
    event = run_workload(ft, strategy, seed=0, engine="event")
    key = cache_key(ft, strategy, 0, {})
    cache = MeasurementCache(tmp_path)
    cache.put(key, event)

    runner = ParallelRunner(jobs=1, cache_dir=tmp_path, memo=False)
    [hit] = runner.map([RunTask(ft, strategy, 0)])
    assert runner.stats.hits == 1
    assert hit == event

    fresh = run_workload(ft, strategy, seed=0)  # auto: piecewise tier
    assert fresh == event

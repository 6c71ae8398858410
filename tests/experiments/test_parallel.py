"""Parallel engine + measurement cache: determinism and invalidation.

The load-bearing guarantees of :mod:`repro.experiments.parallel`:

* a parallel run is *bit-for-bit* identical to a serial run;
* a cache hit is bit-for-bit identical to a fresh run;
* the cache key changes whenever anything that could change the
  result changes (strategy parameters, seed, model version) and does
  NOT change for equal-valued reconstructions of the same spec.
"""

import pytest

from repro.core.strategies import (
    CpuspeedConfig,
    CpuspeedDaemonStrategy,
    ExternalStrategy,
    NoDvsStrategy,
)
from repro.experiments import store, tables
from repro.experiments.parallel import ParallelRunner, RunTask, current_runner, use
from repro.experiments.runner import frequency_sweep
from repro.experiments.store import MeasurementCache, cache_key
from repro.workloads import get_workload

FREQS = (600.0, 1000.0, 1400.0)


def _summary(m):
    """Every summary field a cached/parallel run must reproduce."""
    return (
        m.workload,
        m.strategy,
        m.elapsed_s,
        m.energy_j,
        m.acpi_energy_j,
        m.baytech_energy_j,
        m.dvs_transitions,
        tuple(sorted(m.per_node_energy_j.items())),
        tuple(sorted(m.time_at_mhz.items())),
    )


# -- parallel == serial ------------------------------------------------


@pytest.mark.parametrize("code", ["CG", "FT"])
def test_parallel_sweep_bit_for_bit_equals_serial(code):
    workload = get_workload(code, klass="T")
    serial = frequency_sweep(workload, frequencies_mhz=FREQS, seed=3)
    with ParallelRunner(jobs=2) as runner, use(runner):
        parallel = frequency_sweep(workload, frequencies_mhz=FREQS, seed=3)
    for mhz in FREQS:
        assert _summary(parallel.raw[mhz]) == _summary(serial.raw[mhz])


def test_map_preserves_task_order():
    w_cg = get_workload("CG", klass="T")
    w_ft = get_workload("FT", klass="T")
    tasks = [
        RunTask(w_ft, ExternalStrategy(mhz=600)),
        RunTask(w_cg, None),
        RunTask(w_ft, None),
    ]
    with ParallelRunner(jobs=2) as runner:
        results = runner.map(tasks)
    assert [m.workload for m in results] == [w_ft.tag, w_cg.tag, w_ft.tag]
    assert results[0].strategy != results[2].strategy


def test_default_runner_is_serial_and_uncached():
    runner = current_runner()
    assert runner.jobs == 1
    assert runner.cache is None


# -- chunked sweep submission ------------------------------------------


def test_map_sweep_bit_for_bit_equals_map():
    w_cg = get_workload("CG", klass="T")
    w_ft = get_workload("FT", klass="T")
    tasks = [
        RunTask(w, ExternalStrategy(mhz=mhz), 0)
        for w in (w_cg, w_ft)
        for mhz in FREQS
    ]
    with ParallelRunner(jobs=1, memo=False) as runner:
        serial = runner.map(list(tasks))
    with ParallelRunner(jobs=2, memo=False) as runner:
        chunked = runner.map_sweep(list(tasks), chunk_size=2)
    assert [_summary(m) for m in chunked] == [_summary(m) for m in serial]


def test_map_sweep_fills_cache_per_point(tmp_path):
    workload = get_workload("CG", klass="T")
    tasks = [RunTask(workload, ExternalStrategy(mhz=mhz), 0) for mhz in FREQS]
    with ParallelRunner(jobs=2, cache_dir=tmp_path) as runner:
        runner.map_sweep(list(tasks), chunk_size=len(FREQS))
        assert runner.stats.stores == len(FREQS)
    # A later *unchunked* run hits every individual point.
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.map(list(tasks))
        assert runner.stats.hits == len(FREQS)
        assert runner.stats.misses == 0


def test_map_sweep_rejects_bad_chunk_size():
    with ParallelRunner(jobs=1) as runner:
        with pytest.raises(ValueError):
            runner.map_sweep([], chunk_size=0)


# -- memo / cache behaviour --------------------------------------------


def test_memo_dedupes_repeated_baselines():
    workload = get_workload("CG", klass="T")
    with ParallelRunner(jobs=1) as runner:
        a, b = runner.map([RunTask(workload, None), RunTask(workload, None)])
    assert runner.stats.hits == 1 and runner.stats.misses == 1
    assert _summary(a) == _summary(b)


def test_cache_hit_is_bit_for_bit(tmp_path):
    workload = get_workload("FT", klass="T")
    strategy = ExternalStrategy(mhz=800)
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        fresh = runner.run(workload, strategy, seed=1)
    # A new runner sees only the on-disk entry, not the memo.
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        cached = runner.run(workload, strategy, seed=1)
        assert runner.stats.hits == 1 and runner.stats.misses == 0
    assert _summary(cached) == _summary(fresh)


def test_uncacheable_runs_bypass_cache(tmp_path):
    workload = get_workload("CG", klass="T")
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        m = runner.run(workload, None, measurement_channels=True)
        assert m.report is not None
        assert runner.stats.lookups == 0
    assert len(MeasurementCache(tmp_path)) == 0


def test_cache_clear(tmp_path):
    workload = get_workload("CG", klass="T")
    cache = MeasurementCache(tmp_path)
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.run(workload, None)
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


# -- cache-key sensitivity ---------------------------------------------


def test_cache_key_stable_across_reconstruction():
    w1 = get_workload("FT", klass="T")
    w2 = get_workload("FT", klass="T")
    assert cache_key(w1, ExternalStrategy(mhz=600), 0, {}) == cache_key(
        w2, ExternalStrategy(mhz=600), 0, {}
    )


def test_cache_key_changes_with_strategy_params():
    w = get_workload("FT", klass="T")
    base = cache_key(w, ExternalStrategy(mhz=600), 0, {})
    assert cache_key(w, ExternalStrategy(mhz=800), 0, {}) != base
    assert cache_key(w, NoDvsStrategy(), 0, {}) != base
    slow = CpuspeedDaemonStrategy(CpuspeedConfig(interval_s=2.0))
    fast = CpuspeedDaemonStrategy(CpuspeedConfig(interval_s=0.5))
    assert cache_key(w, slow, 0, {}) != cache_key(w, fast, 0, {})


def test_cache_key_changes_with_seed_and_workload():
    w = get_workload("FT", klass="T")
    base = cache_key(w, NoDvsStrategy(), 0, {})
    assert cache_key(w, NoDvsStrategy(), 1, {}) != base
    assert cache_key(get_workload("CG", klass="T"), NoDvsStrategy(), 0, {}) != base


def test_cache_key_distinguishes_rank_split_policies():
    from repro.core.strategies import InternalStrategy, RankPolicy

    w = get_workload("CG", klass="T")
    a = cache_key(w, InternalStrategy(RankPolicy.split(2, 1400, 600)), 0, {})
    b = cache_key(w, InternalStrategy(RankPolicy.split(4, 1400, 600)), 0, {})
    assert a != b


def test_local_callables_refuse_a_cache_key(tmp_path):
    from repro.core.strategies import InternalStrategy, RankPolicy
    from repro.experiments.store import UncacheableSpecError

    w = get_workload("CG", klass="T")
    strategy = InternalStrategy(RankPolicy(lambda rank: 1400.0))
    with pytest.raises(UncacheableSpecError):
        cache_key(w, strategy, 0, {})
    # The runner degrades to an uncached (not wrongly-keyed) run.
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        m = runner.run(w, strategy)
    assert m.elapsed_s > 0
    assert len(MeasurementCache(tmp_path)) == 0


def test_cache_key_changes_with_model_version(monkeypatch):
    w = get_workload("FT", klass="T")
    base = cache_key(w, NoDvsStrategy(), 0, {})
    monkeypatch.setattr(store, "MODEL_VERSION", store.MODEL_VERSION + 1)
    assert cache_key(w, NoDvsStrategy(), 0, {}) != base


def test_engine_tiers_share_cache_slot_and_payload():
    # ``engine`` selects an execution tier, never an output: both tiers
    # must land in (and be satisfied by) the same cache slot with an
    # identical serialized payload.
    from repro.core.framework import run_workload
    from repro.experiments.store import measurement_to_dict
    from repro.sim.straightline import run_straightline

    workload = get_workload("CG", klass="T")
    strategy = ExternalStrategy(mhz=800.0)
    keys = {
        cache_key(workload, strategy, 0, kwargs)
        for kwargs in ({}, {"engine": "event"}, {"engine": "auto"})
    }
    assert len(keys) == 1
    fast = run_straightline(workload, strategy)
    ref = run_workload(
        get_workload("CG", klass="T"), ExternalStrategy(mhz=800.0), engine="event"
    )
    assert measurement_to_dict(fast) == measurement_to_dict(ref)


def test_none_strategy_shares_nodvs_cache_slot(tmp_path):
    workload = get_workload("CG", klass="T")
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.run(workload, NoDvsStrategy())
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.run(workload, None)
        assert runner.stats.hits == 1


# -- end-to-end smoke --------------------------------------------------


def test_tiny_campaign_parallel_and_cached_matches_serial(tmp_path):
    codes = ["CG", "FT"]
    serial = tables.table2(codes=codes, klass="T", seed=0)
    with ParallelRunner(jobs=2, cache_dir=tmp_path) as runner, use(runner):
        cold = tables.table2(codes=codes, klass="T", seed=0)
        assert runner.stats.misses > 0
    with ParallelRunner(jobs=2, cache_dir=tmp_path) as runner, use(runner):
        warm = tables.table2(codes=codes, klass="T", seed=0)
        assert runner.stats.misses == 0 and runner.stats.hits > 0
    for code in codes:
        for mhz, m in serial[code].sweep.raw.items():
            assert _summary(cold[code].sweep.raw[mhz]) == _summary(m)
            assert _summary(warm[code].sweep.raw[mhz]) == _summary(m)
        assert serial[code].sweep.normalized == cold[code].sweep.normalized
        assert serial[code].sweep.normalized == warm[code].sweep.normalized

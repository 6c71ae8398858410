"""Differential tests: sampled-control tier ≡ event engine, bit for bit.

The sampled executor runs CPUSPEED-style daemon strategies without the
event heap: it advances the compiled program between poll ticks and
replays each daemon's decision from the node's busy integral.  Like the
static tier, the promise is *exact* reproduction — every comparison
here is ``==`` on raw floats, no tolerances.
"""

from __future__ import annotations

import pytest

from repro.core.framework import Measurement, run_workload
from repro.core.strategies import (
    CpuspeedConfig,
    CpuspeedDaemonStrategy,
    PredictiveConfig,
    PredictiveDaemonStrategy,
    SampledController,
)
from repro.sim.straightline import StraightlineUnsupported, run_straightline
from repro.experiments.parallel import ParallelRunner, RunTask
from repro.experiments.store import MODEL_VERSION, cache_key
from repro.workloads import get_workload

INTERVALS = (0.05, 0.1, 0.33)
CODES = ("CG", "FT", "MG")


def _workload(code: str):
    return get_workload(code, klass="T", nprocs=4)


def _cpuspeed(interval_s: float) -> CpuspeedDaemonStrategy:
    return CpuspeedDaemonStrategy(
        CpuspeedConfig(
            interval_s=interval_s,
            minimum_threshold=30.0,
            usage_threshold=60.0,
            maximum_threshold=90.0,
        )
    )


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
# the differential matrix: codes × poll intervals × seeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", CODES)
@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("seed", [0, 3])
def test_cpuspeed_matrix(code: str, interval: float, seed: int) -> None:
    fast, ref = run_both(
        lambda: _workload(code), lambda: _cpuspeed(interval), seed=seed
    )
    assert_identical(fast, ref)


def test_daemon_actually_transitions() -> None:
    # A dense poll on a communication-heavy code sees usage transients:
    # a silent no-op tier (never stepping the daemon) would show here.
    fast, ref = run_both(lambda: _workload("CG"), lambda: _cpuspeed(0.05))
    assert_identical(fast, ref)
    assert fast.dvs_transitions > 0


@pytest.mark.parametrize(
    "config", [CpuspeedConfig.v1_1, CpuspeedConfig.v1_2_1], ids=["v1.1", "v1.2.1"]
)
def test_cpuspeed_shipped_versions(config) -> None:
    fast, ref = run_both(
        lambda: _workload("FT"), lambda: CpuspeedDaemonStrategy(config())
    )
    assert_identical(fast, ref)


@pytest.mark.parametrize("code", ("CG", "FT"))
@pytest.mark.parametrize("seed", [0, 3])
def test_predictive_matrix(code: str, seed: int) -> None:
    fast, ref = run_both(
        lambda: _workload(code), PredictiveDaemonStrategy, seed=seed
    )
    assert_identical(fast, ref)


def test_predictive_reactive_interval() -> None:
    fast, ref = run_both(
        lambda: _workload("MG"),
        lambda: PredictiveDaemonStrategy(PredictiveConfig(interval_s=0.25)),
    )
    assert_identical(fast, ref)


def test_interval_longer_than_runtime() -> None:
    # The first poll lands after the job finishes: zero transitions,
    # still bit-identical to an event-engine run of the same daemon.
    fast, ref = run_both(lambda: _workload("FT"), lambda: _cpuspeed(1e9))
    assert_identical(fast, ref)
    assert fast.dvs_transitions == 0


# ----------------------------------------------------------------------
# engine-order collisions and malformed controllers fall back
# ----------------------------------------------------------------------
def test_poll_on_rank_event_collides() -> None:
    # A 0.5 s compute segment at the fastest point ends at exactly 0.5
    # (0.5 * 1.4e9 and the back-division are both exact in binary), so
    # a 0.5 s poll lands on the rank's resume time — an ordering the
    # engine resolves by event id.  The fast tier raises; auto falls back and
    # still matches the event engine.
    from repro.workloads.microbench import CpuBound

    wl = CpuBound(nprocs=1, seconds=0.5)
    with pytest.raises(StraightlineUnsupported, match="collides with poll tick"):
        run_straightline(wl, _cpuspeed(0.5))
    auto = run_workload(wl, _cpuspeed(0.5))
    ref = run_workload(wl, _cpuspeed(0.5), engine="event")
    assert_identical(auto, ref)


def test_non_positive_interval_rejected() -> None:
    class ZeroInterval(CpuspeedDaemonStrategy):
        def controller(self) -> SampledController:
            inner = super().controller()
            return SampledController(interval_s=0.0, make=inner.make)

    with pytest.raises(StraightlineUnsupported, match="non-positive poll interval"):
        run_straightline(_workload("FT"), ZeroInterval())


def test_decline_codes_are_typed() -> None:
    # The sampled tier's declines carry stable codes, not the generic
    # "unsupported": FT.C.8 under CPUSPEED (the campaign's one sampled
    # decline) and a malformed controller.
    from repro.sim.straightline import try_run_straightline

    class ZeroInterval(CpuspeedDaemonStrategy):
        def controller(self) -> SampledController:
            inner = super().controller()
            return SampledController(interval_s=0.0, make=inner.make)

    cases = [
        (get_workload("FT", klass="C", nprocs=8), CpuspeedDaemonStrategy(),
         "poll_tick_collision"),
        (_workload("FT"), ZeroInterval(), "bad_controller"),
    ]
    for workload, strategy, code in cases:
        stats: dict = {}
        assert try_run_straightline(workload, strategy, stats=stats) is None
        assert stats["fallback_reason"] == code


# ----------------------------------------------------------------------
# cache identity: the tier must not perturb the measurement store
# ----------------------------------------------------------------------
def test_engine_kwarg_shares_cache_slot() -> None:
    wl = _workload("FT")
    strat = _cpuspeed(0.1)
    bare = cache_key(wl, strat, 0)
    explicit = cache_key(wl, strat, 0, {"engine": "auto"})
    event = cache_key(wl, strat, 0, {"engine": "event"})
    assert bare == explicit == event


def test_model_version_unbumped() -> None:
    # The sampled tier is bit-identical to the event engine, so adding
    # it must not invalidate existing cached measurements.
    assert MODEL_VERSION == 1


def test_map_sweep_routes_daemons_through_sampled_tier(
    event_engine_runs,
) -> None:
    wl = _workload("FT")
    tasks = [RunTask(wl, _cpuspeed(0.1), seed) for seed in (0, 1)]
    runner = ParallelRunner(jobs=1, memo=False)
    swept = runner.map_sweep(list(tasks))
    # Clean daemon runs must not have fallen back to the event engine.
    assert not event_engine_runs
    direct = [
        run_workload(wl, _cpuspeed(0.1), seed=seed, engine="event")
        for seed in (0, 1)
    ]
    for fast, ref in zip(swept, direct):
        assert_identical(fast, ref)

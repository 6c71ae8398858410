"""Differential tests: stateful-controller tier ≡ event engine, bit for bit.

The stateful executor extends the sampled-control tier with per-node
controller state carried across poll windows (the β daemon's EMA) and
a per-tick global reduction (the power-cap coordinator's gather →
decide → scatter).  Like the other straightline tiers, the promise is
*exact* reproduction — every comparison here is ``==`` on raw floats,
no tolerances — plus observable-state parity (the power-cap strategy's
``power_samples``).
"""

from __future__ import annotations

import pytest

from repro.core.framework import Measurement, run_workload
from repro.core.strategies import (
    BetaConfig,
    BetaDaemonStrategy,
    PowerCapConfig,
    PowerCapStrategy,
    SampledController,
)
from repro.core.strategies.base import Strategy
from repro.experiments.parallel import ParallelRunner, RunTask
from repro.experiments.report import render_runner_stats
from repro.experiments.store import MODEL_VERSION, cache_key
from repro.faults.spec import FaultSpec
from repro.sim.straightline import StraightlineUnsupported, run_straightline
from repro.workloads import get_workload
from repro.workloads.microbench import CpuBound


def _workload(code: str):
    return get_workload(code, klass="T", nprocs=4)


def _beta(interval_s: float = 0.13) -> BetaDaemonStrategy:
    return BetaDaemonStrategy(BetaConfig(interval_s=interval_s))


def _powercap(cap_w: float, **kw) -> PowerCapStrategy:
    kw.setdefault("interval_s", 0.2)
    return PowerCapStrategy(PowerCapConfig(cap_w=cap_w, **kw))


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
# the β differential matrix: codes × poll intervals × seeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", ("CG", "FT"))
@pytest.mark.parametrize("interval", (0.05, 0.13))
@pytest.mark.parametrize("seed", [0, 3])
def test_beta_matrix(code: str, interval: float, seed: int) -> None:
    fast, ref = run_both(
        lambda: _workload(code), lambda: _beta(interval), seed=seed
    )
    assert_identical(fast, ref)


def test_beta_actually_transitions() -> None:
    # A dense poll on a communication-heavy code moves the EMA enough
    # to change gear: a tier that silently dropped the carried w_on
    # state (or never stepped) would show here.
    fast, ref = run_both(lambda: _workload("CG"), lambda: _beta(0.05))
    assert_identical(fast, ref)
    assert fast.dvs_transitions > 0


def test_beta_default_config() -> None:
    fast, ref = run_both(lambda: _workload("MG"), BetaDaemonStrategy)
    assert_identical(fast, ref)


# ----------------------------------------------------------------------
# the power-cap differential matrix: budgets × seeds, both raise modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cap_w", (75.0, 90.0, 110.0))
@pytest.mark.parametrize("seed", [0, 3])
def test_powercap_matrix(cap_w: float, seed: int) -> None:
    fast, ref = run_both(
        lambda: _workload("FT"), lambda: _powercap(cap_w), seed=seed
    )
    assert_identical(fast, ref)


@pytest.mark.parametrize("cap_w", (85.0, 130.0))
def test_powercap_reactive_raise(cap_w: float) -> None:
    fast, ref = run_both(
        lambda: _workload("CG"),
        lambda: _powercap(cap_w, interval_s=0.07, conservative_raise=False),
    )
    assert_identical(fast, ref)


def test_powercap_observable_state_parity() -> None:
    # The coordinator's observable state — the (time, total power)
    # samples backing max/mean_observed_power_w — must match exactly,
    # not just the Measurement.
    ref_strat = _powercap(90.0)
    fast_strat = _powercap(90.0)
    ref = run_workload(_workload("FT"), ref_strat, engine="event")
    fast = run_straightline(_workload("FT"), fast_strat)
    assert_identical(fast, ref)
    assert fast_strat.power_samples == ref_strat.power_samples
    assert fast_strat.power_samples  # the controller actually sampled
    assert fast_strat.max_observed_power_w() == ref_strat.max_observed_power_w()


def test_powercap_presheds_from_t0() -> None:
    # A tight cap forces the setup-time pre-shed: the tier must start
    # nodes below the top gear (start_index) exactly like setup() does.
    fast, ref = run_both(lambda: _workload("FT"), lambda: _powercap(75.0))
    assert_identical(fast, ref)
    assert max(fast.time_at_mhz) < 1400.0  # never ran at the top gear


# ----------------------------------------------------------------------
# protocol unit tests: reduction ordering and state carry
# ----------------------------------------------------------------------
class _GlobalProbe(Strategy):
    """Synthetic coordinator recording what the executor feeds it."""

    name = "global-probe"

    def __init__(self, emit=None, interval_s: float = 0.1) -> None:
        self.calls: list[tuple[float, list, list]] = []
        self.bound: tuple = ()
        self._emit = emit or (lambda tick, indices: [])

    def controller(self) -> SampledController:
        return SampledController(
            interval_s=0.1, observes="busy", make_global=lambda: self
        )

    def bind(self, opoints, power_params, nprocs: int) -> None:
        self.bound = (opoints, power_params, nprocs)

    def decide(self, now, samples, indices):
        self.calls.append((now, list(samples), list(indices)))
        return self._emit(len(self.calls), indices)


def test_global_reduction_sees_node_ordered_samples() -> None:
    probe = _GlobalProbe()
    run_straightline(_workload("EP"), probe)
    assert probe.calls, "the reduction never ran"
    opoints, _power, nprocs = probe.bound
    assert nprocs == 4
    first_now, samples, indices = probe.calls[0]
    assert first_now == pytest.approx(0.1)
    # one busy-fraction sample per node, in node order, at the top gear
    assert len(samples) == 4
    assert all(0.0 <= s <= 1.0 for s in samples)
    assert indices == [opoints.max_index] * 4
    # ticks are the controller's own interval, strictly increasing
    nows = [c[0] for c in probe.calls]
    assert nows == sorted(nows)


def test_global_reduction_setpoints_apply_in_emitted_order() -> None:
    # Two setpoints for the same node in one decision: the later one
    # must win (the engine applies set_speed_index calls in sequence).
    def emit(tick, indices):
        if tick == 1:
            return [(0, 0), (0, 2), (3, 1)]
        return []

    probe = _GlobalProbe(emit=emit)
    m = run_straightline(_workload("EP"), probe)
    assert len(probe.calls) >= 2
    _, _, indices_after = probe.calls[1]
    assert indices_after[0] == 2  # last emitted setpoint won
    assert indices_after[3] == 1
    assert m.dvs_transitions == 3  # 0→... twice for node 0, once node 3


class _CountingController:
    """Per-node controller whose state is a tick counter."""

    def __init__(self, log: list) -> None:
        self.ticks = 0
        log.append(self)

    def step(self, now, sample, index, max_index):
        self.ticks += 1
        # step down once, on the third window only: exercising state
        # that must have survived the two preceding windows.
        if self.ticks == 3:
            return (index - 1,)
        return ()


def test_per_node_state_carries_across_windows() -> None:
    instances: list[_CountingController] = []

    class Counting(Strategy):
        name = "counting"

        def controller(self) -> SampledController:
            return SampledController(
                interval_s=0.05,
                make=lambda: _CountingController(instances),
                observes="busy",
            )

    m = run_straightline(_workload("EP"), Counting())
    assert len(instances) == 4  # one controller per node, instantiated once
    assert len({id(c) for c in instances}) == 4
    assert all(c.ticks == instances[0].ticks for c in instances)
    assert instances[0].ticks >= 3  # enough windows to prove the carry
    assert m.dvs_transitions == 4  # the tick-3 step-down, once per node


def test_carry_summaries_feed_the_reduction() -> None:
    # Both forms together: per-node carry() summarises, decide() sees
    # the summaries (not the raw samples), in node order.
    seen: list[list] = []

    class Summarise:
        def __init__(self, tag: int) -> None:
            self.tag = tag
            self.windows = 0

        def carry(self, now, sample, index, max_index):
            self.windows += 1
            return (self.tag, self.windows, sample)

    class Reduction:
        def decide(self, now, samples, indices):
            seen.append(list(samples))
            return []

    counter = iter(range(100))

    class Both(Strategy):
        name = "carry-probe"

        def controller(self) -> SampledController:
            return SampledController(
                interval_s=0.1,
                make=lambda: Summarise(next(counter)),
                make_global=Reduction,
                observes="busy",
            )

    run_straightline(_workload("EP"), Both())
    assert seen, "the reduction never ran"
    tags = [s[0] for s in seen[0]]
    assert tags == [0, 1, 2, 3]  # node-ordered summarisers
    for tick, samples in enumerate(seen, start=1):
        assert [s[1] for s in samples] == [tick] * 4  # state carried


def test_controller_without_either_form_rejected() -> None:
    class Neither(Strategy):
        name = "neither"

        def controller(self) -> SampledController:
            return SampledController(interval_s=0.1, observes="busy")

    with pytest.raises(StraightlineUnsupported, match="neither"):
        run_straightline(_workload("EP"), Neither())


def test_unknown_observation_kind_rejected() -> None:
    class Martian(Strategy):
        name = "martian"

        def controller(self) -> SampledController:
            return SampledController(
                interval_s=0.1, make=lambda: None, observes="temperature"
            )

    with pytest.raises(StraightlineUnsupported, match="observation"):
        run_straightline(_workload("EP"), Martian())


# ----------------------------------------------------------------------
# engine-order collisions still fall back
# ----------------------------------------------------------------------
def test_beta_poll_on_segment_boundary_collides() -> None:
    # A 0.5 s compute segment at the fastest point ends at exactly 0.5
    # (0.5 * 1.4e9 and the back-division are both exact in binary), so
    # a 0.5 s poll lands on the segment end — an ordering the engine
    # resolves by event id.  The fast tier raises; auto falls back and still
    # matches the event engine.
    wl = CpuBound(nprocs=1, seconds=0.5)
    strat = lambda: _beta(0.5)
    with pytest.raises(StraightlineUnsupported, match="collides with poll tick"):
        run_straightline(wl, strat())
    auto = run_workload(wl, strat())
    ref = run_workload(wl, strat(), engine="event")
    assert_identical(auto, ref)


def test_powercap_poll_on_activity_boundary_collides() -> None:
    # Same collision through the power observation: the activity edge
    # written at the segment end lands on the poll tick.  The loose cap
    # keeps the pre-shed at the top gear so the end stays exactly 0.5.
    wl = CpuBound(nprocs=1, seconds=0.5)
    strat = lambda: _powercap(500.0, interval_s=0.5)
    with pytest.raises(StraightlineUnsupported, match="collides with poll tick"):
        run_straightline(wl, strat())
    auto = run_workload(wl, strat())
    ref = run_workload(wl, strat(), engine="event")
    assert_identical(auto, ref)


# ----------------------------------------------------------------------
# zero-rate fault specs: engine selection only, cache keys untouched
# ----------------------------------------------------------------------
def test_noop_spec_keeps_engine_independent_cache_slot() -> None:
    wl = _workload("FT")
    strat = _beta()
    spec = FaultSpec(seed=7)
    bare = cache_key(wl, strat, 0, {"faults": spec})
    fast = cache_key(wl, strat, 0, {"faults": spec, "engine": "auto"})
    event = cache_key(wl, strat, 0, {"faults": spec, "engine": "event"})
    assert bare == fast == event
    # ...but the spec still keys its own slot: a noop-faults run must
    # never alias the clean run's cache entry.
    assert bare != cache_key(wl, strat, 0)


def test_model_version_unbumped() -> None:
    # The stateful tier is bit-identical to the event engine, so adding
    # it must not invalidate existing cached measurements.
    assert MODEL_VERSION == 1


# ----------------------------------------------------------------------
# sweep routing and telemetry
# ----------------------------------------------------------------------
def test_map_sweep_routes_stateful_controllers(event_engine_runs) -> None:
    wl = _workload("FT")
    tasks = [RunTask(wl, _beta(), seed) for seed in (0, 1)]
    tasks += [RunTask(wl, _powercap(90.0), 0)]
    runner = ParallelRunner(jobs=1, memo=False)
    swept = runner.map_sweep(list(tasks))
    assert not event_engine_runs  # every point served by the fast tier
    direct = [
        run_workload(wl, _beta(), seed=seed, engine="event") for seed in (0, 1)
    ] + [run_workload(wl, _powercap(90.0), seed=0, engine="event")]
    for fast, ref in zip(swept, direct):
        assert_identical(fast, ref)
    assert "event-engine fallbacks" not in render_runner_stats(runner)


def test_map_sweep_treats_noop_spec_as_clean(event_engine_runs) -> None:
    wl = _workload("FT")
    spec = FaultSpec(seed=11)
    tasks = [
        RunTask(wl, _beta(), 0, kwargs={"faults": spec}),
        RunTask(wl, _powercap(90.0), 0, kwargs={"faults": spec}),
    ]
    runner = ParallelRunner(jobs=1, memo=False)
    swept = runner.map_sweep(list(tasks))
    # routed through the fast tier, not the event engine
    assert not event_engine_runs
    direct = [
        run_workload(wl, _beta(), seed=0, engine="event"),
        run_workload(wl, _powercap(90.0), seed=0, engine="event"),
    ]
    for fast, ref in zip(swept, direct):
        assert_identical(fast, ref)


def test_map_sweep_active_spec_still_uses_event_engine(
    event_engine_runs,
) -> None:
    wl = _workload("FT")
    spec = FaultSpec(seed=5, transition_fail_rate=0.5)
    runner = ParallelRunner(jobs=1, memo=False)
    swept = runner.map_sweep([RunTask(wl, _beta(), 0, kwargs={"faults": spec})])
    assert len(event_engine_runs) == 1
    ref = run_workload(wl, _beta(), seed=0, faults=spec, engine="event")
    assert_identical(swept[0], ref)

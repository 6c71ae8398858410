"""Engine-selection coverage: which runs must stay on the event engine.

A strategy with neither a static gear plan nor a sampled controller
(and any straightline-eligible strategy under a fault environment)
must fall back to the event engine under ``engine="auto"`` — asserted
through the ineligibility reason the framework consults — and the
fast tier itself (:func:`run_straightline`) declines the dynamic
strategy with :class:`StraightlineUnsupported`.  Strategies that *do*
lower (the β daemon and power-cap coordinator via the
stateful-controller protocol) are eligible in clean runs and fall back
only at the fault/trace/channel boundaries.
"""

from __future__ import annotations

import pytest

from repro.core.framework import run_workload, straightline_ineligibility
from repro.core.strategies import (
    BetaDaemonStrategy,
    CpuspeedConfig,
    CpuspeedDaemonStrategy,
    InternalStrategy,
    PhasePolicy,
    PowerCapConfig,
    PowerCapStrategy,
)
from repro.core.strategies.base import Strategy
from repro.faults.injector import resolve_injector
from repro.faults.spec import FaultSpec
from repro.sim.engine import Environment
from repro.sim.straightline import StraightlineUnsupported, run_straightline
from repro.workloads.npb.ft import FT


def _workload():
    return FT(klass="T", nprocs=4)


class _AdHocDynamicStrategy(Strategy):
    """A dynamic strategy that lowers to neither tier form.

    β and power-cap now publish sampled controllers, so the class of
    event-engine-only strategies is represented by this stand-in: the
    conservative :class:`Strategy` defaults (no gear plan, no
    controller) are exactly what a user-written daemon subclass gets.
    """

    name = "adhoc-dynamic"


def test_dynamic_strategy_reason() -> None:
    reason = straightline_ineligibility(_workload(), _AdHocDynamicStrategy())
    assert reason == "strategy has no static gear plan (dynamic DVS)"


def test_dynamic_strategy_auto_reaches_event_engine(monkeypatch) -> None:
    # The fast tier must never be consulted: its entry point is poisoned.
    import repro.sim.straightline as straightline

    def boom(*args, **kwargs):  # pragma: no cover - failure mode
        raise AssertionError("straightline tier consulted for a dynamic strategy")

    monkeypatch.setattr(straightline, "try_run_straightline", boom)
    monkeypatch.setattr(straightline, "run_straightline", boom)
    m = run_workload(_workload(), _AdHocDynamicStrategy())
    assert m.elapsed_s > 0


def test_dynamic_strategy_strict_raises() -> None:
    with pytest.raises(StraightlineUnsupported, match="no static gear plan"):
        run_straightline(_workload(), _AdHocDynamicStrategy())


@pytest.mark.parametrize("engine", ["straightline", "fast"])
def test_unknown_engine_is_rejected(engine: str) -> None:
    # "auto" and "event" are the only engines: demanding the fast tier
    # means calling run_straightline, which raises on a decline.
    with pytest.raises(ValueError, match="unknown engine"):
        run_workload(_workload(), engine=engine)


def test_internal_with_faults_reason() -> None:
    strategy = InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400))
    injector = resolve_injector(FaultSpec(seed=5, transition_fail_rate=0.5))
    # The strategy alone is eligible...
    assert straightline_ineligibility(_workload(), strategy) is None
    # ...but a fault environment forces the event engine.
    reason = straightline_ineligibility(_workload(), strategy, injector=injector)
    assert reason == "fault injection active"


def test_internal_with_faults_auto_reaches_event_engine(monkeypatch) -> None:
    import repro.sim.straightline as straightline

    def boom(*args, **kwargs):  # pragma: no cover - failure mode
        raise AssertionError("straightline tier consulted under faults")

    monkeypatch.setattr(straightline, "try_run_straightline", boom)
    monkeypatch.setattr(straightline, "run_straightline", boom)
    m = run_workload(
        _workload(),
        InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)),
        faults=FaultSpec(seed=5, transition_fail_rate=0.5),
    )
    assert m.elapsed_s > 0


# ----------------------------------------------------------------------
# sampled-control boundaries: daemons are eligible only in clean runs.
# The stateful forms (per-node with state: β; global reduction:
# power-cap) share every boundary with the stateless cpuspeed daemon.
# ----------------------------------------------------------------------
DAEMON_STRATEGIES = {
    "cpuspeed": lambda: CpuspeedDaemonStrategy(CpuspeedConfig.v1_1()),
    "beta": lambda: BetaDaemonStrategy(),
    "powercap": lambda: PowerCapStrategy(PowerCapConfig(cap_w=120.0)),
}


@pytest.mark.parametrize("name", sorted(DAEMON_STRATEGIES))
def test_daemon_clean_run_is_eligible(name: str) -> None:
    strategy = DAEMON_STRATEGIES[name]()
    assert straightline_ineligibility(_workload(), strategy) is None


@pytest.mark.parametrize("name", sorted(DAEMON_STRATEGIES))
def test_daemon_with_faults_reason(name: str) -> None:
    injector = resolve_injector(FaultSpec(seed=5, transition_fail_rate=0.5))
    reason = straightline_ineligibility(
        _workload(), DAEMON_STRATEGIES[name](), injector=injector
    )
    assert reason == "fault injection active"


@pytest.mark.parametrize("name", sorted(DAEMON_STRATEGIES))
def test_daemon_with_faults_auto_reaches_event_engine(
    name: str, monkeypatch
) -> None:
    import repro.sim.straightline as straightline

    def boom(*args, **kwargs):  # pragma: no cover - failure mode
        raise AssertionError("straightline tier consulted for a faulty daemon")

    monkeypatch.setattr(straightline, "try_run_straightline", boom)
    monkeypatch.setattr(straightline, "run_straightline", boom)
    m = run_workload(
        _workload(),
        DAEMON_STRATEGIES[name](),
        faults=FaultSpec(seed=5, transition_fail_rate=0.5),
    )
    assert m.elapsed_s > 0


@pytest.mark.parametrize("name", sorted(DAEMON_STRATEGIES))
def test_daemon_with_trace_reason(name: str) -> None:
    reason = straightline_ineligibility(
        _workload(), DAEMON_STRATEGIES[name](), trace=True
    )
    assert reason == "tracing requested"


# ----------------------------------------------------------------------
# zero-rate fault specs: provably inert, so they don't pin the engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DAEMON_STRATEGIES))
def test_noop_faults_do_not_pin_engine(name: str, monkeypatch) -> None:
    # FaultSpec() has every rate at zero: is_noop() holds and the auto
    # run stays on the fast tier (the event engine never runs),
    # bit-for-bit equal to a clean straightline run.
    spec = FaultSpec(seed=99)
    assert spec.is_noop()

    def boom(*args, **kwargs):  # pragma: no cover - failure mode
        raise AssertionError("event engine ran under a zero-rate spec")

    with monkeypatch.context() as patch:
        patch.setattr(Environment, "run", boom)
        m = run_workload(_workload(), DAEMON_STRATEGIES[name](), faults=spec)
    clean = run_straightline(_workload(), DAEMON_STRATEGIES[name]())
    assert m.elapsed_s == clean.elapsed_s
    assert m.energy_j == clean.energy_j
    assert m.extras == clean.extras == {}


def test_active_spec_is_not_noop() -> None:
    assert not FaultSpec(transition_fail_rate=0.5).is_noop()
    assert not FaultSpec(sensor_noise_mwh=1.0).is_noop()
    assert FaultSpec(seed=123).is_noop()  # seed alone injects nothing

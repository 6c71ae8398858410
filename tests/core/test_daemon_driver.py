"""The event-engine runtime every daemon strategy shares (``drive``)."""

from __future__ import annotations

import pytest

from repro.core.framework import run_workload
from repro.core.strategies import (
    BetaDaemonStrategy,
    CpuspeedDaemonStrategy,
    PowerCapConfig,
    PowerCapStrategy,
    PredictiveDaemonStrategy,
    SampledController,
)
from repro.core.strategies.base import Strategy
from repro.hardware import nemo_cluster
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.hardware.power import NEMO_POWER
from repro.sim import Environment
from repro.sim.straightline import run_straightline
from repro.workloads import get_workload


def _cluster(n: int = 3):
    return nemo_cluster(Environment(), n, with_batteries=False)


@pytest.mark.parametrize(
    "strategy, names",
    [
        (CpuspeedDaemonStrategy(), ["cpuspeed@0", "cpuspeed@1", "cpuspeed@2"]),
        (PredictiveDaemonStrategy(),
         ["predictive@0", "predictive@1", "predictive@2"]),
        (BetaDaemonStrategy(), ["beta@0", "beta@1", "beta@2"]),
        (PowerCapStrategy(PowerCapConfig(cap_w=500.0)), ["powercap"]),
    ],
)
def test_one_process_per_node_or_one_per_reduction(strategy, names) -> None:
    cluster = _cluster()
    strategy.setup(cluster, [0, 1, 2])
    assert [p.name for p in strategy._daemons] == names
    procs = list(strategy._daemons)
    cluster.env.run(until=1.0)
    strategy.teardown(cluster)
    cluster.env.run(until=1.5)  # deliver the stop
    assert not any(p.is_alive for p in procs)


def test_daemon_starts_at_t0_only() -> None:
    cluster = _cluster()
    cluster.env.run(until=0.5)
    with pytest.raises(ValueError, match="t = 0"):
        CpuspeedDaemonStrategy().setup(cluster, [0])


def test_malformed_controllers_rejected_at_setup() -> None:
    class Martian(Strategy):
        def controller(self):
            return SampledController(
                interval_s=0.1, make=lambda: None, observes="temperature"
            )

    class Neither(Strategy):
        def controller(self):
            return SampledController(interval_s=0.1)

    with pytest.raises(ValueError, match="observation"):
        Martian().setup(_cluster(), [0])
    with pytest.raises(ValueError, match="neither"):
        Neither().setup(_cluster(), [0])


def test_strategy_without_controller_starts_nothing() -> None:
    class Plain(Strategy):
        pass

    strategy = Plain()
    strategy.setup(_cluster(), [0])
    assert strategy._daemons == ()


@pytest.mark.parametrize("lands, expected", [(True, 1), (False, 2)])
def test_shed_projection_counts_only_landed_transitions(lands, expected):
    # Two equal offenders over a cap one step-down clears: a landed
    # shed stops after the first node; a failed one (the runtime leaves
    # the index unchanged) does not lower the projection, so the
    # reduction moves on to the second node.
    top = PENTIUM_M_TABLE.max_index
    full = NEMO_POWER.node_power_w(PENTIUM_M_TABLE[top], 1.0, 0.6, 0.5)
    lower = NEMO_POWER.node_power_w(PENTIUM_M_TABLE[top - 1], 1.0, 0.6, 0.5)
    cap = 2 * full - (full - lower) / 2
    strategy = PowerCapStrategy(PowerCapConfig(cap_w=cap, headroom=1.0))
    reduction = strategy.controller().make_global()
    reduction.bind(PENTIUM_M_TABLE, NEMO_POWER, 2)
    samples = [(full, 1.0, 0.6, 0.5)] * 2
    indices = [top, top]
    setpoints = []
    for n, target in reduction.decide(0.5, samples, indices):
        setpoints.append((n, target))
        if lands:
            indices[n] = target
    assert setpoints == [(0, top - 1), (1, top - 1)][:expected]
    assert strategy.power_samples == [(0.5, 2 * full)]


def test_summarizers_feed_the_reduction_on_both_runtimes() -> None:
    # Both forms together: per-node carry() summarises each window and
    # decide() sees the summaries.  The event engine and the
    # straightline tier must feed the same summaries and apply the
    # same setpoints.
    class Summarise:
        def __init__(self) -> None:
            self.windows = 0

        def carry(self, now, sample, index, max_index):
            self.windows += 1
            return (self.windows, sample, index)

    class Reduction:
        def __init__(self, seen: list) -> None:
            self.seen = seen

        def decide(self, now, samples, indices):
            self.seen.append((now, list(samples)))
            if len(self.seen) == 2:
                yield 1, indices[1] - 1

    class Both(Strategy):
        name = "carry-probe"

        def __init__(self) -> None:
            self.seen: list = []

        def controller(self):
            return SampledController(
                interval_s=0.1, make=Summarise,
                make_global=lambda: Reduction(self.seen),
            )

    workload = lambda: get_workload("EP", klass="T", nprocs=4)
    ref_strategy, fast_strategy = Both(), Both()
    ref = run_workload(workload(), ref_strategy, engine="event")
    fast = run_straightline(workload(), fast_strategy)
    assert ref_strategy.seen == fast_strategy.seen
    assert len(ref_strategy.seen) >= 2
    for tick, (_now, samples) in enumerate(ref_strategy.seen, start=1):
        assert [s[0] for s in samples] == [tick] * 4
    assert ref.dvs_transitions == fast.dvs_transitions == 1
    assert ref.elapsed_s == fast.elapsed_s
    assert ref.energy_j == fast.energy_j

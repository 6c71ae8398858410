"""Cluster-wide power capping.

The paper motivates power-aware scheduling with machine-room realities
(a petaflop machine drawing ~100 MW, Section 1).  Facilities enforce
those realities as *power caps*: the cluster may not exceed a budget,
whatever the workload does.  This strategy is the follow-on literature's
answer (GEOPM-style centralized capping) built on the same actuation
the paper uses:

* a coordinator samples every node's power each interval;
* while the cluster is over budget, it steps down the
  highest-powered node (one operating point per offender per interval);
* while comfortably under budget (below ``cap * headroom``), it steps
  the slowest node back up.

The cap is enforced on *observed* power; transitions take effect
immediately, so overshoot is bounded by one interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.strategies.base import SampledController, Strategy

__all__ = ["PowerCapConfig", "PowerCapStrategy"]


@dataclass(frozen=True)
class PowerCapConfig:
    """Cap controller tuning."""

    #: cluster power budget in watts (participating nodes only).
    cap_w: float
    interval_s: float = 0.5
    #: step back up only when below ``cap_w * headroom``.
    headroom: float = 0.92
    #: how many nodes may be stepped *up* per interval (shedding is
    #: always immediate for every offender).
    max_steps_per_interval: int = 2
    #: raise speed only if the node would stay under budget even at
    #: full activity (True keeps worst-case power under the cap; False
    #: reacts to instantaneous power and may overshoot transiently).
    conservative_raise: bool = True

    def __post_init__(self) -> None:
        if self.cap_w <= 0:
            raise ValueError("cap must be positive")
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if not 0 < self.headroom <= 1:
            raise ValueError("headroom must lie in (0, 1]")
        if self.max_steps_per_interval < 1:
            raise ValueError("need at least one step per interval")


class PowerCapStrategy(Strategy):
    """Keep the participating nodes' total power under a budget."""

    name = "powercap"

    def __init__(self, config: PowerCapConfig) -> None:
        self.config = config
        #: samples of (time, total power) taken by the controller.
        self.power_samples: list[tuple[float, float]] = []

    def describe(self) -> str:
        return f"powercap({self.config.cap_w:.0f}W)"

    def controller(self) -> Optional[SampledController]:
        """The coordinator as a stateful global-reduction controller.

        Each interval: gather every node's instantaneous power (plus
        the activity key it was computed from, so the shed projection
        can reprice a stepped-down offender), decide the cluster-wide
        budget redistribution, scatter the setpoints.  ``start_index``
        is the setup-time pre-shed.
        """
        return SampledController(
            interval_s=self.config.interval_s,
            observes="power",
            make_global=self._make_reduction,
            start_index=self._start_index,
        )

    def _make_reduction(self) -> "_PowerCapReduction":
        return _PowerCapReduction(self)

    def _start_index(self, opoints, power_params, nprocs: int) -> int:
        """Pre-shed: the fastest uniform point whose worst-case
        (full-activity) total stays under the cap, so the budget holds
        from t = 0 rather than after the first control interval."""
        for index in range(opoints.max_index, -1, -1):
            w = power_params.node_power_w(
                opoints[index],
                cpu_activity=1.0, mem_activity=0.6, nic_activity=0.5,
            )
            worst = sum(w for _ in range(nprocs))
            if worst <= self.config.cap_w or index == 0:
                return index
        return 0  # pragma: no cover - loop always returns at index 0

    def max_observed_power_w(self) -> float:
        return max((p for _t, p in self.power_samples), default=0.0)

    def mean_observed_power_w(self) -> float:
        if not self.power_samples:
            return 0.0
        return sum(p for _t, p in self.power_samples) / len(self.power_samples)


class _PowerCapReduction:
    """The coordinator's per-interval budget redistribution.

    Works over node-ordered samples of ``(power_w, dyn, mem, nic)``.
    ``worst_tab`` holds each operating point's worst-case (full
    activity) node power; sums over it run in node order.  Each tick
    appends one ``(time, total power)`` entry to the strategy's
    ``power_samples``.
    """

    __slots__ = ("strategy", "cfg", "opoints", "power", "worst_tab",
                 "freq_tab", "max_index", "_memo")

    def __init__(self, strategy: PowerCapStrategy) -> None:
        self.strategy = strategy
        self.cfg = strategy.config
        self._memo: dict[tuple, float] = {}

    def bind(self, opoints, power_params, nprocs: int) -> None:
        self.opoints = opoints
        self.power = power_params
        self.max_index = opoints.max_index
        self.worst_tab = [
            power_params.node_power_w(
                op, cpu_activity=1.0, mem_activity=0.6, nic_activity=0.5
            )
            for op in opoints
        ]
        self.freq_tab = [op.frequency_hz for op in opoints]

    def _node_w(self, index: int, dyn: float, mem: float, nic: float) -> float:
        key = (index, dyn, mem, nic)
        p = self._memo.get(key)
        if p is None:
            p = self.power.node_power_w(self.opoints[index], dyn, mem, nic)
            self._memo[key] = p
        return p

    def decide(self, now, samples, indices):
        """Yield ``(node, target)`` setpoints one at a time; the runtime
        writes each node's resulting index back into ``indices``."""
        cfg = self.cfg
        powers = [s[0] for s in samples]
        total = sum(powers)
        self.strategy.power_samples.append((now, total))
        worst_tab = self.worst_tab
        worst = sum(worst_tab[i] for i in indices)
        if total > cfg.cap_w:
            # shed: every node above the floor steps down, the biggest
            # consumers first, until projected under cap.  sorted() is
            # stable, so ties keep node order.
            offenders = sorted(
                (n for n in range(len(indices)) if indices[n] > 0),
                key=powers.__getitem__,
                reverse=True,
            )
            projected = total
            for n in offenders:
                target = indices[n] - 1
                yield n, target
                if indices[n] == target:
                    # The gear change leaves the activity state
                    # untouched: same key, lower point.  A failed
                    # transition leaves the node's power unchanged.
                    s = samples[n]
                    projected -= powers[n] - self._node_w(target, s[1], s[2], s[3])
                if projected <= cfg.cap_w * cfg.headroom:
                    break
        elif total < cfg.cap_w * cfg.headroom:
            # recover performance: speed the slowest nodes up, against
            # the worst-case (full activity) budget so a phase change
            # cannot blow the cap.
            freq_tab = self.freq_tab
            candidates = sorted(
                (n for n in range(len(indices)) if indices[n] < self.max_index),
                key=lambda n: freq_tab[indices[n]],
            )
            budget = cfg.cap_w - (worst if cfg.conservative_raise else total)
            stepped = 0
            for n in candidates:
                if stepped >= cfg.max_steps_per_interval:
                    break
                delta = worst_tab[indices[n] + 1] - worst_tab[indices[n]]
                if delta > budget:
                    continue
                yield n, indices[n] + 1
                budget -= delta
                stepped += 1

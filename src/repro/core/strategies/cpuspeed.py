"""Strategy #1 — the CPUSPEED daemon (paper Section 3.1).

System-driven, external control: an autonomous per-node process polls
/proc-style CPU utilization every ``interval`` seconds and migrates the
operating point with the paper's threshold algorithm::

    while true:
        poll %CPU-usage
        if   %CPU < minimum-threshold:   S = 0         (jump to slowest)
        elif %CPU > maximum-threshold:   S = m         (jump to fastest)
        elif %CPU < CPU-usage-threshold: S = max(S-1, 0)
        else:                            S = min(S+1, m)
        set-cpu-speed(speed[S]); sleep(interval)

Two presets mirror the versions the paper evaluates: v1.1 (Fedora 2,
0.1 s interval — effectively never leaves top speed on NPB codes) and
v1.2.1 (Fedora 3, 2 s interval — the version Figure 5 reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.cpu import CpuCore
from repro.core.strategies.base import SampledController, Strategy

__all__ = ["CpuspeedConfig", "CpuspeedDaemonStrategy"]


@dataclass(frozen=True)
class CpuspeedConfig:
    """Daemon tuning knobs.

    Thresholds are percentages of the polling window spent busy.
    """

    interval_s: float = 2.0
    minimum_threshold: float = 50.0
    usage_threshold: float = 80.0
    maximum_threshold: float = 95.0
    #: robustness against (injected) SpeedStep failures: how many times
    #: one poll's transition is re-issued, and the initial sleep before
    #: each retry (doubled per attempt — exponential backoff).
    max_retries: int = 3
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if not (
            0
            <= self.minimum_threshold
            <= self.usage_threshold
            <= self.maximum_threshold
            <= 100
        ):
            raise ValueError(
                "need 0 <= minimum <= usage <= maximum <= 100 thresholds"
            )
        if self.max_retries < 0 or self.retry_backoff_s <= 0:
            raise ValueError("need max_retries >= 0 and a positive backoff")

    @classmethod
    def v1_1(cls) -> "CpuspeedConfig":
        """Fedora Core 2 default: 0.1 s interval, low thresholds.

        The paper observes v1.1 "always chooses the highest CPU speed
        for most NPB codes": its thresholds sit so low that any NPB
        utilization saturates them.
        """
        return cls(
            interval_s=0.1,
            minimum_threshold=5.0,
            usage_threshold=15.0,
            maximum_threshold=30.0,
        )

    @classmethod
    def v1_2_1(cls) -> "CpuspeedConfig":
        """Fedora Core 3 default: 2 s transition interval."""
        return cls(interval_s=2.0)


class CpuspeedDaemonStrategy(Strategy):
    """Run one CPUSPEED daemon per participating node."""

    name = "cpuspeed"

    def __init__(self, config: Optional[CpuspeedConfig] = None) -> None:
        self.config = config or CpuspeedConfig.v1_2_1()

    def describe(self) -> str:
        return f"cpuspeed(interval={self.config.interval_s:g}s)"

    def controller(self) -> SampledController:
        """The daemon: poll %CPU every ``interval_s``, apply the
        threshold rule, issue one ``set_speed_index`` call."""
        return SampledController(
            interval_s=self.config.interval_s,
            make=self._make_controller,
        )

    def _make_controller(self) -> "_CpuspeedController":
        return _CpuspeedController(self.config)

    def retry_transition(self, cpu: CpuCore, target: int):
        """Re-issue a failed (injected) transition with exponential
        backoff instead of silently sticking until the next poll.  The
        clean path never gets here, so it adds no events to fault-free
        runs."""
        cfg = self.config
        backoff = cfg.retry_backoff_s
        for _ in range(cfg.max_retries):
            yield cpu.env.timeout(backoff)
            backoff *= 2.0
            cpu.injector.log.dvs_retries += 1
            if cpu.set_speed_index(target):
                return


class _CpuspeedController:
    """One node's CPUSPEED daemon state: the previous poll's busy
    seconds and time (zero at t = 0, before the job starts)."""

    __slots__ = ("prev_busy", "prev_time", "min_t", "use_t", "max_t")

    def __init__(self, cfg: CpuspeedConfig) -> None:
        self.prev_busy = 0.0
        self.prev_time = 0.0
        self.min_t = cfg.minimum_threshold
        self.use_t = cfg.usage_threshold
        self.max_t = cfg.maximum_threshold

    def step(
        self, now: float, busy: float, index: int, max_index: int
    ) -> tuple[int, ...]:
        window = now - self.prev_time
        usage = 100.0 * (busy - self.prev_busy) / window if window > 0 else 0.0
        self.prev_busy = busy
        self.prev_time = now
        return (self.next_index(index, max_index, usage),)

    def next_index(self, current: int, max_index: int, usage_pct: float) -> int:
        """The paper's threshold/saturation rule."""
        if usage_pct < self.min_t:
            return 0
        if usage_pct > self.max_t:
            return max_index
        if usage_pct < self.use_t:
            return max(current - 1, 0)
        return min(current + 1, max_index)

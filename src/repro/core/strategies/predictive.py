"""Predictive daemon — the paper's future-work scheduler.

Section 7: "Our continuing goal is to improve energy savings while
maintaining performance through better prediction methods more suitable
to high-performance computing applications."  The CPUSPEED daemon fails
on scientific codes for two reasons the paper identifies: its window is
long (2 s — it lags every phase change) and its response is incremental
(one operating point per poll).  This daemon fixes both and optionally
adds phase-duration learning:

* **reactive mode** — poll at sub-phase granularity (default 100 ms)
  and jump *directly* to the target point, with hysteresis so single
  noisy samples don't cause transitions;
* **predictive mode** — additionally learn the typical duration of busy
  and slack runs (EMA over observed run lengths).  When the current run
  has lasted its learned duration, pre-emptively switch to the speed of
  the *next* expected phase, so the clock is already high when compute
  resumes — removing the reactive lag that costs delay on codes like
  MG and BT.

Both are system-driven and external, like CPUSPEED: they observe only
/proc-style utilization, no application changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.strategies.base import SampledController, Strategy

__all__ = ["PredictiveConfig", "PredictiveDaemonStrategy"]


@dataclass(frozen=True)
class PredictiveConfig:
    """Tuning of the predictive daemon."""

    interval_s: float = 0.1
    #: below this busy fraction a sample reads "slack".
    low_threshold: float = 0.55
    #: above this busy fraction a sample reads "busy".
    high_threshold: float = 0.85
    #: consecutive agreeing samples required before switching.
    hysteresis_samples: int = 2
    #: consecutive ambiguous (mid-band) samples before drifting one
    #: operating point down (codes that never separate into clean
    #: busy/slack phases, like CG, still deserve savings).
    drift_samples: int = 5
    #: EMA factor for learned run lengths.
    learning_rate: float = 0.3
    #: enable phase-duration prediction (else purely reactive).
    predictive: bool = True
    #: pre-switch when the run has lasted this fraction of its learned
    #: duration.
    preswitch_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if not 0 <= self.low_threshold <= self.high_threshold <= 1:
            raise ValueError("need 0 <= low <= high <= 1 thresholds")
        if self.hysteresis_samples < 1:
            raise ValueError("hysteresis needs at least one sample")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning rate must lie in (0, 1]")
        if self.preswitch_fraction <= 0:
            raise ValueError("preswitch fraction must be positive")
        if self.drift_samples < 1:
            raise ValueError("drift needs at least one sample")


class PredictiveDaemonStrategy(Strategy):
    """Fast-reacting, optionally phase-predicting DVS daemon."""

    name = "predictive"

    def __init__(self, config: Optional[PredictiveConfig] = None) -> None:
        self.config = config or PredictiveConfig()

    def describe(self) -> str:
        mode = "predictive" if self.config.predictive else "reactive"
        return f"{mode}-daemon(interval={self.config.interval_s:g}s)"

    def controller(self) -> SampledController:
        """The daemon as a per-node utilization controller."""
        return SampledController(
            interval_s=self.config.interval_s,
            make=self._make_controller,
        )

    def _make_controller(self) -> "_PredictiveController":
        return _PredictiveController(self.config)


class _PredictiveController:
    """One node's predictive daemon: a phase tracker stepped per poll.

    ``step`` returns, in call order, every ``set_speed_index`` target
    of this poll: the mid-band drift's step down (relative to the
    pre-poll gear), then either the hysteresis phase entry *or* (never
    both — drifting implies the sample agrees with the current phase)
    the predictive pre-switch.  The state starts at t = 0, before the
    job: no busy seconds yet, in a busy phase at the top gear.
    """

    __slots__ = (
        "cfg",
        "prev_busy",
        "prev_time",
        "phase",
        "run_started",
        "agree_count",
        "candidate",
        "learned_busy_s",
        "learned_slack_s",
        "preswitched",
        "mid_count",
    )

    def __init__(self, config: PredictiveConfig) -> None:
        self.cfg = config
        self.prev_busy = 0.0
        self.prev_time = 0.0
        self.phase = "busy"
        self.run_started = 0.0
        self.agree_count = 0
        self.candidate: Optional[str] = None
        self.learned_busy_s: Optional[float] = None
        self.learned_slack_s: Optional[float] = None
        self.preswitched = False
        self.mid_count = 0

    def _learn(self, phase: str, duration: float) -> None:
        rate = self.cfg.learning_rate
        if phase == "busy":
            prev = self.learned_busy_s
            self.learned_busy_s = (
                duration if prev is None else (1 - rate) * prev + rate * duration
            )
        else:
            prev = self.learned_slack_s
            self.learned_slack_s = (
                duration if prev is None else (1 - rate) * prev + rate * duration
            )

    def step(
        self, now: float, busy: float, index: int, max_index: int
    ) -> tuple[int, ...]:
        cfg = self.cfg
        calls: list[int] = []
        window = now - self.prev_time
        util = (busy - self.prev_busy) / window if window > 0 else 0.0
        self.prev_busy, self.prev_time = busy, now

        # classify this sample
        if util >= cfg.high_threshold:
            sample = "busy"
            self.mid_count = 0
        elif util <= cfg.low_threshold:
            sample = "slack"
            self.mid_count = 0
        else:
            # Ambiguous band: phases too fine (or mixed) for the sampler
            # to separate.  Drift down slowly — the CPUSPEED-style
            # response — while extremes still get immediate jumps.
            sample = self.phase
            self.mid_count += 1
            if self.mid_count >= cfg.drift_samples:
                self.mid_count = 0
                calls.append(max(index - 1, 0))

        # hysteresis: require agreement before switching
        if sample != self.phase:
            if sample == self.candidate:
                self.agree_count += 1
            else:
                self.candidate = sample
                self.agree_count = 1
            if self.agree_count >= cfg.hysteresis_samples:
                # enter the new phase: learn, flip, jump to its speed
                self._learn(self.phase, now - self.run_started)
                self.phase = sample
                self.run_started = now
                self.preswitched = False
                calls.append(max_index if sample == "busy" else 0)
                self.candidate = None
                self.agree_count = 0
            return tuple(calls)
        self.candidate = None
        self.agree_count = 0

        # prediction: pre-switch near the learned end of a run
        if cfg.predictive and not self.preswitched:
            learned = (
                self.learned_busy_s
                if self.phase == "busy"
                else self.learned_slack_s
            )
            if learned is not None and learned > 0:
                elapsed = now - self.run_started
                if elapsed >= cfg.preswitch_fraction * learned:
                    # prepare for the opposite phase
                    calls.append(0 if self.phase == "busy" else max_index)
                    self.preswitched = True
        return tuple(calls)

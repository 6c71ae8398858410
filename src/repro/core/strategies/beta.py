"""β-adaptive, performance-constrained DVS daemon.

The paper's title promises *performance-constrained* scheduling; its
future work asks for "better prediction methods more suitable to
high-performance computing applications".  The approach the follow-up
literature converged on (Hsu & Feng's β-adaptation; Ge et al.'s own
CPU MISER) reads hardware performance counters instead of /proc
utilization:

1. over each window, estimate the **frequency-sensitive share**
   ``w_on`` of execution time from the retired-cycle counter
   (``on-chip seconds = Δcycles / f``; everything else — memory stalls,
   network waits — does not scale with the clock);
2. given a user delay constraint ``D(f) ≤ 1 + δ`` and the model
   ``D(f) = w_on · f_max/f + (1 − w_on)``, the slowest admissible
   frequency is ``f* = f_max · w_on / (δ + w_on)``;
3. set the slowest operating point **at or above** ``f*``.

Unlike utilization heuristics, this distinguishes a memory-stalled CPU
(busy in /proc but insensitive to frequency) from an on-chip-bound one
— exactly the failure mode that makes CPUSPEED mispredict MG and BT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.opoints import OperatingPointTable
from repro.core.strategies.base import SampledController, Strategy

__all__ = ["BetaConfig", "BetaDaemonStrategy", "required_frequency_ratio"]


def required_frequency_ratio(w_on: float, delta: float) -> float:
    """Slowest admissible ``f / f_max`` for sensitivity ``w_on`` and
    delay budget ``δ`` (from ``D(f) = w_on·f_max/f + 1 − w_on ≤ 1+δ``).
    """
    if not 0.0 <= w_on <= 1.0:
        raise ValueError("w_on must lie in [0, 1]")
    if delta < 0.0:
        raise ValueError("delay budget must be non-negative")
    if w_on == 0.0:
        return 0.0
    return w_on / (delta + w_on)


@dataclass(frozen=True)
class BetaConfig:
    """β-daemon tuning."""

    #: user delay budget: execution time may grow by at most this
    #: fraction (the performance constraint).
    delta: float = 0.05
    interval_s: float = 1.0
    #: EMA smoothing of the w_on estimate across windows.
    smoothing: float = 0.5

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if not 0 < self.smoothing <= 1:
            raise ValueError("smoothing must lie in (0, 1]")


class BetaDaemonStrategy(Strategy):
    """Per-node counter-driven, delay-budgeted DVS daemon."""

    name = "beta"

    def __init__(self, config: Optional[BetaConfig] = None) -> None:
        self.config = config or BetaConfig()

    def describe(self) -> str:
        return f"beta-daemon(delta={self.config.delta:g})"

    @staticmethod
    def pick_point(opoints: OperatingPointTable, ratio: float) -> int:
        """Index of the slowest point with ``f/f_max >= ratio``."""
        f_max = opoints.fastest.frequency_hz
        for index, point in enumerate(opoints):  # slow -> fast
            if point.frequency_hz / f_max >= ratio - 1e-12:
                return index
        return opoints.max_index

    def controller(self) -> Optional[SampledController]:
        """The daemon as a stateful cycle-counter controller.

        The β daemon reads the retired-cycle counter, not
        ``busy_seconds()`` — a hardware counter read is no accounting
        touch — so the controller observes ``"cycles"``.
        """
        return SampledController(
            interval_s=self.config.interval_s,
            make=self._make_controller,
            observes="cycles",
        )

    def _make_controller(self) -> "_BetaController":
        return _BetaController(self.config)


class _BetaController:
    """One node's β daemon: the previous window's counter reading and
    timestamp (both zero at t = 0, before the job starts), and the EMA
    of the on-chip share."""

    __slots__ = ("cfg", "opoints", "prev_cycles", "prev_time", "w_on_ema")

    def __init__(self, config: BetaConfig) -> None:
        self.cfg = config
        self.opoints: Optional[OperatingPointTable] = None
        self.prev_cycles = 0.0
        self.prev_time = 0.0
        self.w_on_ema: Optional[float] = None

    def bind(self, opoints: OperatingPointTable, power_params) -> None:
        self.opoints = opoints

    def step(self, now: float, cycles: float, index: int,
             max_index: int) -> tuple[int, ...]:
        cfg = self.cfg
        window = now - self.prev_time
        if window <= 0:
            return ()
        opoints = self.opoints
        # On-chip share of the window at the *current* clock.
        onchip_s = (cycles - self.prev_cycles) / opoints[index].frequency_hz
        w_on = min(1.0, max(0.0, onchip_s / window))
        self.prev_cycles, self.prev_time = cycles, now
        ema = self.w_on_ema
        ema = (
            w_on
            if ema is None
            else (1 - cfg.smoothing) * ema + cfg.smoothing * w_on
        )
        self.w_on_ema = ema
        ratio = required_frequency_ratio(ema, cfg.delta)
        return (BetaDaemonStrategy.pick_point(opoints, ratio),)

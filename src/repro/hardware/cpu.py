"""A DVS-capable CPU core.

The core executes *segments* serially:

* **work** segments carry on-chip cycles plus an off-chip (memory-stall)
  time share; the on-chip part scales with the clock, the off-chip part
  does not.  This is the decomposition behind the paper's energy-delay
  crescendos.
* **occupy** segments model fixed-wall-time occupancy — message progress
  inside MPI operations whose duration is set by the network, not the
  clock — at a reduced dynamic-activity level.

Changing the operating point mid-segment is fully supported: the core
accounts for the fraction of the segment already executed, charges the
manufacturer transition latency (paper: 10–30 µs on SpeedStep /
PowerNow!) and reschedules the completion at the new speed.

The core also keeps /proc-style utilization accounting (busy-weighted
seconds) — exactly what the CPUSPEED daemon samples — and a
time-at-frequency histogram used by tests and figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.engine import Environment
from repro.sim.events import Event, Timeout
from repro.hardware.opoints import OperatingPoint, OperatingPointTable
from repro.hardware.power import NodePowerParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["CpuCore", "CpuStats"]


@dataclass
class CpuStats:
    """Cumulative counters maintained by :class:`CpuCore`."""

    transitions: int = 0
    #: transitions that stalled the pipeline but left the operating
    #: point unchanged (injected SpeedStep failures) — NOT counted in
    #: :attr:`transitions`, which means successful mode changes only.
    failed_transitions: int = 0
    transition_seconds: float = 0.0
    busy_seconds: float = 0.0
    segments_completed: int = 0
    #: on-chip cycles actually executed (a simulated performance
    #: counter — what beta-adaptive DVS daemons read on real parts).
    cycles_retired: float = 0.0
    #: seconds spent at each frequency (MHz -> seconds)
    time_at_mhz: dict[float, float] = field(default_factory=dict)


class _Segment:
    __slots__ = (
        "kind",
        "cycles_left",
        "offchip_left",
        "wall_left",
        "activity",
        "busy",
        "mem_activity",
        "nic_activity",
        "done",
        "timeout",
        "scheduled_at",
        "planned",
    )

    def __init__(
        self,
        kind: str,
        cycles: float,
        offchip: float,
        wall: float,
        activity: float,
        busy: float,
        mem_activity: float,
        nic_activity: float,
        done: Event,
    ) -> None:
        self.kind = kind
        self.cycles_left = cycles
        self.offchip_left = offchip
        self.wall_left = wall
        self.activity = activity
        self.busy = busy
        self.mem_activity = mem_activity
        self.nic_activity = nic_activity
        self.done = done
        self.timeout: Optional[Timeout] = None
        self.scheduled_at = 0.0
        self.planned = 0.0


class CpuCore:
    """One DVS-capable core (one node runs one MPI rank in NEMO).

    Parameters
    ----------
    env:
        Simulation environment.
    opoints:
        The DVS operating-point table (slow → fast).
    power:
        Node power parameters (used for the CPU component).
    transition_latency_s:
        Stall charged to in-flight work per DVS mode transition.
    start_index:
        Initial operating-point index (defaults to fastest).
    node_id / injector:
        Identity and fault source for this core.  When an injector is
        given, DVS transitions may fail (:meth:`set_speed_index`
        returns False) and the core may carry a whole-run work
        slowdown; with no injector both paths are byte-identical to
        the fault-free model.
    """

    def __init__(
        self,
        env: Environment,
        opoints: OperatingPointTable,
        power: NodePowerParameters,
        transition_latency_s: float = 20e-6,
        start_index: Optional[int] = None,
        name: str = "cpu",
        node_id: int = 0,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        if transition_latency_s < 0:
            raise ValueError("transition latency must be non-negative")
        self.env = env
        self.opoints = opoints
        self.power = power
        self.transition_latency_s = transition_latency_s
        self.name = name
        self.node_id = node_id
        self.injector = injector
        #: whole-run multiplier on work-segment durations (straggler
        #: node model); exactly 1.0 keeps the clean fast path.
        self.slowdown = (
            injector.node_slowdown_factor(node_id) if injector is not None else 1.0
        )
        self._index = opoints.max_index if start_index is None else start_index
        if not 0 <= self._index <= opoints.max_index:
            raise ValueError(f"start_index {start_index} out of range")
        self.stats = CpuStats()
        self._active: Optional[_Segment] = None
        self._pending: list[_Segment] = []
        self._stall_until = 0.0
        self._last_touch = env.now
        # Wait-state stack: (activity, busy, mem_activity, nic_activity)
        # describing what the core does while blocked in a library call
        # (message progress, select()-idle, ...).  Top of stack wins when
        # no segment is executing.
        self._wait_stack: list[tuple[float, float, float, float]] = []
        #: Called after any power-relevant state change (node subscribes).
        self.on_change: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def index(self) -> int:
        """Current operating point index (0 = slowest)."""
        return self._index

    @property
    def opoint(self) -> OperatingPoint:
        return self.opoints[self._index]

    @property
    def frequency_hz(self) -> float:
        return self.opoint.frequency_hz

    @property
    def frequency_mhz(self) -> float:
        return self.opoint.frequency_mhz

    @property
    def busy_level(self) -> float:
        """Current /proc-style busy fraction contribution (0..1)."""
        if self._active is not None:
            return self._active.busy
        if self._wait_stack:
            return self._wait_stack[-1][1]
        return 0.0

    @property
    def dyn_activity(self) -> float:
        """Current dynamic-power activity factor (idle floor when idle)."""
        if self._active is not None:
            return self._active.activity
        if self._wait_stack:
            return max(self._wait_stack[-1][0], self.power.cpu_idle_activity)
        return self.power.cpu_idle_activity

    @property
    def mem_activity(self) -> float:
        if self._active is not None:
            return self._active.mem_activity
        if self._wait_stack:
            return self._wait_stack[-1][2]
        return 0.0

    @property
    def nic_activity(self) -> float:
        if self._active is not None:
            return self._active.nic_activity
        if self._wait_stack:
            return self._wait_stack[-1][3]
        return 0.0

    # ------------------------------------------------------------------
    # wait states (blocking-library behaviour)
    # ------------------------------------------------------------------
    def push_wait_state(
        self,
        activity: float,
        busy: float,
        mem_activity: float = 0.0,
        nic_activity: float = 0.0,
    ) -> object:
        """Describe what the core does while its process blocks.

        Used by the MPI layer: message progress inside a collective keeps
        the core moderately active (busy-polling + kernel copies), while
        a ``select()``-blocked receive leaves it nearly idle.  Returns a
        token to pass to :meth:`pop_wait_state`.
        """
        self._touch()
        token = (float(activity), float(busy), float(mem_activity), float(nic_activity))
        self._wait_stack.append(token)
        self._notify()
        return token

    def pop_wait_state(self, token: object) -> None:
        """Remove a wait state pushed earlier (must still be on the stack)."""
        self._touch()
        # Remove the topmost matching entry (tokens are value tuples).
        for i in range(len(self._wait_stack) - 1, -1, -1):
            if self._wait_stack[i] == token:
                del self._wait_stack[i]
                break
        else:
            raise ValueError("wait-state token not found")
        self._notify()

    @property
    def cpu_power_w(self) -> float:
        return self.power.cpu_power_w(self.opoint, self.dyn_activity)

    def busy_seconds(self) -> float:
        """Cumulative busy-weighted seconds (what /proc/stat exposes)."""
        self._touch()
        return self.stats.busy_seconds

    def cycles_retired_now(self) -> float:
        """Live retired-cycle counter, including the in-flight segment.

        ``stats.cycles_retired`` only advances at segment boundaries;
        a performance counter ticks continuously, so add the executed
        share of the active work segment.
        """
        total = self.stats.cycles_retired
        seg = self._active
        if (
            seg is not None
            and seg.timeout is not None
            and seg.kind == "work"
            and seg.planned > 0
        ):
            elapsed = self.env.now - seg.scheduled_at
            frac = min(1.0, max(0.0, elapsed / seg.planned))
            total += seg.cycles_left * frac
        return total

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        now = self.env.now
        dt = now - self._last_touch
        if dt > 0:
            self.stats.busy_seconds += self.busy_level * dt
            mhz = self.opoint.frequency_mhz
            hist = self.stats.time_at_mhz
            hist[mhz] = hist.get(mhz, 0.0) + dt
            self._last_touch = now

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change()

    # ------------------------------------------------------------------
    # DVS control
    # ------------------------------------------------------------------
    def set_speed_index(self, index: int) -> bool:
        """Switch to operating point ``index`` (CPUFreq-style actuation).

        A no-op when already at that point; otherwise in-flight work is
        stalled for the transition latency and rescheduled at the new
        speed.  Returns whether the core is now at ``index``: an
        injected SpeedStep failure charges the stall (the driver
        blocked either way) but leaves the operating point unchanged
        and returns False, so callers can retry.
        """
        if not 0 <= index <= self.opoints.max_index:
            raise ValueError(
                f"operating point index {index} out of range 0..{self.opoints.max_index}"
            )
        if index == self._index:
            return True
        if self.injector is not None and self.injector.transition_fails(self.node_id):
            self.stats.failed_transitions += 1
            self.stats.transition_seconds += self.transition_latency_s
            self.stall(self.transition_latency_s)
            return False
        self._touch()
        self._progress_active()
        self._index = index
        self.stats.transitions += 1
        self.stats.transition_seconds += self.transition_latency_s
        # Stalls serialize: a transition issued while an earlier stall
        # is still pending queues behind it.
        self._stall_until = (
            max(self._stall_until, self.env.now) + self.transition_latency_s
        )
        self._reschedule_active()
        self._notify()
        return True

    def set_speed_mhz(self, mhz: float) -> bool:
        """Switch to the operating point at exactly ``mhz`` MHz."""
        return self.set_speed_index(self.opoints.index_of(self.opoints.by_mhz(mhz)))

    def stall(self, seconds: float) -> None:
        """Stall in-flight and upcoming work for ``seconds``.

        Models software actuation cost (e.g. the CPUFreq sysfs write of
        an application-level ``set_cpuspeed`` call), which is charged
        whether or not the operating point actually changes.
        """
        if seconds < 0:
            raise ValueError("stall must be non-negative")
        if seconds == 0.0:
            return
        self._touch()
        self._progress_active()
        self._stall_until = max(self._stall_until, self.env.now) + seconds
        self._reschedule_active()

    def step_down(self) -> bool:
        return self.set_speed_index(max(self._index - 1, 0))

    def step_up(self) -> bool:
        return self.set_speed_index(min(self._index + 1, self.opoints.max_index))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_work(
        self,
        cycles: float,
        offchip_seconds: float = 0.0,
        activity: float = 1.0,
        busy: float = 1.0,
        mem_activity: float = 0.0,
        nic_activity: float = 0.0,
    ) -> Event:
        """Execute a compute segment; returns its completion event.

        ``cycles`` scale with the clock; ``offchip_seconds`` do not.
        """
        if cycles < 0 or offchip_seconds < 0:
            raise ValueError("work amounts must be non-negative")
        seg = _Segment(
            "work",
            cycles,
            offchip_seconds,
            0.0,
            activity,
            busy,
            mem_activity,
            nic_activity,
            Event(self.env),
        )
        self._enqueue(seg)
        return seg.done

    def occupy(
        self,
        duration_seconds: float,
        activity: float = 0.55,
        busy: float = 0.6,
        mem_activity: float = 0.0,
        nic_activity: float = 1.0,
    ) -> Event:
        """Occupy the core for a fixed wall-clock duration.

        Used for message progress whose duration is decided by the
        network model: changing the clock does not change the duration,
        only the power drawn while it happens.
        """
        if duration_seconds < 0:
            raise ValueError("duration must be non-negative")
        seg = _Segment(
            "occupy",
            0.0,
            0.0,
            duration_seconds,
            activity,
            busy,
            mem_activity,
            nic_activity,
            Event(self.env),
        )
        self._enqueue(seg)
        return seg.done

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _enqueue(self, seg: _Segment) -> None:
        if self._active is None:
            self._start(seg)
        else:
            self._pending.append(seg)

    def _start(self, seg: _Segment) -> None:
        self._touch()
        self._active = seg
        self._reschedule_active()
        self._notify()

    def _duration(self, seg: _Segment) -> float:
        if seg.kind == "occupy":
            return seg.wall_left
        stall = max(0.0, self._stall_until - self.env.now)
        if self.slowdown != 1.0:
            # Straggler node: work (not stall) stretched uniformly.
            work = seg.cycles_left / self.frequency_hz + seg.offchip_left
            return stall + work * self.slowdown
        return stall + seg.cycles_left / self.frequency_hz + seg.offchip_left

    def _reschedule_active(self) -> None:
        seg = self._active
        if seg is None:
            return
        seg.scheduled_at = self.env.now
        seg.planned = self._duration(seg)
        timeout = Timeout(self.env, seg.planned)
        seg.timeout = timeout
        timeout._add_callback(self._make_completer(seg, timeout))

    def _make_completer(self, seg: _Segment, timeout: Timeout):
        def complete(_event: Event) -> None:
            if seg.timeout is not timeout:  # pragma: no cover - defensive
                return
            self._touch()
            self.stats.cycles_retired += seg.cycles_left
            seg.cycles_left = 0.0
            self._active = None
            seg.timeout = None
            self.stats.segments_completed += 1
            seg.done.succeed()
            if self._pending:
                self._start(self._pending.pop(0))
            else:
                self._notify()

        return complete

    def _progress_active(self) -> None:
        """Account partial progress of the active segment and unschedule it."""
        seg = self._active
        if seg is None or seg.timeout is None:
            return
        elapsed = self.env.now - seg.scheduled_at
        if seg.planned > 0:
            frac = min(1.0, max(0.0, elapsed / seg.planned))
        else:
            frac = 1.0
        if seg.kind == "work":
            # The stall portion (if any) did not advance the work itself;
            # approximate by shrinking both components proportionally to
            # the *work* share of the elapsed time.
            self.stats.cycles_retired += seg.cycles_left * frac
            seg.cycles_left *= 1.0 - frac
            seg.offchip_left *= 1.0 - frac
        else:
            seg.wall_left = max(0.0, seg.wall_left - elapsed)
        seg.timeout.cancel()
        seg.timeout = None

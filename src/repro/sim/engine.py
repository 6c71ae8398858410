"""The simulation environment: clock + event heap.

The event loop is the hottest code in the repository — every simulated
MPI message, CPU segment and battery sample passes through it — so
:meth:`Environment.run` keeps an inlined copy of :meth:`step` with the
heap, clock and ``heappop`` bound to locals, and cancelled timeouts are
skipped with a plain ``_cancelled`` flag check instead of an
``isinstance`` test.  Cancelled entries are removed lazily; a counter
triggers a compaction pass when more than half the heap is dead (see
``docs/performance.md``).
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from repro.sim.events import _PROCESSED, Event, Timeout
from repro.sim.process import Process

__all__ = ["Environment", "SimulationError", "StopSimulation"]

#: Never bother compacting heaps with fewer dead entries than this —
#: popping a few stale entries lazily is cheaper than a rebuild.
COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """An unhandled failure escaped a process."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""


class Environment:
    """Discrete-event simulation environment.

    Keeps the virtual clock and the pending-event heap, creates events
    and processes, and advances time event-by-event.

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(2.5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    2.5
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_process", "_dead")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: cancelled timeouts still sitting in the heap
        self._dead = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds by convention)."""
        return self._now

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start running ``generator`` as a process."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, self._eid, event))

    def _note_cancelled(self) -> None:
        """Account for a timeout cancelled while still in the heap;
        compact once dead entries outnumber live ones."""
        self._dead += 1
        if self._dead > COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        # In-place so any local references to the heap stay valid.
        self._queue[:] = [
            entry for entry in self._queue if not entry[2]._cancelled
        ]
        heapq.heapify(self._queue)
        self._dead = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        queue = self._queue
        while queue:
            when, _, event = queue[0]
            if event._cancelled:
                heapq.heappop(queue)
                self._dead -= 1
                continue
            return when
        return float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it."""
        queue = self._queue
        while True:
            if not queue:
                raise IndexError("no more events")
            when, _, event = heapq.heappop(queue)
            if event._cancelled:
                self._dead -= 1
                continue
            break
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError(f"event scheduled in the past: {when} < {self._now}")
        self._now = when
        callbacks, event._callbacks = event._callbacks, _PROCESSED
        if callbacks is not None:
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(event)
            else:
                callbacks(event)
        if not event._ok and not event._defused:
            raise SimulationError(
                f"unhandled failure in simulation: {event._value!r}"
            ) from (event._value if isinstance(event._value, BaseException) else None)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain;
            a number — run until the clock reaches that time;
            an :class:`Event` — run until that event is processed and
            return its value.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value if stop_event.ok else None
            stop_event._add_callback(self._stop_callback)
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(f"until={stop_time} is in the past (now={self._now})")

        # Inlined step() loop: heap, pop and sentinel bound to locals.
        # `queue` stays valid across _compact() (in-place rebuild).
        # The common case (no time limit) skips the peek-then-pop double
        # heap access entirely.
        queue = self._queue
        heappop = heapq.heappop
        processed = _PROCESSED
        bounded = stop_time != float("inf")
        try:
            while queue:
                if bounded:
                    when, _, event = queue[0]
                    if event._cancelled:
                        heappop(queue)
                        self._dead -= 1
                        continue
                    if when > stop_time:
                        break
                    heappop(queue)
                else:
                    when, _, event = heappop(queue)
                    if event._cancelled:
                        self._dead -= 1
                        continue
                if when < self._now:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"event scheduled in the past: {when} < {self._now}"
                    )
                self._now = when
                callbacks, event._callbacks = event._callbacks, processed
                if callbacks is not None:
                    if type(callbacks) is list:
                        for callback in callbacks:
                            callback(event)
                    else:
                        callbacks(event)
                if not event._ok and not event._defused:
                    raise SimulationError(
                        f"unhandled failure in simulation: {event._value!r}"
                    ) from (
                        event._value
                        if isinstance(event._value, BaseException)
                        else None
                    )
        except StopSimulation:
            assert stop_event is not None
            if not stop_event.ok:
                raise SimulationError(
                    f"awaited event failed: {stop_event._value!r}"
                ) from stop_event._value
            return stop_event.value

        if stop_event is not None and not stop_event.processed:
            raise SimulationError(
                "simulation ran out of events before the awaited event triggered"
            )
        if stop_time != float("inf") and self._now < stop_time:
            self._now = stop_time
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation()

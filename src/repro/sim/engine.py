"""Event-driven, cycle-level simulation engine.

The engine keeps a priority queue of (cycle, sequence, callback) events.  All
timing in the model is expressed in clock cycles of a single global clock
domain (the paper's platform runs the fabric and the memory subsystem from
one clock; the host CPU is modelled with a cycle-ratio, see
:mod:`repro.baselines.software`).

Components never busy-tick: every interaction is an event, so simulation cost
scales with the number of transactions, not with the number of cycles.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from .stats import StatsRegistry


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Event:
    """A scheduled callback, and the handle that cancels it.

    The queue holds plain ``(cycle, seq, event)`` tuples, so ordering
    compares integers only; ``seq`` (the insertion order) breaks same-cycle
    ties and is unique, so the event itself is never compared.
    """

    __slots__ = ("cycle", "callback", "cancelled", "popped", "_sim")

    def __init__(self, cycle: int, callback: Callable[[], None],
                 sim: "Simulator"):
        self.cycle = cycle
        self.callback = callback
        self.cancelled = False
        #: Taken off the queue (run, skipped, or tripped ``max_cycles``).
        self.popped = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event's callback from running.

        A no-op once the event has already been taken off the queue (run or
        skipped): there is nothing left to cancel, and counting it would
        corrupt the live-event accounting.
        """
        if not self.cancelled and not self.popped:
            self.cancelled = True
            self._sim._cancelled += 1


class Simulator:
    """Global event queue and clock.

    Parameters
    ----------
    max_cycles:
        Safety limit; :meth:`run` raises :class:`SimulationError` if the
        simulation has not quiesced by this cycle.  ``None`` disables the
        limit.
    """

    def __init__(self, max_cycles: Optional[int] = None):
        self._queue: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._now = 0
        self._max_cycles = max_cycles
        self._cancelled = 0
        self.stats = StatsRegistry()

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay runs later in the same
        cycle (after all previously scheduled same-cycle events).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        cycle = self._now + int(delay)
        event = Event(cycle, callback, self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (cycle, seq, event))
        return event

    def schedule_at(self, cycle: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute cycle (must not be in the past)."""
        if cycle < self._now:
            raise ValueError(f"cannot schedule in the past: {cycle} < {self._now}")
        return self.schedule(cycle - self._now, callback)

    # ------------------------------------------------------------------- run
    def _exceeded(self, cycle: int) -> SimulationError:
        return SimulationError(
            f"simulation exceeded max_cycles={self._max_cycles} "
            f"(next event at {cycle})")

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queue drains (or until the given cycle).

        Returns the cycle at which the simulation stopped.
        """
        if until is not None and until < self._now:
            raise ValueError(
                f"cannot run backwards: until={until} < now={self._now}")
        queue = self._queue
        heappop = heapq.heappop
        max_cycles = self._max_cycles
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return until
            cycle, _, event = heappop(queue)
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            if max_cycles is not None and cycle > max_cycles:
                raise self._exceeded(cycle)
            self._now = cycle
            event.callback()
        return self._now

    def step(self) -> bool:
        """Run a single event.  Returns False when the queue is empty.

        Honours ``max_cycles`` exactly like :meth:`run`: single-stepping past
        the safety limit raises :class:`SimulationError` instead of silently
        executing the event.
        """
        queue = self._queue
        while queue:
            cycle, _, event = heapq.heappop(queue)
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            if self._max_cycles is not None and cycle > self._max_cycles:
                raise self._exceeded(cycle)
            self._now = cycle
            event.callback()
            return True
        return False

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled

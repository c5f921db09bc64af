"""Base class for simulated hardware/software components."""

from __future__ import annotations

from typing import Callable

from .engine import Event, Simulator
from .stats import StatGroup


class Component:
    """A named component attached to a :class:`~repro.sim.engine.Simulator`.

    Components get a private statistics group and convenience scheduling
    helpers.  Sub-classes model hardware blocks (DRAM, bus, TLB, walker,
    accelerator threads) or software actors (host kernel, delegate threads).
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.stats: StatGroup = sim.stats.group(name)
        # The group's own dicts, for one-lookup access on the hot path.  A
        # stat is still created (and enters the snapshot) on first use only.
        self._counters = self.stats.counters
        self._accumulators = self.stats.accumulators

    # ------------------------------------------------------------ scheduling
    @property
    def now(self) -> int:
        return self.sim._now

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        return self.sim.schedule(delay, callback)

    # ----------------------------------------------------------------- stats
    def count(self, stat: str, amount: int = 1) -> None:
        counter = self._counters.get(stat)
        if counter is None:
            counter = self.stats.counter(stat)
        counter.inc(amount)

    def sample(self, stat: str, value: float) -> None:
        accumulator = self._accumulators.get(stat)
        if accumulator is None:
            accumulator = self.stats.accumulator(stat)
        accumulator.add(value)

    def set_stat(self, stat: str, value: float) -> None:
        self.stats.scalar(stat).set(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class NamedMixin:
    """Tiny helper for objects that carry a name but are not components."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"

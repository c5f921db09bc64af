"""Hardware page-table walker.

On a TLB miss the MMU hands the virtual page number to a walker, which reads
one page-table entry per radix level from physical memory.  The walker can be
*private* (one per hardware thread) or *shared* (one walker serving several
MMUs through a request queue) — a design choice the synthesis flow makes and
the Fig. 7 benchmark ablates.

If the walker is attached to a bus port its reads are real memory
transactions and contend with data traffic; otherwise a fixed per-level
latency is charged (used for unit tests and analytic experiments).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Optional

from ..mem.port import MemoryRequest, MemoryTarget
from ..sim.component import Component
from ..sim.trace import GLOBAL_TRACER
from ..sim.engine import Simulator
from .pagetable import PageTable, PageTableEntry


@dataclass(frozen=True)
class WalkerConfig:
    """Walker timing parameters."""

    per_level_overhead: int = 2       # pipeline cycles per level in the walker FSM
    fixed_level_latency: int = 30     # memory latency per level when no port is attached

    def __post_init__(self) -> None:
        if self.per_level_overhead < 0 or self.fixed_level_latency < 0:
            raise ValueError("walker latencies must be non-negative")


WalkCallback = Callable[[Optional[PageTableEntry], int], None]


@dataclass
class _WalkRequest:
    vpn: int
    page_table: PageTable
    callback: WalkCallback
    issued_at: int


class PageTableWalker(Component):
    """Serial page-table walker with an optional shared request queue."""

    def __init__(self, sim: Simulator, port: Optional[MemoryTarget] = None,
                 config: WalkerConfig | None = None, name: str = "ptw"):
        super().__init__(sim, name)
        self.config = config or WalkerConfig()
        self.port = port
        self._queue: Deque[_WalkRequest] = deque()
        self._busy = False

    # ------------------------------------------------------------------ walk
    def walk(self, vpn: int, page_table: PageTable, callback: WalkCallback) -> None:
        """Translate ``vpn`` by walking ``page_table``.

        ``callback(entry, walk_cycles)`` is invoked when the walk retires;
        ``entry`` is None if the walk hit a missing intermediate level or an
        unmapped leaf slot.
        """
        self.count("walks_requested")
        request = _WalkRequest(vpn, page_table, callback, self.now)
        self._queue.append(request)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        request = self._queue.popleft()
        queue_wait = self.now - request.issued_at
        self.sample("queue_wait", queue_wait)
        addresses = request.page_table.walk_addresses(request.vpn)
        self._do_level(request, addresses, 0, self.now)

    def _do_level(self, request: _WalkRequest, addresses: list[int],
                  level: int, started_at: int) -> None:
        if level >= len(addresses):
            self._finish(request, addresses, started_at)
            return

        def next_level(_req: Optional[MemoryRequest] = None) -> None:
            self.schedule(self.config.per_level_overhead,
                          partial(self._do_level, request, addresses,
                                  level + 1, started_at))

        self.count("levels_fetched")
        if self.port is not None:
            mem_request = MemoryRequest(addr=addresses[level],
                                        size=request.page_table.config.pte_bytes,
                                        is_write=False, master=self.name,
                                        callback=next_level)
            self.port.access(mem_request)
        else:
            self.schedule(self.config.fixed_level_latency, next_level)

    def _finish(self, request: _WalkRequest, addresses: list[int],
                started_at: int) -> None:
        expected_levels = request.page_table.config.levels
        entry: Optional[PageTableEntry] = None
        if len(addresses) == expected_levels:
            entry = request.page_table.entry(request.vpn)
        walk_cycles = self.now - started_at
        self.count("walks_completed")
        self.count("walk_cycles", walk_cycles)
        self.sample("walk_latency", walk_cycles)
        if GLOBAL_TRACER.enabled:
            GLOBAL_TRACER.log(self.now, self.name, "walk_done",
                              f"vpn={request.vpn} levels={len(addresses)} "
                              f"cycles={walk_cycles} "
                              f"faulted={entry is None}")
        if entry is None:
            self.count("walks_faulted")
        request.callback(entry, walk_cycles)
        self._start_next()

    # ------------------------------------------------------------------ info
    @property
    def pending(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

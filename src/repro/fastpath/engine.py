"""Replay micro-simulator: the event loop of one SVM hardware thread, flattened.

The component-based event tier executes a kernel through ~10 Python objects
(thread → memif → MMU → TLB → walker → bus → DRAM), each interaction a
closure on the global heap.  This engine replays a pre-lowered operation
stream (:mod:`repro.fastpath.record`) through *one* dispatch loop whose
events are small tuples ``(cycle, seq, code, payload)`` and whose component
state lives in local variables.

Exactness is by construction, not by approximation: the engine mirrors every
``Simulator.schedule`` call the real components would make — same delays,
same order within an event, same synchronous call chains — so the heap pops
in the identical order and every counter, stall and completion cycle comes
out identical to the event tier.  The set-associative ASID-tagged TLB state
is kept in the *real* :class:`~repro.vm.tlb.TLB` object (handed in by the
caller, pre-warmed by any host-side pinning touches), manipulated inline with
the exact semantics of ``lookup``/``insert``/``flush``; page-table walks read
the real :class:`~repro.vm.pagetable.PageTable` nodes.

Pending events wait in a ``heapq`` behind a one-slot "next event" register:
the hot scheduling sites park their event in the slot, and the loop head
pops the smaller of the slot and the heap top with ``heappushpop``, so an
event that is already the earliest one skips the heap without changing the
pop order.  Per event, only counters that carry information are updated;
the redundant ``ReplayOutput`` fields (translations, refills, the bus and
DRAM request splits, walk totals, DRAM latency, the event count) are exact
functions of the kept ones once the run has drained, and are derived at
write-back — :func:`replay_fabric` lists the identities.

Demand faults are serviced inline, mirroring ``MMU._fault`` and
:class:`~repro.os.fault_handler.DemandPagingHandler` event for event: the
fault queues at the faulting space's real handler, and after the interrupt
latency the handler's own ``_resolve`` fixes the page table, allocates the
frame, touches the shared TLB from the host and counts the OS statistics;
after the service time the walk retries.  Only fatal outcomes — an unmapped
page, out of memory, a full fault queue, exhausted retries — raise
:class:`ReplayFault`, and the caller falls back to the event tier, which
models the aborted thread.

Adaptive multi-process schedules are replayed one slice at a time: an
``OP_HOOK`` op after a slice's fence calls back into the caller (the shared
epoch planner), which closes the slice, replans and returns the next slice's
ops to append.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim.engine import SimulationError
from ..vm.types import AccessType, FaultType, PageFault

__all__ = ["ReplayFault", "ReplaySpace", "ReplayContext", "ReplayOutput",
           "replay_fabric"]

# Program op codes (first element of a program tuple).
OP_COMPUTE = 0     # (0, cycles)
OP_MEM = 1         # (1, chunks, total_bytes)  chunks: [(vaddr, size, is_write)]
OP_FENCE = 2       # (2,)
OP_YIELD = 3       # (3,)
OP_SWITCH = 4      # (4, process_index)
OP_HOOK = 5        # (5,)  slice boundary: ReplayContext.on_slice appends ops

# Event codes (third element of a heap tuple).
_EV_ADVANCE = 0        # thread fetches/dispatches the next program op
_EV_TRANSLATED = 1     # TLB-hit latency elapsed -> memif issue()
_EV_BUS_ISSUE = 2      # memif issue latency elapsed -> bus submit
_EV_BUS_FORWARD = 3    # bus occupancy elapsed -> DRAM access + next grant
_EV_DRAM_DONE = 4      # DRAM transaction complete -> route to requester
_EV_WALK_STEP = 5      # walker per-level overhead elapsed -> next level
_EV_FAULT_SERVICE = 6  # fault handler takes the next queued fault
_EV_FAULT_DONE = 7     # fault service time elapsed -> MMU retries the walk

# Bus/DRAM payload routing (first element of a request payload).
_REQ_DATA = 0
_REQ_WALK = 1


class ReplayFault(RuntimeError):
    """The replayed stream hit a fatal fault; the event tier models the abort."""


@dataclass(frozen=True)
class ReplaySpace:
    """Per-process translation state the engine switches between."""

    asid: int
    page_table: object            # real repro.vm.pagetable.PageTable
    page_size: int
    vpn_limit: int                # 1 << vpn_bits
    pte_bytes: int
    expected_levels: int
    #: The space's real :class:`~repro.os.fault_handler.DemandPagingHandler`
    #: (None: every fault is fatal to the replay).
    fault_handler: object = None


@dataclass
class _Acc:
    """Mirror of :class:`repro.sim.stats.Accumulator` content."""

    count: int = 0
    total: int = 0
    minimum: Optional[int] = None
    maximum: Optional[int] = None

    def add(self, sample: int) -> None:
        self.count += 1
        self.total += sample
        if self.minimum is None or sample < self.minimum:
            self.minimum = sample
        if self.maximum is None or sample > self.maximum:
            self.maximum = sample


@dataclass
class ReplayContext:
    """Everything the engine needs about the synthesized system."""

    spaces: List[ReplaySpace]
    tlb: object                   # real repro.vm.tlb.TLB (possibly pre-warmed)
    # Thread / memif timing.
    max_outstanding: int
    start_latency: int
    issue_latency: int
    # MMU / walker timing.
    hit_latency: int
    prefetch_depth: int
    per_level_overhead: int
    # Bus.
    bus_width_bytes: int
    address_phase_cycles: int
    bus_max_inflight: int
    walker_master: int            # bus master index of the walker port
    memif_master: int             # bus master index of the thread's memif port
    # DRAM.
    dram_num_banks: int
    dram_row_bytes: int
    dram_row_hit: int
    dram_row_miss: int
    dram_controller: int
    dram_bytes_per_cycle: int
    dram_write_penalty: int
    # Context switching (multi-process programs only).
    flush_on_switch: bool = False
    #: Returns the switch stall in cycles; the caller wires this to the real
    #: ``HostKernel.cost_context_switch`` so software overhead is charged
    #: identically to the event tier.
    on_switch_cost: Optional[Callable[[], int]] = None
    max_cycles: Optional[int] = None
    initial_space: int = 0
    #: ``MMUConfig.max_fault_retries``: walks a faulting access may retry.
    max_fault_retries: int = 3
    #: Who faults (``PageFault.thread``) and the absolute simulator cycle of
    #: micro-time 0 (``PageFault.cycle`` and ``on_slice`` report absolute
    #: cycles).
    thread_name: str = "?"
    launch_cycle: int = 0
    #: Called at every ``OP_HOOK`` with the absolute cycle and the live MMU/
    #: walker telemetry counters (``tlb_hits``, ``tlb_misses``,
    #: ``tlb_refills``, ``walker_cycles``); returns the ops to append to the
    #: program (none: the program ends there).  The engine edits a program
    #: with hooks in place, dropping the ops it has already fetched.
    on_slice: Optional[Callable[[int, Dict[str, int]], List[tuple]]] = None


@dataclass
class ReplayOutput:
    """Counters and timing of one replayed fabric execution.

    All cycle values are relative to the fabric launch (micro-time 0).
    ``finish`` is the thread-completion cycle; ``last_cycle`` is the final
    event (stray prefetch walks may outlive the thread).
    """

    finish: int
    last_cycle: int
    events: int
    # mmu.*
    translations: int = 0
    tlb_hits: int = 0
    tlb_misses: int = 0
    tlb_refills: int = 0
    prefetch_hits: int = 0
    prefetches_issued: int = 0
    prefetches_dropped: int = 0
    prefetch_fills: int = 0
    context_switches: int = 0
    mmu_flushes: int = 0
    miss_latency: _Acc = field(default_factory=_Acc)
    faults: int = 0
    #: ``FaultType.value`` -> count (the MMU's ``faults.<type>`` counters).
    fault_types: Dict[str, int] = field(default_factory=dict)
    fault_service_latency: _Acc = field(default_factory=_Acc)
    # ptw.*
    walks_requested: int = 0
    levels_fetched: int = 0
    walks_completed: int = 0
    walks_faulted: int = 0
    walk_cycles: int = 0
    queue_wait: _Acc = field(default_factory=_Acc)
    walk_latency: _Acc = field(default_factory=_Acc)
    # thread / memif
    compute_cycles: int = 0
    mem_ops: int = 0
    mem_bytes: int = 0
    stall_cycles: _Acc = field(default_factory=_Acc)
    memif_ops: int = 0
    memif_bytes: int = 0
    transactions: int = 0
    # bus / dram
    bus_requests: int = 0
    bus_busy_cycles: int = 0
    bus_requests_walker: int = 0
    bus_requests_memif: int = 0
    bus_contended_grants: int = 0
    bus_queue_wait: _Acc = field(default_factory=_Acc)
    bus_latency_walker: _Acc = field(default_factory=_Acc)
    bus_latency_memif: _Acc = field(default_factory=_Acc)
    dram_latency: _Acc = field(default_factory=_Acc)
    dram_row_hits: int = 0
    dram_row_misses: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    dram_bytes_read: int = 0
    dram_bytes_written: int = 0


_HUGE = 1 << 62


def _make_acc(count: int, total: int, minimum: int, maximum: int) -> _Acc:
    """Freeze a localized (count, total, min, max) quad into an :class:`_Acc`."""
    acc = _Acc()
    if count:
        acc.count = count
        acc.total = total
        acc.minimum = minimum
        acc.maximum = maximum
    return acc


def replay_fabric(program: List[tuple], ctx: ReplayContext) -> ReplayOutput:
    """Execute a replay program; returns exact counters and completion cycles.

    The heavy lifting is one dispatch loop over integer-coded events, fed
    by a ``heapq`` plus a one-slot "next event" register ``nxt`` in front of
    it.  The slot is empty whenever a handler starts; the hot scheduling
    sites (bus grants, forward -> DRAM done, DRAM done -> walk step,
    translated -> bus issue, compute advance) store their event there when
    it is free and push onto the heap otherwise.  The loop head takes
    ``heappushpop(heap, nxt)`` — the smaller ``(cycle, seq)`` of the slot and
    the heap top — so the pop order is exactly that of a plain heap, and an
    event that is already the earliest one never touches the heap at all.

    Mutable scalars live in enclosing-scope cells; the hot TLB probe/refill
    path is inlined against the real TLB's set structures with semantics
    identical to ``TLB.lookup``/``TLB.insert``.  Hot counters accumulate in
    plain locals and are written back to ``out`` once at the end; the
    per-chunk hit path (probe → translated → bus → DRAM → completion) runs
    entirely inside the dispatch branches without a single helper call.

    Only counters that carry information are kept during the run.  The
    engine returns only after the heap has drained and the thread has
    retired every op (every other exit raises), so these ``ReplayOutput``
    fields are exact functions of the kept ones and are computed once at
    write-back:

    * ``tlb_hits`` / ``tlb_misses`` (MMU) — TLB lookup hits / misses, minus
      the host's own lookups during fault service (``host_touch``), with
      write-protection hits moved from hits to misses; ``translations`` is
      their sum (a fault's retry walk makes no second lookup).
    * ``tlb_refills`` — the ``miss_latency`` sample count (a faulting walk
      refills only once its retry succeeds); ``faults`` — the sum of
      ``fault_types``.
    * ``walks_requested`` / ``walks_completed`` / ``walk_cycles`` and the
      ``queue_wait`` count — the ``walk_latency`` count / count / total /
      count (retry walks are requested and complete like any other).
    * ``levels_fetched`` / ``bus_requests_walker`` — the walker-port
      ``bus_latency_walker`` count; ``transactions`` /
      ``bus_requests_memif`` — the memif-port ``bus_latency_memif`` count;
      ``bus_requests`` and the ``bus_queue_wait`` count — their sum (a
      faulting chunk issues its one transaction after the retry).
    * ``memif_ops`` / ``memif_bytes`` — ``mem_ops`` / ``mem_bytes``.
    * ``dram_row_misses`` / ``dram_reads`` — bus requests minus
      ``dram_row_hits`` / ``dram_writes``.
    * ``dram_latency`` — the merge of the two bus-latency accumulators (the
      DRAM resets each request's issue cycle, so both sample the same DRAM
      service latency).
    * ``events`` — the number of events scheduled.

    Host lookups are the one thing outside the fabric that touches the TLB
    mid-run: fault service hands the inlined TLB state (tick, hit/miss/
    eviction counts) to the real object before calling the handler's
    ``_resolve`` and reloads it after, booking the host's hits and misses
    apart from the MMU's.
    """
    out = ReplayOutput(finish=-1, last_cycle=0, events=0)

    for sp in ctx.spaces:
        if sp.page_size <= 0 or sp.page_size & (sp.page_size - 1):
            raise ReplayFault(
                f"page size {sp.page_size} is not a power of two; the replay "
                "fast path assumes shift/mask page arithmetic")

    heap: List[tuple] = []
    push = heapq.heappush
    pop = heapq.heappop
    pushpop = heapq.heappushpop
    seq = 0
    now = 0
    limit = ctx.max_cycles if ctx.max_cycles is not None else _HUGE

    # ----- thread state -------------------------------------------------
    pc = 0
    nops = len(program)                # re-read after every OP_HOOK
    on_slice = ctx.on_slice
    launch_cycle = ctx.launch_cycle
    outstanding = 0
    waiting_slot = False
    waiting_fence = False
    stalled_chunks: Optional[list] = None
    stall_started = 0
    exhausted = False
    finish = -1
    max_outstanding = ctx.max_outstanding
    issue_latency = ctx.issue_latency
    hit_latency = ctx.hit_latency

    # ----- per-space translation state ---------------------------------
    spaces = ctx.spaces
    space = spaces[ctx.initial_space]
    cur_asid = space.asid
    cur_page_size = space.page_size
    cur_shift = cur_page_size.bit_length() - 1
    cur_mask = cur_page_size - 1
    cur_vpn_limit = space.vpn_limit

    # ----- TLB state, inlined against the real object -------------------
    tlb = ctx.tlb
    tlb_cfg = tlb.config
    tlb_sets = tlb._sets
    num_sets = tlb_cfg.num_sets
    ways = tlb_cfg.ways
    policy = tlb_cfg.replacement      # "lru" | "fifo" | "random"
    is_lru = policy == "lru"
    rng = tlb._rng
    tick = tlb._tick
    tlb_hits = tlb.hits
    tlb_misses = tlb.misses
    tlb_evictions = tlb.evictions
    hits_before = tlb_hits
    misses_before = tlb_misses
    c_host_hits = 0                   # host_touch lookups during fault service
    c_host_misses = 0
    from ..vm.tlb import TLBEntry

    # ----- prefetcher state (mirrors MMU) -------------------------------
    prefetch_depth = ctx.prefetch_depth
    recent_misses: deque = deque(maxlen=8)
    prefetch_score = 16               # MMU.PREFETCH_SCORE_INIT
    prefetches_inflight: set = set()

    # ----- walker state -------------------------------------------------
    walk_queue: deque = deque()
    walker_busy = False
    per_level_overhead = ctx.per_level_overhead
    # Only fault service changes a page table during a replay, so per-vpn
    # walk addresses and leaf PTEs memoize; a serviced fault drops its vpn.
    wa_cache: Dict[tuple, list] = {}
    pte_cache: Dict[tuple, object] = {}
    _missing = object()

    # ----- fault handler state (mirrors DemandPagingHandler) ------------
    # One queue serves every space: a context switch waits for a drained
    # fabric, so two processes' handlers are never busy at once (OP_SWITCH
    # checks it and raises ReplayFault otherwise).
    fault_queue: deque = deque()      # (fault, walk request, fault_started)
    fault_busy = False
    max_fault_retries = ctx.max_fault_retries

    # ----- bus state ----------------------------------------------------
    walker_master = ctx.walker_master
    memif_master = ctx.memif_master
    bus_queue_w: deque = deque()      # walker-port queue
    bus_queue_m: deque = deque()      # memif-port queue
    inflight_w = 0
    inflight_m = 0
    bus_busy = False
    bus_last = -1                     # RoundRobinArbiter._last_granted
    bus_max_inflight = ctx.bus_max_inflight
    bus_width = ctx.bus_width_bytes
    addr_phase = ctx.address_phase_cycles

    # ----- DRAM state ---------------------------------------------------
    num_banks = ctx.dram_num_banks
    row_bytes = ctx.dram_row_bytes
    row_span = row_bytes * num_banks
    row_hit_lat = ctx.dram_row_hit
    row_miss_lat = ctx.dram_row_miss
    controller = ctx.dram_controller
    dram_bpc = ctx.dram_bytes_per_cycle
    write_penalty = ctx.dram_write_penalty
    open_rows: List[Optional[int]] = [None] * num_banks
    bank_free = [0] * num_banks
    data_bus_free = 0

    # ----- localized hot counters (written back to ``out`` at the end) --
    c_write_upgrades = 0              # TLB hits without write permission
    c_mem_ops = 0
    c_mem_bytes = 0
    c_compute = 0
    c_busy = 0
    c_contended = 0
    c_row_hits = 0
    c_writes = 0
    c_bytes_r = 0
    c_bytes_w = 0
    c_walks_faulted = 0
    # Accumulator quads (count, total, min, max); the write-back derives the
    # counts left out here (see the docstring).
    qw_tot, qw_min, qw_max = 0, _HUGE, -1                   # bus queue wait
    blw_cnt, blw_tot, blw_min, blw_max = 0, 0, _HUGE, -1    # bus latency (walker)
    blm_cnt, blm_tot, blm_min, blm_max = 0, 0, _HUGE, -1    # bus latency (memif)
    st_cnt, st_tot, st_min, st_max = 0, 0, _HUGE, -1        # thread stall
    wq_tot, wq_min, wq_max = 0, _HUGE, -1                   # walker queue wait
    wl_cnt, wl_tot, wl_min, wl_max = 0, 0, _HUGE, -1        # walk latency
    ml_cnt, ml_tot, ml_min, ml_max = 0, 0, _HUGE, -1        # mmu miss latency

    # One-slot "next event" register in front of ``heap`` (see docstring).
    nxt: Optional[tuple] = None

    # ------------------------------------------------------------- helpers
    def bus_grant() -> None:
        nonlocal bus_busy, bus_last, inflight_w, inflight_m, seq, nxt
        nonlocal c_busy, c_contended, qw_tot, qw_min, qw_max
        cand_w = bool(bus_queue_w) and inflight_w < bus_max_inflight
        cand_m = bool(bus_queue_m) and inflight_m < bus_max_inflight
        if not (cand_w or cand_m):
            bus_busy = False
            return
        bus_busy = True
        # RoundRobinArbiter.choose over ascending candidate indices: first
        # index greater than the last grant, else wrap to the lowest.
        if cand_w and cand_m:
            lo, hi = ((walker_master, memif_master)
                      if walker_master < memif_master
                      else (memif_master, walker_master))
            chosen = lo if (bus_last < lo or bus_last >= hi) else hi
        elif cand_w:
            chosen = walker_master
        else:
            chosen = memif_master
        bus_last = chosen
        if chosen == walker_master:
            payload, issued = bus_queue_w.popleft()
            inflight_w += 1
        else:
            payload, issued = bus_queue_m.popleft()
            inflight_m += 1
        wait = now - issued
        qw_tot += wait
        if wait < qw_min:
            qw_min = wait
        if wait > qw_max:
            qw_max = wait
        if wait > 0:
            c_contended += 1
        beats = (payload[2] + bus_width - 1) // bus_width
        if beats < 1:
            beats = 1
        occupancy = addr_phase + beats
        c_busy += occupancy
        ev = (now + occupancy, seq, 3, (chosen, payload))   # BUS_FORWARD
        if nxt is None:
            nxt = ev
        else:
            push(heap, ev)
        seq += 1

    # Walk request tuples: demand -> (0, vpn, space, issue_payload, started,
    # issued_at, retries_left); prefetch -> (1, vpn, space, (key, stride), 0,
    # issued_at, 0).
    def walker_walk(request: tuple) -> None:
        walk_queue.append(request)
        if not walker_busy:
            walker_start_next()

    def walker_start_next() -> None:
        nonlocal walker_busy, wq_tot, wq_min, wq_max
        if not walk_queue:
            walker_busy = False
            return
        walker_busy = True
        request = walk_queue.popleft()
        wait = now - request[5]
        wq_tot += wait
        if wait < wq_min:
            wq_min = wait
        if wait > wq_max:
            wq_max = wait
        wa_key = (request[2].asid, request[1])
        addresses = wa_cache.get(wa_key)
        if addresses is None:
            addresses = request[2].page_table.walk_addresses(request[1])
            wa_cache[wa_key] = addresses
        walk_do(request, addresses, 0, now)

    def walk_do(request: tuple, addresses: list, level: int,
                started_at: int) -> None:
        if level >= len(addresses):
            walk_finish(request, addresses, started_at)
            return
        # Walker-port bus submit, inlined.
        bus_queue_w.append(((_REQ_WALK, addresses[level],
                             request[2].pte_bytes, False, request, addresses,
                             level, started_at), now))
        if not bus_busy:
            bus_grant()

    def walk_finish(request: tuple, addresses: list, started_at: int) -> None:
        nonlocal tick, tlb_evictions, seq, c_walks_faulted
        nonlocal wl_cnt, wl_tot, wl_min, wl_max, ml_cnt, ml_tot, ml_min, ml_max
        req_space = request[2]
        vpn = request[1]
        if len(addresses) == req_space.expected_levels:
            pte_key = (req_space.asid, vpn)
            entry = pte_cache.get(pte_key, _missing)
            if entry is _missing:
                entry = req_space.page_table.entry(vpn)
                pte_cache[pte_key] = entry
        else:
            entry = None
        wc = now - started_at
        wl_cnt += 1
        wl_tot += wc
        if wc < wl_min:
            wl_min = wc
        if wc > wl_max:
            wl_max = wc
        if entry is None:
            # Prefetch probe beyond the mapped range: the walker records the
            # faulted walk; the MMU will just drop the prefetch.
            c_walks_faulted += 1

        if request[0] == _REQ_DATA:       # demand walk
            if (entry is None or not entry.present
                    or (request[3][2] and not entry.writable)):
                demand_fault(request, entry)
                walker_start_next()
                return
            # TLB.insert under the *currently active* ASID (mirrors the MMU,
            # which tags demand refills with its active page table).
            key = (cur_asid, vpn)
            tlb_set = tlb_sets[vpn % num_sets]
            resident = tlb_set.get(key)
            if resident is not None:
                resident.frame = entry.frame
                resident.writable = entry.writable
                resident.prefetched = False
            else:
                if len(tlb_set) >= ways:
                    tlb_evictions += 1
                    if policy == "lru":
                        tlb_set.popitem(last=False)
                    elif policy == "fifo":
                        victim = min(tlb_set,
                                     key=lambda v: tlb_set[v].inserted_at)
                        del tlb_set[victim]
                    else:
                        del tlb_set[rng.choice(list(tlb_set))]
                tick += 1
                tlb_set[key] = TLBEntry(vpn=vpn, frame=entry.frame,
                                        writable=entry.writable,
                                        asid=cur_asid, inserted_at=tick,
                                        last_used=tick)
            entry.accessed = True
            issue_payload = request[3]    # (offset, size, is_write, chunks, i)
            if issue_payload[2]:
                entry.dirty = True
            miss = now - request[4]
            ml_cnt += 1
            ml_tot += miss
            if miss < ml_min:
                ml_min = miss
            if miss > ml_max:
                ml_max = miss
            paddr = entry.frame * req_space.page_size + issue_payload[0]
            push(heap, (now + issue_latency, seq, 2,      # BUS_ISSUE
                        (_REQ_DATA, paddr, issue_payload[1], issue_payload[2],
                         issue_payload[3], issue_payload[4])))
            seq += 1
        else:                             # prefetch walk
            key, stride = request[3]
            prefetches_inflight.discard(key)
            if entry is None or not entry.present:
                out.prefetches_dropped += 1
            else:
                entry.accessed = True
                # TLB.insert(prefetched=True) + stride tag, inlined.
                tlb_set = tlb_sets[vpn % num_sets]
                resident = tlb_set.get(key)
                if resident is not None:
                    resident.frame = entry.frame
                    resident.writable = entry.writable
                    # entry.prefetched and True -> unchanged
                    resident.prefetch_stride = stride
                else:
                    if len(tlb_set) >= ways:
                        tlb_evictions += 1
                        if policy == "lru":
                            tlb_set.popitem(last=False)
                        elif policy == "fifo":
                            victim = min(tlb_set,
                                         key=lambda v: tlb_set[v].inserted_at)
                            del tlb_set[victim]
                        else:
                            del tlb_set[rng.choice(list(tlb_set))]
                    tick += 1
                    installed = TLBEntry(vpn=vpn, frame=entry.frame,
                                         writable=entry.writable, asid=key[0],
                                         inserted_at=tick, last_used=tick,
                                         prefetched=True)
                    installed.prefetch_stride = stride
                    tlb_set[key] = installed
                out.prefetch_fills += 1
        walker_start_next()

    def maybe_prefetch(vpn: int, stride: int) -> None:
        nonlocal prefetch_score
        if prefetch_depth <= 0 or prefetch_score < 8:   # SCORE_GATE
            return
        asid = cur_asid
        limit = cur_vpn_limit
        space_now = space
        for ahead in range(1, prefetch_depth + 1):
            target = vpn + stride * ahead
            if not 0 <= target < limit:
                continue
            key = (asid, target)
            if key in tlb_sets[target % num_sets] or key in prefetches_inflight:
                continue
            prefetches_inflight.add(key)
            prefetch_score -= 1
            out.prefetches_issued += 1
            walker_walk((_REQ_WALK, target, space_now, (key, stride), 0, now,
                         0))

    def translate(vaddr: int, size: int, is_write: bool, chunks: list,
                  index: int) -> None:
        """Mirror of ``MMU.translate`` + the memif issue that follows a hit.

        The dispatch loop inlines the clean-hit fast path and only calls in
        here for misses, prefetched hits, write-protection upgrades, and the
        cold issue sites (stall release); the two implementations must stay
        semantically identical.
        """
        nonlocal tick, tlb_hits, tlb_misses, prefetch_score, seq
        nonlocal c_write_upgrades
        vpn = vaddr >> cur_shift
        # TLB.lookup, inlined.
        tick += 1
        tlb_set = tlb_sets[vpn % num_sets]
        key = (cur_asid, vpn)
        entry = tlb_set.get(key)
        if entry is not None:
            tlb_hits += 1
            entry.last_used = tick
            if is_lru:
                tlb_set.move_to_end(key)
            if is_write and not entry.writable:
                # A TLB hit the MMU treats as a miss (write upgrade).
                c_write_upgrades += 1
                entry = None
        else:
            tlb_misses += 1
        if entry is not None:
            if entry.prefetched:
                entry.prefetched = False
                out.prefetch_hits += 1
                prefetch_score = min(31, prefetch_score + 4)  # MAX, HIT_BONUS
                maybe_prefetch(vpn, entry.prefetch_stride)
            push(heap, (now + hit_latency, seq, 1,            # TRANSLATED
                        (_REQ_DATA,
                         (entry.frame << cur_shift) | (vaddr & cur_mask),
                         size, is_write, chunks, index)))
            seq += 1
            return
        walker_walk((_REQ_DATA, vpn, space,
                     (vaddr & cur_mask, size, is_write, chunks, index),
                     now, now, max_fault_retries))
        # _miss_stride: continue the closest recent stream, else next-page.
        stride = 1
        for recent in reversed(recent_misses):
            delta = vpn - recent
            if delta != 0 and -3 <= delta <= 3:     # MAX_PREFETCH_STRIDE
                stride = delta
                break
        recent_misses.append(vpn)
        maybe_prefetch(vpn, stride)

    # --------------------------------------------------------- fault path
    def demand_fault(request: tuple, entry) -> None:
        """``MMU._fault`` + ``DemandPagingHandler.handle_fault``."""
        nonlocal fault_busy, seq
        req_space = request[2]
        vpn = request[1]
        issue_payload = request[3]
        if entry is None:
            fault_type = FaultType.NOT_MAPPED
        elif not entry.present:
            fault_type = FaultType.NOT_PRESENT
        else:
            fault_type = FaultType.PROTECTION
        handler = req_space.fault_handler
        if (fault_type is FaultType.NOT_MAPPED or handler is None
                or request[6] <= 0):     # unmapped, unhandled, out of retries
            raise ReplayFault(
                f"fatal {fault_type.value} fault on vpn {vpn:#x} (asid "
                f"{req_space.asid}, retries left {request[6]}); the event "
                "tier models the aborted thread")
        out.fault_types[fault_type.value] = (
            out.fault_types.get(fault_type.value, 0) + 1)
        fault = PageFault(
            vaddr=vpn * req_space.page_size + issue_payload[0],
            access=AccessType.WRITE if issue_payload[2] else AccessType.READ,
            fault_type=fault_type, thread=ctx.thread_name,
            cycle=launch_cycle + now)
        handler.count("faults_received")
        handler.fault_log.append(fault)
        config = handler.config
        if len(fault_queue) >= config.max_queue_depth:
            raise ReplayFault(f"fault queue overflow on vpn {vpn:#x} (asid "
                              f"{req_space.asid})")
        fault_queue.append((fault, request, now))
        if not fault_busy:
            fault_busy = True
            push(heap, (now + config.interrupt_latency, seq, 6, None))
            seq += 1

    def fault_service() -> None:
        """``DemandPagingHandler._service_next`` around the real ``_resolve``."""
        nonlocal fault_busy, seq, tick, tlb_hits, tlb_misses, tlb_evictions
        nonlocal c_host_hits, c_host_misses
        if not fault_queue:
            fault_busy = False
            return
        fault, request, fault_started = fault_queue.popleft()
        handler = request[2].fault_handler
        # _resolve's host_touch probes the TLB through the real object.
        tlb._tick = tick
        tlb.hits = tlb_hits
        tlb.misses = tlb_misses
        tlb.evictions = tlb_evictions
        resolved, extra = handler._resolve(fault)
        tick = tlb._tick
        tlb_evictions = tlb.evictions
        c_host_hits += tlb.hits - tlb_hits
        c_host_misses += tlb.misses - tlb_misses
        tlb_hits = tlb.hits
        tlb_misses = tlb.misses
        if not resolved:
            raise ReplayFault(
                f"unresolvable {fault.fault_type.value} fault at "
                f"{fault.vaddr:#x}; the event tier models the aborted thread")
        cache_key = (request[2].asid, request[1])
        wa_cache.pop(cache_key, None)
        pte_cache.pop(cache_key, None)
        push(heap, (now + handler.config.service_cycles + extra, seq, 7,
                    (request, fault_started, now)))
        seq += 1

    def fault_done(payload: tuple) -> None:
        """The handler's ``finish`` + the MMU's ``resume(True)``."""
        nonlocal seq
        request, fault_started, started = payload
        handler = request[2].fault_handler
        handler.sample("service_latency", now - started)
        handler.count("faults_resolved")
        out.fault_service_latency.add(now - fault_started)
        walker_walk((_REQ_DATA, request[1], request[2], request[3],
                     request[4], now, request[6] - 1))
        push(heap, (now, seq, 6, None))          # schedule(0, _service_next)
        seq += 1

    # ------------------------------------------------------------ main loop
    nxt = (ctx.start_latency, seq, 0, None)                   # ADVANCE
    seq += 1

    while True:
        if nxt is not None:
            # The slot holds an event: pop the smaller of it and the heap top.
            now_, _, code, payload = pushpop(heap, nxt) if heap else nxt
            nxt = None
        elif heap:
            now_, _, code, payload = pop(heap)
        else:
            break
        if now_ > limit:
            raise SimulationError(
                f"simulation exceeded max_cycles={ctx.max_cycles} "
                f"(next event at {now_})")
        now = now_

        if code == 1:                   # _EV_TRANSLATED
            # Hit latency elapsed -> memif.issue(): one transaction.  The
            # payload is already in BUS_ISSUE form; the slot is empty at
            # the start of every handler.
            nxt = (now + issue_latency, seq, 2, payload)
            seq += 1
        elif code == 4:                 # _EV_DRAM_DONE
            master, request = payload
            if master == walker_master:
                inflight_w -= 1
            else:
                inflight_m -= 1
            if request[0] == _REQ_DATA:
                chunks = request[4]
                index = request[5] + 1
                if index < len(chunks):
                    # Next chunk of a multi-chunk op: inline clean-hit probe.
                    vaddr, size, is_write = chunks[index]
                    vpn = vaddr >> cur_shift
                    key = (cur_asid, vpn)
                    tlb_set = tlb_sets[vpn % num_sets]
                    entry = tlb_set.get(key)
                    if (entry is not None and not entry.prefetched
                            and (not is_write or entry.writable)):
                        tick += 1
                        tlb_hits += 1
                        entry.last_used = tick
                        if is_lru:
                            tlb_set.move_to_end(key)
                        push(heap, (now + hit_latency, seq, 1,
                                    (_REQ_DATA,
                                     (entry.frame << cur_shift)
                                     | (vaddr & cur_mask),
                                     size, is_write, chunks, index)))
                        seq += 1
                    else:
                        translate(vaddr, size, is_write, chunks, index)
                else:
                    # Operation retired -> hardware thread _on_mem_done.
                    outstanding -= 1
                    if waiting_slot:
                        waiting_slot = False
                        stall = now - stall_started
                        st_cnt += 1
                        st_tot += stall
                        if stall < st_min:
                            st_min = stall
                        if stall > st_max:
                            st_max = stall
                        outstanding += 1
                        vaddr, size, is_write = stalled_chunks[0]
                        vpn = vaddr >> cur_shift
                        key = (cur_asid, vpn)
                        tlb_set = tlb_sets[vpn % num_sets]
                        entry = tlb_set.get(key)
                        if (entry is not None and not entry.prefetched
                                and (not is_write or entry.writable)):
                            tick += 1
                            tlb_hits += 1
                            entry.last_used = tick
                            if is_lru:
                                tlb_set.move_to_end(key)
                            push(heap, (now + hit_latency, seq, 1,
                                        (_REQ_DATA,
                                         (entry.frame << cur_shift)
                                         | (vaddr & cur_mask),
                                         size, is_write, stalled_chunks, 0)))
                            seq += 1
                        else:
                            translate(vaddr, size, is_write, stalled_chunks, 0)
                        push(heap, (now, seq, 0, None))       # ADVANCE
                        seq += 1
                    elif waiting_fence and outstanding == 0:
                        waiting_fence = False
                        push(heap, (now, seq, 0, None))       # ADVANCE
                        seq += 1
                    elif exhausted and outstanding == 0 and finish < 0:
                        finish = now
            else:
                nxt = (now + per_level_overhead, seq, 5,      # WALK_STEP
                       (request[4], request[5], request[6] + 1, request[7]))
                seq += 1
            if not bus_busy:
                # Bus grant, inlined (see ``bus_grant`` for the commented
                # form; repeated at each hot call site to avoid call costs).
                cand_w = bus_queue_w and inflight_w < bus_max_inflight
                cand_m = bus_queue_m and inflight_m < bus_max_inflight
                if cand_w or cand_m:
                    bus_busy = True
                    if cand_w and cand_m:
                        lo, hi = ((walker_master, memif_master)
                                  if walker_master < memif_master
                                  else (memif_master, walker_master))
                        chosen = lo if (bus_last < lo or bus_last >= hi) else hi
                    elif cand_w:
                        chosen = walker_master
                    else:
                        chosen = memif_master
                    bus_last = chosen
                    if chosen == walker_master:
                        gpayload, issued = bus_queue_w.popleft()
                        inflight_w += 1
                    else:
                        gpayload, issued = bus_queue_m.popleft()
                        inflight_m += 1
                    wait = now - issued
                    qw_tot += wait
                    if wait < qw_min:
                        qw_min = wait
                    if wait > qw_max:
                        qw_max = wait
                    if wait > 0:
                        c_contended += 1
                    beats = (gpayload[2] + bus_width - 1) // bus_width
                    if beats < 1:
                        beats = 1
                    occupancy = addr_phase + beats
                    c_busy += occupancy
                    ev = (now + occupancy, seq, 3, (chosen, gpayload))
                    if nxt is None:
                        nxt = ev
                    else:
                        push(heap, ev)
                    seq += 1
        elif code == 2:                 # _EV_BUS_ISSUE (memif-port submit)
            bus_queue_m.append((payload, now))
            if not bus_busy:
                # Bus grant, inlined.
                cand_w = bus_queue_w and inflight_w < bus_max_inflight
                cand_m = inflight_m < bus_max_inflight
                if cand_w or cand_m:
                    bus_busy = True
                    if cand_w and cand_m:
                        lo, hi = ((walker_master, memif_master)
                                  if walker_master < memif_master
                                  else (memif_master, walker_master))
                        chosen = lo if (bus_last < lo or bus_last >= hi) else hi
                    elif cand_w:
                        chosen = walker_master
                    else:
                        chosen = memif_master
                    bus_last = chosen
                    if chosen == walker_master:
                        gpayload, issued = bus_queue_w.popleft()
                        inflight_w += 1
                    else:
                        gpayload, issued = bus_queue_m.popleft()
                        inflight_m += 1
                    wait = now - issued
                    qw_tot += wait
                    if wait < qw_min:
                        qw_min = wait
                    if wait > qw_max:
                        qw_max = wait
                    if wait > 0:
                        c_contended += 1
                    beats = (gpayload[2] + bus_width - 1) // bus_width
                    if beats < 1:
                        beats = 1
                    occupancy = addr_phase + beats
                    c_busy += occupancy
                    nxt = (now + occupancy, seq, 3, (chosen, gpayload))
                    seq += 1
        elif code == 3:                 # _EV_BUS_FORWARD -> DRAM access
            master, request = payload
            addr = request[1]
            size = request[2]
            bank = (addr // row_bytes) % num_banks
            start = now + controller
            free_at = bank_free[bank]
            if free_at > start:
                start = free_at
            row = addr // row_span
            if open_rows[bank] == row:
                latency = row_hit_lat
                c_row_hits += 1
            else:
                latency = row_miss_lat
                open_rows[bank] = row
            transfer = (size + dram_bpc - 1) // dram_bpc
            if transfer < 1:
                transfer = 1
            data_start = start + latency
            if data_bus_free > data_start:
                data_start = data_bus_free
            finish_at = data_start + transfer
            if request[3]:
                finish_at += write_penalty
                c_writes += 1
                c_bytes_w += size
            else:
                c_bytes_r += size
            bank_free[bank] = finish_at
            data_bus_free = data_start + transfer
            # The DRAM resets the request's issue cycle, so the bus's
            # ``latency_for`` sample equals the DRAM service latency; it is
            # taken here, where the completion cycle is known.
            service = finish_at - now
            if master == walker_master:
                blw_cnt += 1
                blw_tot += service
                if service < blw_min:
                    blw_min = service
                if service > blw_max:
                    blw_max = service
            else:
                blm_cnt += 1
                blm_tot += service
                if service < blm_min:
                    blm_min = service
                if service > blm_max:
                    blm_max = service
            nxt = (finish_at, seq, 4, payload)               # DRAM_DONE
            seq += 1
            # Bus grant, inlined (the occupancy window just ended, so the
            # bus idles unless a queued request can be granted now).  The
            # slot is taken by the DRAM completion.
            cand_w = bus_queue_w and inflight_w < bus_max_inflight
            cand_m = bus_queue_m and inflight_m < bus_max_inflight
            if not (cand_w or cand_m):
                bus_busy = False
            else:
                bus_busy = True
                if cand_w and cand_m:
                    lo, hi = ((walker_master, memif_master)
                              if walker_master < memif_master
                              else (memif_master, walker_master))
                    chosen = lo if (bus_last < lo or bus_last >= hi) else hi
                elif cand_w:
                    chosen = walker_master
                else:
                    chosen = memif_master
                bus_last = chosen
                if chosen == walker_master:
                    gpayload, issued = bus_queue_w.popleft()
                    inflight_w += 1
                else:
                    gpayload, issued = bus_queue_m.popleft()
                    inflight_m += 1
                wait = now - issued
                qw_tot += wait
                if wait < qw_min:
                    qw_min = wait
                if wait > qw_max:
                    qw_max = wait
                if wait > 0:
                    c_contended += 1
                beats = (gpayload[2] + bus_width - 1) // bus_width
                if beats < 1:
                    beats = 1
                occupancy = addr_phase + beats
                c_busy += occupancy
                push(heap, (now + occupancy, seq, 3, (chosen, gpayload)))
                seq += 1
        elif code == 0:                 # _EV_ADVANCE
            while True:
                if pc >= nops:
                    exhausted = True
                    if outstanding == 0 and finish < 0:
                        finish = now
                    break
                op = program[pc]
                pc += 1
                kind = op[0]
                if kind == OP_MEM:
                    c_mem_ops += 1
                    c_mem_bytes += op[2]
                    if outstanding >= max_outstanding:
                        waiting_slot = True
                        stalled_chunks = op[1]
                        stall_started = now
                        break
                    outstanding += 1
                    chunks = op[1]
                    vaddr, size, is_write = chunks[0]
                    # Inline clean-hit probe (misses and prefetched hits take
                    # the full translate path).
                    vpn = vaddr >> cur_shift
                    key = (cur_asid, vpn)
                    tlb_set = tlb_sets[vpn % num_sets]
                    entry = tlb_set.get(key)
                    if (entry is not None and not entry.prefetched
                            and (not is_write or entry.writable)):
                        tick += 1
                        tlb_hits += 1
                        entry.last_used = tick
                        if is_lru:
                            tlb_set.move_to_end(key)
                        push(heap, (now + hit_latency, seq, 1,
                                    (_REQ_DATA,
                                     (entry.frame << cur_shift)
                                     | (vaddr & cur_mask),
                                     size, is_write, chunks, 0)))
                        seq += 1
                    else:
                        translate(vaddr, size, is_write, chunks, 0)
                    if ((heap and heap[0][0] == now)
                            or (nxt is not None and nxt[0] == now)):
                        # Another event fires this cycle before the thread's
                        # zero-delay advance would pop; defer via the heap to
                        # preserve the event order.
                        push(heap, (now, seq, 0, None))       # ADVANCE
                        seq += 1
                        break
                    continue
                if kind == OP_COMPUTE:
                    c_compute += op[1]
                    ev = (now + op[1], seq, 0, None)
                    if nxt is None:
                        nxt = ev
                    else:
                        push(heap, ev)
                    seq += 1
                    break
                if kind == OP_FENCE:
                    if outstanding == 0:
                        if ((heap and heap[0][0] == now)
                                or (nxt is not None and nxt[0] == now)):
                            push(heap, (now, seq, 0, None))
                            seq += 1
                            break
                        continue
                    waiting_fence = True
                    break
                if kind == OP_YIELD:
                    push(heap, (now + 1, seq, 0, None))
                    seq += 1
                    break
                if kind == OP_HOOK:
                    # Where the event tier's kernel generator resumes after
                    # a slice's Fence: the telemetry reads the MMU/walker
                    # counters as the event tier's stat groups hold them.
                    # Fetched ops are dead; drop them before appending.
                    del program[:pc]
                    pc = 0
                    program.extend(on_slice(launch_cycle + now, {
                        "tlb_hits": (tlb_hits - hits_before
                                     - c_write_upgrades - c_host_hits),
                        "tlb_misses": (tlb_misses - misses_before
                                       + c_write_upgrades - c_host_misses),
                        "tlb_refills": ml_cnt,
                        "walker_cycles": wl_tot}))
                    nops = len(program)
                    continue
                # OP_SWITCH: runs inside this advance, like the generator's
                # switch hook; a positive stall behaves as a Compute op.
                if fault_queue or fault_busy:
                    # The one fault queue stands in for every space's
                    # handler only while a switch finds it drained.
                    raise ReplayFault(
                        "context switch with a demand fault in flight; "
                        "replay serves every space from one fault queue")
                space = spaces[op[1]]
                if ctx.flush_on_switch:
                    for tlb_set in tlb_sets:
                        tlb_set.clear()
                    tlb.flushes += 1
                    out.mmu_flushes += 1
                cur_asid = space.asid
                cur_page_size = space.page_size
                cur_shift = cur_page_size.bit_length() - 1
                cur_mask = cur_page_size - 1
                cur_vpn_limit = space.vpn_limit
                recent_misses.clear()
                prefetch_score = 16
                out.context_switches += 1
                stall = ctx.on_switch_cost() if ctx.on_switch_cost else 0
                if stall > 0:
                    c_compute += stall
                    push(heap, (now + stall, seq, 0, None))
                    seq += 1
                    break
                # zero-stall switch: fall through to the next program op
        elif code == 5:   # _EV_WALK_STEP (per-level overhead; walk_do inlined)
            request, addresses, level, started_at = payload
            if level >= len(addresses):
                walk_finish(request, addresses, started_at)
            else:
                bus_queue_w.append(((_REQ_WALK, addresses[level],
                                     request[2].pte_bytes, False, request,
                                     addresses, level, started_at), now))
                if not bus_busy:
                    # Bus grant, inlined (walker queue is non-empty).
                    cand_w = inflight_w < bus_max_inflight
                    cand_m = bus_queue_m and inflight_m < bus_max_inflight
                    if cand_w or cand_m:
                        bus_busy = True
                        if cand_w and cand_m:
                            lo, hi = ((walker_master, memif_master)
                                      if walker_master < memif_master
                                      else (memif_master, walker_master))
                            chosen = (lo if (bus_last < lo or bus_last >= hi)
                                      else hi)
                        elif cand_w:
                            chosen = walker_master
                        else:
                            chosen = memif_master
                        bus_last = chosen
                        if chosen == walker_master:
                            gpayload, issued = bus_queue_w.popleft()
                            inflight_w += 1
                        else:
                            gpayload, issued = bus_queue_m.popleft()
                            inflight_m += 1
                        wait = now - issued
                        qw_tot += wait
                        if wait < qw_min:
                            qw_min = wait
                        if wait > qw_max:
                            qw_max = wait
                        if wait > 0:
                            c_contended += 1
                        beats = (gpayload[2] + bus_width - 1) // bus_width
                        if beats < 1:
                            beats = 1
                        occupancy = addr_phase + beats
                        c_busy += occupancy
                        nxt = (now + occupancy, seq, 3, (chosen, gpayload))
                        seq += 1
        elif code == 6:                 # _EV_FAULT_SERVICE
            fault_service()
        else:                           # _EV_FAULT_DONE
            fault_done(payload)

    if finish < 0:
        raise SimulationError(
            "replay quiesced without completing the thread "
            f"(outstanding={outstanding}, pc={pc}/{nops})")

    # Write the inlined TLB state back to the real object.
    tlb._tick = tick
    tlb.hits = tlb_hits
    tlb.misses = tlb_misses
    tlb.evictions = tlb_evictions

    # Fold the localized counters back into the output record, deriving the
    # redundant ones (identities in the docstring).
    bus_requests = blw_cnt + blm_cnt
    out.tlb_hits = tlb_hits - hits_before - c_write_upgrades - c_host_hits
    out.tlb_misses = (tlb_misses - misses_before + c_write_upgrades
                      - c_host_misses)
    out.translations = out.tlb_hits + out.tlb_misses
    out.tlb_refills = ml_cnt
    out.faults = sum(out.fault_types.values())
    out.transactions = blm_cnt
    out.mem_ops = out.memif_ops = c_mem_ops
    out.mem_bytes = out.memif_bytes = c_mem_bytes
    out.compute_cycles = c_compute
    out.bus_requests = bus_requests
    out.bus_requests_walker = blw_cnt
    out.bus_requests_memif = blm_cnt
    out.bus_busy_cycles = c_busy
    out.bus_contended_grants = c_contended
    out.dram_row_hits = c_row_hits
    out.dram_row_misses = bus_requests - c_row_hits
    out.dram_reads = bus_requests - c_writes
    out.dram_writes = c_writes
    out.dram_bytes_read = c_bytes_r
    out.dram_bytes_written = c_bytes_w
    out.walks_requested = wl_cnt
    out.levels_fetched = blw_cnt
    out.walks_completed = wl_cnt
    out.walks_faulted = c_walks_faulted
    out.walk_cycles = wl_tot
    out.bus_queue_wait = _make_acc(bus_requests, qw_tot, qw_min, qw_max)
    out.bus_latency_walker = _make_acc(blw_cnt, blw_tot, blw_min, blw_max)
    out.bus_latency_memif = _make_acc(blm_cnt, blm_tot, blm_min, blm_max)
    out.dram_latency = _make_acc(bus_requests, blw_tot + blm_tot,
                                 min(blw_min, blm_min), max(blw_max, blm_max))
    out.stall_cycles = _make_acc(st_cnt, st_tot, st_min, st_max)
    out.queue_wait = _make_acc(wl_cnt, wq_tot, wq_min, wq_max)
    out.walk_latency = _make_acc(wl_cnt, wl_tot, wl_min, wl_max)
    out.miss_latency = _make_acc(ml_cnt, ml_tot, ml_min, ml_max)

    out.finish = finish
    out.last_cycle = now
    out.events = seq
    # The helpers reach one another through closure cells: a reference
    # cycle that would keep the context — through ``on_slice`` the whole
    # platform — alive until a full garbage collection.  Break it.
    bus_grant = walker_walk = walker_start_next = walk_do = None
    walk_finish = maybe_prefetch = translate = None
    demand_fault = fault_service = fault_done = None
    return out

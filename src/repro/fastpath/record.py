"""Building (and caching) replay programs from kernel op streams.

A *replay program* is the engine-facing form of a kernel: a list of small
tuples (see :mod:`repro.fastpath.engine`) with every memory operation already
split into page/burst-bounded chunks — the work
:meth:`repro.hwthread.memif.MemoryInterface._split` would do per run happens
once here, in :func:`lower_ops`.  Static programs (one workload, one static
slice plan) are cached; the slices of an adaptive schedule are lowered as
the run reaches them and never cached.  Lowering is pure Python, so the
replay tier needs no NumPy.

Programs are content-keyed alongside :class:`repro.exec.cache.MemoCache`'s
philosophy: the key is :func:`repro.exec.keys.stable_key` over the workload
spec and the two parameters the chunking depends on (page size, max burst),
so a spec's stream is lowered exactly once per workload *shape* no matter
how many sweep points replay it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Sequence, Tuple

from ..exec.keys import stable_key
from ..sim.process import Access, Burst, Compute, Fence, Operation, Yield
from ..sim.recorder import UnrecordableOperation
from .engine import OP_COMPUTE, OP_FENCE, OP_MEM, OP_SWITCH, OP_YIELD

#: Cache capacity (programs; a default-scale program is a few hundred KB).
_CACHE_CAPACITY = 64

#: stable_key -> replay program.  LRU-evicted at capacity.
_programs: "OrderedDict[str, list]" = OrderedDict()

#: Monotonic counters exposed for runner/bench reporting.
record_stats = {"records": 0, "reuses": 0}


def clear_program_cache() -> None:
    """Drop every cached program (tests and memory pressure)."""
    _programs.clear()


def split_chunks(addr: int, size: int, is_write: bool, page_size: int,
                 limit: int) -> List[Tuple[int, int, bool]]:
    """Split ``[addr, addr+size)`` at page and max-burst boundaries.

    Byte-identical to ``MemoryInterface._split`` (``limit`` is the
    pre-clamped ``min(max_burst_bytes, page_size)``).
    """
    chunks: List[Tuple[int, int, bool]] = []
    remaining = size
    cursor = addr
    while remaining > 0:
        page_left = page_size - (cursor % page_size)
        chunk = min(remaining, page_left, limit)
        chunks.append((cursor, chunk, is_write))
        cursor += chunk
        remaining -= chunk
    return chunks


def lower_ops(ops: Iterable[Operation], page_size: int,
              max_burst_bytes: int) -> list:
    """Lower operations (a kernel generator or a list) into engine op tuples.

    A memory op that fits one chunk — within the burst limit, not crossing
    a page — becomes one chunk directly; the rest go through
    :func:`split_chunks`.  A ``Burst`` is lowered by its total footprint,
    exactly as the memory interface chunks it.
    """
    limit = min(max_burst_bytes, page_size)
    program: list = []
    append = program.append
    for op in ops:
        if isinstance(op, (Access, Burst)):
            addr = op.addr
            size = op.total_bytes if isinstance(op, Burst) else op.size
            write = op.is_write
            if 0 < size <= limit and (addr % page_size) + size <= page_size:
                append((OP_MEM, [(addr, size, write)], size))
            else:
                append((OP_MEM, split_chunks(addr, size, write, page_size,
                                             limit), size))
        elif isinstance(op, Compute):
            append((OP_COMPUTE, op.cycles))
        elif isinstance(op, Fence):
            append((OP_FENCE,))
        elif isinstance(op, Yield):
            append((OP_YIELD,))
        else:
            raise UnrecordableOperation(
                f"cannot lower operation {op!r}; supported kinds are "
                "Compute/Access/Burst/Fence/Yield")
    return program


def _cache_put(key: str, program: list) -> None:
    if len(_programs) >= _CACHE_CAPACITY:
        _programs.popitem(last=False)
    _programs[key] = program


def program_for_workload(spec, bound, page_size: int,
                         max_burst_bytes: int) -> list:
    """The replay program of one bound single-process workload.

    ``spec`` must fully determine the op stream given the page size (binding
    a workload spec into a fresh address space is deterministic), so the
    cache key never needs the space itself.
    """
    key = stable_key("fastpath-svm", spec, page_size, max_burst_bytes)
    hit = _programs.get(key)
    if hit is not None:
        _programs.move_to_end(key)
        record_stats["reuses"] += 1
        return hit
    record_stats["records"] += 1
    program = lower_ops(bound.make_kernel(), page_size, max_burst_bytes)
    _cache_put(key, program)
    return program


def program_for_plan(mp, plan: Sequence[Tuple[int, List[Operation]]],
                     page_size: int, max_burst_bytes: int,
                     initial_process: int = 0) -> list:
    """The replay program of a static multi-process slice plan.

    Mirrors :func:`repro.workloads.multiprocess.time_sliced_kernel`: a
    process boundary becomes ``Fence`` + an ``OP_SWITCH`` marker (the engine
    performs the MMU re-point and charges the context-switch stall when it
    reaches the marker, exactly when the generator's switch hook would run).
    """
    key = stable_key("fastpath-mp", mp, page_size, max_burst_bytes,
                     initial_process)
    hit = _programs.get(key)
    if hit is not None:
        _programs.move_to_end(key)
        record_stats["reuses"] += 1
        return hit
    record_stats["records"] += 1
    program: list = []
    current = initial_process
    for process, ops in plan:
        if process != current:
            program += [(OP_FENCE,), (OP_SWITCH, process)]
            current = process
        program += lower_ops(ops, page_size, max_burst_bytes)
    _cache_put(key, program)
    return program

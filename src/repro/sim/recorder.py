"""Op-stream recording: the *record* half of the two-tier execution seam.

A :class:`TraceRecorder` captures the operation stream a kernel generator
produces — op kind, virtual address, byte count, write flag, issue-gap
(compute) cycles — as compact NumPy arrays.  A recorded stream is the whole
timing-free content of a kernel: the hardware thread model consumes the
operations in program order, so the same stream drives any timing model
(the event-driven simulator, or the :mod:`repro.fastpath` replay engine,
which lowers kernels straight into its own program form without this
module).  Recordings serve to compare streams.

Two capture modes exist:

* **functional** (:meth:`TraceRecorder.capture`): drain a kernel generator
  directly, without building a simulation.
* **live** (:meth:`MemoryInterface.attach_recorder
  <repro.hwthread.memif.MemoryInterface>`): the memory interface feeds every
  submitted operation to an attached recorder during an event-tier run, so a
  stream can be captured from a real simulation and compared against the
  functional recording (the memory interface sees exactly the memory
  operations, in program order, so the live recording must equal the
  functional recording's ``KIND_MEM`` rows — a test pins this).

NumPy is an optional dependency of this module, imported only when a
stream is frozen or compared: importing the module costs nothing, and
without NumPy recording is unavailable (:data:`HAVE_NUMPY` is False).
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from typing import Iterable, List, Tuple

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

from .process import Access, Burst, Compute, Fence, Operation, Yield

#: Recorded op kinds (column values of :attr:`RecordedStream.kinds`).
KIND_COMPUTE = 0
KIND_MEM = 1
KIND_FENCE = 2
KIND_YIELD = 3


class UnrecordableOperation(TypeError):
    """A kernel yielded an operation the recorder cannot represent."""


@dataclass(frozen=True)
class RecordedStream:
    """One kernel's operation stream as parallel NumPy columns.

    ``kinds[i]`` selects the row's meaning: for ``KIND_MEM`` rows ``addrs``/
    ``sizes``/``writes`` describe the virtual byte range touched (a ``Burst``
    is recorded by its total footprint — the memory interface re-derives the
    page/burst chunking, so the two encodings are equivalent); for
    ``KIND_COMPUTE`` rows ``cycles`` holds the issue gap.  Fence/yield rows
    carry no payload.
    """

    kinds: "object"     # np.ndarray[int8]
    addrs: "object"     # np.ndarray[int64]
    sizes: "object"     # np.ndarray[int64]
    writes: "object"    # np.ndarray[bool]
    cycles: "object"    # np.ndarray[int64]

    @property
    def num_ops(self) -> int:
        return int(len(self.kinds))

    @property
    def nbytes(self) -> int:
        """Storage footprint of the recording (compactness metric)."""
        return sum(int(col.nbytes) for col in
                   (self.kinds, self.addrs, self.sizes, self.writes,
                    self.cycles))

    def columns(self) -> Tuple[List[int], List[int], List[int], List[bool],
                               List[int]]:
        """The stream as plain lists (what a replay loop iterates)."""
        return (self.kinds.tolist(), self.addrs.tolist(),
                self.sizes.tolist(), self.writes.tolist(),
                self.cycles.tolist())


class TraceRecorder:
    """Accumulates one thread's operation stream and freezes it to arrays."""

    def __init__(self) -> None:
        self._kinds: List[int] = []
        self._addrs: List[int] = []
        self._sizes: List[int] = []
        self._writes: List[bool] = []
        self._cycles: List[int] = []

    # ------------------------------------------------------------- recording
    def on_op(self, op: Operation) -> None:
        """Record one operation (the live memif hook and capture both land here)."""
        if isinstance(op, Burst):
            self._append(KIND_MEM, op.addr, op.total_bytes, op.is_write, 0)
        elif isinstance(op, Access):
            self._append(KIND_MEM, op.addr, op.size, op.is_write, 0)
        elif isinstance(op, Compute):
            self._append(KIND_COMPUTE, 0, 0, False, op.cycles)
        elif isinstance(op, Fence):
            self._append(KIND_FENCE, 0, 0, False, 0)
        elif isinstance(op, Yield):
            self._append(KIND_YIELD, 0, 0, False, 0)
        else:
            raise UnrecordableOperation(
                f"cannot record operation {op!r}; recordable kinds are "
                "Compute/Access/Burst/Fence/Yield")

    def _append(self, kind: int, addr: int, size: int, write: bool,
                cycles: int) -> None:
        self._kinds.append(kind)
        self._addrs.append(addr)
        self._sizes.append(size)
        self._writes.append(write)
        self._cycles.append(cycles)

    def __len__(self) -> int:
        return len(self._kinds)

    # -------------------------------------------------------------- freezing
    def finish(self) -> RecordedStream:
        """Freeze the accumulated operations into a :class:`RecordedStream`."""
        if not HAVE_NUMPY:
            raise RuntimeError("recording requires numpy")
        import numpy as _np
        return RecordedStream(
            kinds=_np.asarray(self._kinds, dtype=_np.int8),
            addrs=_np.asarray(self._addrs, dtype=_np.int64),
            sizes=_np.asarray(self._sizes, dtype=_np.int64),
            writes=_np.asarray(self._writes, dtype=bool),
            cycles=_np.asarray(self._cycles, dtype=_np.int64))

    @classmethod
    def capture(cls, ops: Iterable[Operation]) -> RecordedStream:
        """Functionally record an operation iterable (kernel generator or list)."""
        recorder = cls()
        for op in ops:
            recorder.on_op(op)
        return recorder.finish()


def stream_equal(a: RecordedStream, b: RecordedStream) -> bool:
    """True when two recordings describe the identical op stream."""
    if not HAVE_NUMPY:
        raise RuntimeError("stream comparison requires numpy")
    import numpy as _np
    return (a.num_ops == b.num_ops
            and bool(_np.array_equal(a.kinds, b.kinds))
            and bool(_np.array_equal(a.addrs, b.addrs))
            and bool(_np.array_equal(a.sizes, b.sizes))
            and bool(_np.array_equal(a.writes, b.writes))
            and bool(_np.array_equal(a.cycles, b.cycles)))

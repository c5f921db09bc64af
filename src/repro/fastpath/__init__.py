"""Record/replay fast path: the second tier of two-tier execution.

The event tier (:mod:`repro.sim` + :mod:`repro.core.synthesis`) simulates
every memory operation through the full component graph.  This package
replays a kernel's operation stream, lowered once into a cached program
(:mod:`repro.fastpath.record`), through a flattened micro-simulator
(:mod:`repro.fastpath.engine`) that models the set-associative ASID-tagged
TLB, the radix page-table walker with per-level cycle accounting, the
stride prefetcher, and flush/context-switch semantics with event-graph
fidelity — same schedule calls, same order, identical counters — at a
fraction of the event tier's Python overhead.  Demand faults
are serviced inside the engine through the real OS fault handlers, and
adaptive scheduling policies replay slice by slice through the same epoch
planner the event tier drives, so faulting and adaptive contention runs
replay too; only a fatal fault sends a run back to the event tier.

Tier selection lives in the harness (``run_svm(..., tier=...)``) and the
experiment/CLI layers; this package only answers "can this run replay?"
(:func:`svm_replay_blockers` / :func:`mp_replay_blockers`) and "replay it"
(:func:`replay_svm` / :func:`replay_multiprocess`).
"""

from .engine import (ReplayContext, ReplayFault, ReplayOutput, ReplaySpace,
                     replay_fabric)
from .record import (clear_program_cache, lower_ops, program_for_plan,
                     program_for_workload, record_stats, split_chunks)
from .replay import (TierUnavailable, mp_replay_blockers, replay_multiprocess,
                     replay_svm, svm_replay_blockers)

__all__ = [
    "ReplayContext", "ReplayFault", "ReplayOutput", "ReplaySpace",
    "replay_fabric",
    "clear_program_cache", "lower_ops", "program_for_plan",
    "program_for_workload", "record_stats", "split_chunks",
    "TierUnavailable", "mp_replay_blockers", "replay_multiprocess",
    "replay_svm", "svm_replay_blockers",
]

"""Fleet workers: claim → lease → run → report.

A :class:`Worker` drains a :class:`~repro.dist.broker.Broker`: it claims one
job at a time, unpickles the ``(fn, item)`` payload, executes it (for
:class:`~repro.exec.jobs.ExperimentJob` payloads that is
:func:`~repro.exec.jobs.run_job`, which picks the execution tier via the
model's ``tier="auto"`` path exactly as the in-process runner does), stores
the result in the shared fleet memo store, and reports completion.  While a
job runs, a daemon heartbeat thread extends the lease so long jobs are not
re-leased out from under a healthy worker; a worker that dies simply stops
heartbeating and the broker re-leases its job after expiry.

Failure classification:

* the payload cannot be unpickled → **transient** (this worker's
  environment lacks something — e.g. an execution model registered only in
  the submitting process; another worker may well succeed), retried with
  backoff,
* the job function raises → **permanent** (points are deterministic, so a
  retry would fail identically); the error string is recorded on the job.

``worker_main`` is the module-level process entry point — picklable, so
:class:`~repro.dist.runner.DistributedRunner` can spawn local workers with
``multiprocessing``, and the ``repro worker`` CLI wraps the same loop.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
import traceback
from typing import Any, Callable, NamedTuple, Optional, Union

from ..exec.cache import MemoCache
from .broker import Broker, ClaimedJob, connect_broker


class Executed(NamedTuple):
    """What one claimed job came to, as reported by :meth:`Worker.run_one`.

    ``recorded`` is True when this worker's ``complete`` stored the result,
    and ``value`` is then that result.  A failed job, or a completion that
    lost the idempotent race to another worker, reports False (and, for a
    failure, ``value`` None): the broker's row is the word on it.
    """

    claim: ClaimedJob
    value: Any
    recorded: bool


class Worker:
    """One claim-lease-run-report loop against a broker."""

    def __init__(self, broker: Broker, memo: Optional[MemoCache] = None,
                 worker_id: Optional[str] = None, *,
                 lease_seconds: Optional[float] = None,
                 heartbeat_interval: Optional[float] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.broker = broker
        self.memo = memo
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}")
        self.lease_seconds = (lease_seconds if lease_seconds is not None
                              else getattr(broker, "lease_seconds", 30.0))
        #: Heartbeat well inside the lease, so one missed beat never loses it.
        self.heartbeat_interval = (heartbeat_interval
                                   if heartbeat_interval is not None
                                   else max(self.lease_seconds / 3.0, 0.05))
        self.clock = clock
        self.jobs_run = 0
        self.failures = 0

    # ------------------------------------------------------------- one job
    def run_one(self) -> Optional[Executed]:
        """Claim and execute one job; None when the queue is idle."""
        claim = self.broker.claim(self.worker_id,
                                  lease_seconds=self.lease_seconds)
        if claim is None:
            return None
        return self._execute(claim)

    def _execute(self, claim: ClaimedJob) -> Executed:
        stop = threading.Event()
        beat = threading.Thread(target=self._heartbeat_loop,
                                args=(claim, stop), daemon=True)
        beat.start()
        try:
            try:
                fn, item = pickle.loads(claim.payload)
            except BaseException as exc:
                # This environment can't even decode the job (missing model
                # registration, version skew): let another worker try.
                self.failures += 1
                self.broker.fail(claim, error=_describe(exc), transient=True)
                return Executed(claim, None, False)
            try:
                value = fn(item)
            except Exception as exc:
                self.failures += 1
                self.broker.fail(claim, error=_describe(exc), transient=False)
                return Executed(claim, None, False)
        finally:
            stop.set()
            beat.join()
        if self.memo is not None:
            try:
                self.memo.put(claim.key, value)
            except Exception:
                pass            # the memo tier is best-effort, results aren't
        recorded = self.broker.complete(claim.key, value,
                                        worker=self.worker_id)
        self.jobs_run += 1
        return Executed(claim, value, bool(recorded))

    def _heartbeat_loop(self, claim: ClaimedJob,
                        stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                if not self.broker.heartbeat(claim,
                                             lease_seconds=self.lease_seconds):
                    # Lease lost (we stalled past expiry and the job was
                    # re-leased).  Finishing anyway is safe — completion is
                    # idempotent per key — so just stop beating.
                    return
            except Exception:
                return

    # ---------------------------------------------------------------- loop
    def run_until_idle(self, idle_grace: float = 0.0,
                       poll_interval: float = 0.05,
                       max_jobs: Optional[int] = None) -> int:
        """Drain the queue; returns the number of jobs executed.

        Exits once the queue has stayed idle for ``idle_grace`` seconds
        (0 = exit on the first empty poll) or after ``max_jobs`` jobs.
        """
        executed = 0
        idle_since: Optional[float] = None
        while max_jobs is None or executed < max_jobs:
            if self.run_one() is not None:
                executed += 1
                idle_since = None
                continue
            now = self.clock()
            if idle_since is None:
                idle_since = now
            if now - idle_since >= idle_grace:
                break
            time.sleep(poll_interval)
        return executed


def worker_main(broker_url: Union[str, os.PathLike],
                cache_dir: Optional[Union[str, os.PathLike]] = None,
                worker_id: Optional[str] = None,
                lease_seconds: Optional[float] = None,
                idle_grace: float = 0.0,
                poll_interval: float = 0.05,
                max_jobs: Optional[int] = None,
                cache_max_bytes: Optional[int] = None) -> int:
    """Process entry point: connect to the broker and drain it until idle.

    ``broker_url`` is anything :func:`~repro.dist.broker.connect_broker`
    accepts — a bare SQLite path, ``sqlite:///path``, or ``http://host:port``
    for a :class:`~repro.dist.http.BrokerServer` fleet.

    Importing :mod:`repro.models` (via the exec package) registers the
    built-in execution models, so freshly spawned workers can run any
    canonical :class:`~repro.exec.jobs.ExperimentJob`.
    """
    broker = connect_broker(broker_url, **(
        {} if lease_seconds is None else {"lease_seconds": lease_seconds}))
    memo = (MemoCache(path=cache_dir, max_bytes=cache_max_bytes)
            if cache_dir is not None else None)
    worker = Worker(broker, memo=memo, worker_id=worker_id,
                    lease_seconds=lease_seconds)
    try:
        return worker.run_until_idle(idle_grace=idle_grace,
                                     poll_interval=poll_interval,
                                     max_jobs=max_jobs)
    finally:
        broker.close()


def _describe(exc: BaseException) -> str:
    """Compact one-job error record: type, message, innermost frame."""
    tail = traceback.extract_tb(exc.__traceback__)
    where = f" at {tail[-1].filename}:{tail[-1].lineno}" if tail else ""
    return f"{type(exc).__name__}: {exc}{where}"

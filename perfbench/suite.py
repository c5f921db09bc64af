"""The benchmark's three workloads: inputs from a seed, timed passes, outputs.

Every workload is a closed loop with one caller: the next point starts only
after the previous one has returned, all in this process, with no worker
processes.  A *pass* is one fixed unit of work; a run repeats identical
passes until its time is used up, so every pass of a run measures the same
inputs.

* ``dse_contention`` -- budgeted successive-halving explorations of the
  fig14 space (adaptive-policy contention mixes, residency 0.5, host-shared
  TLB).  Runs the event tier and the OS telemetry loop; never the fastpath.
* ``replay_grid`` -- a fig5/fig11-class grid (six kernels x four TLB sizes
  x four SVM-family models) at default scale through ``run_job(tier=
  "auto")``.  Runs fastpath record and replay; barely touches the event
  tier.
* ``fleet_resweep`` -- a cold sweep and a re-sweep through in-process
  HTTP broker servers.  Runs key hashing, the memo cache, the results store
  (reads and writes) and the broker/wire path beside cheap simulations.

Nothing here edits or reaches into ``src/``: the workloads call the public
API only.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

WORKLOADS = ("dse_contention", "replay_grid", "fleet_resweep")


@dataclass
class Point:
    """One point delivered to the caller."""

    ident: Tuple[Any, ...]
    latency_s: float
    #: Exact simulated outputs the reference check compares.
    outputs: Tuple[Any, ...]
    #: When the point completed, in seconds since its pass started.
    done_s: float = 0.0


#: The speed probe: a fixed pure-Python loop of one to two milliseconds,
#: and its duration on the reference host (2-CPU container, Python 3.11.7;
#: the median over the 25 passes of ten runs per workload).  See
#: ``PassClock``.
PROBE_ITERATIONS = 20_000
PROBE_REFERENCE_S = 1.64e-3
#: Least workload time between two probes.
PROBE_SPACING_S = 5e-3
#: A point's latency is calibrated by the probes within this many seconds
#: of its completion.
PROBE_WINDOW_S = 1.0


def probe_unit() -> None:
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x + i * i) % 7


class PassClock:
    """Host time of one pass, with a speed probe run between points.

    The host this benchmark runs on is shared: how fast it executes Python
    changes by a third from one second to the next, whatever this process
    does.  ``probe()`` runs a fixed loop between two points and records how
    long it took; the probe's own time is left out of ``now()``, so point
    latencies and the pass time cover the workload only.  The mean probe
    time over a pass, against ``PROBE_REFERENCE_S``, is the host's speed
    during that pass (see ``PassResult.slowdown``).
    """

    def __init__(self) -> None:
        self._probes_s = 0.0
        #: ``(seconds since the pass started, probe duration)`` pairs.
        self.samples: List[Tuple[float, float]] = []
        self.started = self._last = self.now()

    def point(self, ident: Tuple[Any, ...], started: float,
              outputs: Tuple[Any, ...]) -> Point:
        """The point that started at ``started`` and has just completed."""
        done = self.now()
        return Point(ident=ident, latency_s=done - started, outputs=outputs,
                     done_s=done - self.started)

    def now(self) -> float:
        return time.perf_counter() - self._probes_s

    def probe(self) -> None:
        """Probe the host speed, unless the last probe was very recent.

        Points can arrive in bursts (a re-sweep streams its ledger hits at
        once); spacing the probes keeps them spread over the pass's time.
        """
        if self.now() - self._last < PROBE_SPACING_S:
            return
        at = self.now() - self.started
        started = time.perf_counter()
        probe_unit()
        spent = time.perf_counter() - started
        self.samples.append((at, spent))
        self._probes_s += spent
        self._last = self.now()

    def finish(self, points: List[Point], **extra: Any) -> "PassResult":
        return PassResult(wall_s=self.now() - self.started, points=points,
                          probe_s=self.samples, **extra)


@dataclass
class PassResult:
    """What one pass delivered and how long it took."""

    #: Host seconds of the pass, probes excluded.
    wall_s: float
    points: List[Point] = field(default_factory=list)
    #: ``(seconds since the pass started, duration)`` of each speed probe.
    probe_s: List[Tuple[float, float]] = field(default_factory=list)
    #: Workload-level outputs checked besides the points (the DSE fronts).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Workload-specific counts the traced report uses (ticket hits, ...).
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        """How much slower the host ran than the reference during the pass."""
        return _slowdown([spent for _, spent in self.probe_s])

    def calibrated_latency_s(self, point: Point) -> float:
        """A point's latency at the reference host speed.

        The host's speed drifts within a pass, so a point is calibrated by
        the probes around its completion; the pass's own slowdown is the
        fallback when none is near.
        """
        return point.latency_s / self._slowdown_near(point.done_s)

    @property
    def calibrated_wall_s(self) -> float:
        """``wall_s`` at the reference host speed.

        Each stretch of the pass between two probes is divided by the
        host's slowdown around it, so a slow second counts as slow even in
        an otherwise fast pass.
        """
        edges = ([0.0] + [at for at, _ in self.probe_s] + [self.wall_s])
        return sum((end - start) / self._slowdown_near((start + end) / 2)
                   for start, end in zip(edges, edges[1:]))

    def _slowdown_near(self, at: float) -> float:
        near = [spent for t, spent in self.probe_s
                if abs(t - at) <= PROBE_WINDOW_S]
        return _slowdown(near) if near else self.slowdown


def _slowdown(probes: List[float]) -> float:
    return (sum(probes) / len(probes)) / PROBE_REFERENCE_S


def host_slowdown() -> float:
    """How much slower than the reference the host runs right now, by five
    probes."""
    spent = []
    for _ in range(5):
        started = time.perf_counter()
        probe_unit()
        spent.append(time.perf_counter() - started)
    return _slowdown(spent)


def outcome_outputs(outcome) -> Tuple[int, int, int]:
    """The exact simulated outputs of a RunOutcome the check pins."""
    return (outcome.total_cycles, outcome.tlb_misses, outcome.faults)


# ---------------------------------------------------------------------------
# dse_contention
# ---------------------------------------------------------------------------
class DseContention:
    """Budgeted fig14 explorations, each under its own sampler seed.

    One exploration's work depends on the candidates its sampler draws
    (process count, quantum), so a pass pools ``explorations``
    independently seeded explorations and runs on different seeds measure
    comparable work.  Each exploration builds and samples the whole
    103,680-candidate space before it evaluates anything; explorations of
    36 evaluations keep that ``dse`` work a small share of the pass.
    """

    budget = 36

    def __init__(self, seed: int, explorations: int = 4):
        self.sampler_seeds = [seed * explorations + j
                              for j in range(explorations)]

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        import repro.eval.experiments as experiments

        evaluate = experiments._fig14_point
        clock = PassClock()
        points: List[Point] = []
        current: List[Any] = [None, 0]

        def timed_point(candidate, **kwargs):
            started = clock.now()
            values = evaluate(candidate, **kwargs)
            points.append(clock.point(
                (current[0], current[1]), started,
                (values["cycles"], values["tlb_misses"], values["faults"])))
            current[1] += 1
            clock.probe()
            return values

        fronts: Dict[str, Any] = {}
        # The point evaluator is looked up at call time by
        # fig14_adaptive_dse, so timing it needs no change to the program.
        experiments._fig14_point = timed_point
        try:
            for sampler_seed in self.sampler_seeds:
                current[:] = [sampler_seed, 0]
                result = experiments.fig14_adaptive_dse(
                    scale="tiny", budget=self.budget, seed=sampler_seed)
                fronts[str(sampler_seed)] = result["front"]
        finally:
            experiments._fig14_point = evaluate
        return clock.finish(points, extra={"fronts": fronts})


# ---------------------------------------------------------------------------
# replay_grid
# ---------------------------------------------------------------------------
REPLAY_KERNELS = ("vecadd", "matmul", "linked_list", "random_access",
                  "histogram", "spmv")
REPLAY_TLB_SIZES = (8, 16, 32, 64)
REPLAY_MODELS = ("svm", "svm-prefetch", "svm-shared-tlb", "svm-hugepage")


def replay_jobs(seed: int, kernels=REPLAY_KERNELS,
                models=REPLAY_MODELS) -> List[Tuple[Tuple, Any]]:
    """The grid's ``(ident, ExperimentJob)`` pairs for one seed.

    Each kernel gets its own WorkloadSpec seed drawn from ``seed``; the
    order keeps one kernel's points together, so a shape is recorded once
    and replayed for every TLB size of the models that share its page size.
    """
    from repro import HarnessConfig, workload
    from repro.exec import ExperimentJob

    rng = random.Random(seed)
    spec_seeds = {kernel: rng.randrange(1 << 31) for kernel in REPLAY_KERNELS}
    jobs = []
    for kernel in kernels:
        spec = workload(kernel, scale="default", seed=spec_seeds[kernel])
        for model in models:
            for entries in REPLAY_TLB_SIZES:
                jobs.append(((kernel, model, entries),
                             ExperimentJob(model, spec,
                                           HarnessConfig(tlb_entries=entries),
                                           tier="auto")))
    return jobs


class ReplayGrid:
    """A serial fig5/fig11-class grid, every point through ``run_job``."""

    def __init__(self, seed: int, kernels=REPLAY_KERNELS,
                 models=REPLAY_MODELS):
        self.jobs = replay_jobs(seed, kernels, models)

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        import repro.exec.jobs as jobs_module
        from repro.fastpath import clear_program_cache

        points: List[Point] = []
        clock = PassClock()
        # Recording is paid on every sweep a user runs, so it stays inside
        # the timed pass.
        clear_program_cache()
        for ident, job in self.jobs:
            started = clock.now()
            outcome = jobs_module.run_job(job)
            points.append(clock.point(ident, started,
                                      outcome_outputs(outcome)))
            clock.probe()
        return clock.finish(points)


# ---------------------------------------------------------------------------
# fleet_resweep
# ---------------------------------------------------------------------------
#: The fleet's tiny points: ``(name, kernel, size overrides, residency)``.
#: Their outputs depend on both the spec seed and the TLB size, and the
#: last one page-faults, so the output check tells the points apart.
FLEET_KERNELS = (
    ("random_access", "random_access",
     {"accesses": 128, "table_bytes": 256 * 1024}, 1.0),
    ("linked_list", "linked_list", {"nodes": 512, "node_bytes": 64}, 1.0),
    ("random_access_faulting", "random_access",
     {"accesses": 96, "table_bytes": 128 * 1024}, 0.9),
)
FLEET_TLB_SIZES = (4, 8, 16, 32, 64, 128)
#: Spec seeds per kernel x TLB size in the cold sweep, and how many more
#: the re-sweep adds.
FLEET_COLD_SEEDS = 8
FLEET_NEW_SEEDS = 3


def fleet_jobs(seed: int) -> List[Tuple[Tuple, Any]]:
    """The fleet's ``((name, TLB entries, seed offset), ExperimentJob)``
    pairs: the cold sweep's points first, then the ones the re-sweep adds."""
    from repro import HarnessConfig, workload
    from repro.exec import ExperimentJob

    rng = random.Random(seed)
    spec_seeds = [rng.randrange(1 << 31)
                  for _ in range(FLEET_COLD_SEEDS + FLEET_NEW_SEEDS)]
    return [((name, entries, offset),
             ExperimentJob("svm",
                           workload(kernel, scale="tiny", residency=residency,
                                    seed=spec_seed, **sizes),
                           HarnessConfig(tlb_entries=entries)))
            for offset, spec_seed in enumerate(spec_seeds)
            for name, kernel, sizes, residency in FLEET_KERNELS
            for entries in FLEET_TLB_SIZES]


class FleetResweep:
    """A cold sweep, then a re-sweep, through in-process HTTP brokers.

    Two broker servers (threads of this process), each over a fresh
    ``SQLiteBroker``, share one fleet memo cache (a directory) and one
    results store:

    * the cold sweep runs on server A in two halves, every point executed:
      the first from a runner whose drain worker shares the fleet memo
      directory (a worker on the server's host), the second from a runner
      with a private memo (a worker on another host).  Both runners record
      into the results store;
    * the re-sweep, from a fresh runner with a private memo, runs on server
      B, whose broker has seen no point (a broker started afresh).  It is
      the cold points plus new ones: the first half of the cold points
      resolve at enqueue from the fleet memo, the second half from the
      results store, and the new points execute.

    So a pass reads and writes the memo cache and the results store beside
    the broker.  Every pass gets fresh servers, brokers and stores, started
    before its timer: a broker that kept earlier passes' rows would make
    each pass slower than the last.
    """

    def __init__(self, seed: int, scratch: Path):
        self.jobs = fleet_jobs(seed)
        cold = (FLEET_COLD_SEEDS * len(FLEET_KERNELS)
                * len(FLEET_TLB_SIZES))
        self.cold = self.jobs[:cold]
        self.scratch = scratch
        self.tmp: Optional[Path] = None
        self.used = False

    def start(self) -> None:
        from repro.dist import BrokerServer, HTTPBroker, SQLiteBroker
        from repro.exec import MemoCache
        from repro.store import ResultsStore

        self.scratch.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.scratch))
        self.server_store = ResultsStore(self.tmp / "results.db",
                                         sha="perfbench")
        memo = MemoCache(path=self.tmp / "memo")
        self.servers = [
            BrokerServer(SQLiteBroker(self.tmp / f"broker-{name}.db"),
                         memo=memo, results=self.server_store).start()
            for name in "ab"]
        self.clients = [HTTPBroker(server.url) for server in self.servers]
        for client in self.clients:
            client.ping()
        self.store = ResultsStore(self.tmp / "results.db", sha="perfbench")
        self.used = False

    def close(self) -> None:
        if self.tmp is None:
            return
        for client, server in zip(self.clients, self.servers):
            client.close()
            server.close()
            server.broker.close()
        self.server_store.close()
        self.store.close()
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp = None

    def _sweep(self, client: Any, jobs: List[Tuple[Tuple, Any]], cache: Any,
               label: str, clock: PassClock, points: List[Point],
               counts: Dict[str, float]) -> None:
        import repro.exec.jobs as jobs_module
        from repro.dist import DistributedRunner

        runner = DistributedRunner(client, workers=0, drain=True,
                                   cache=cache, results=self.store)
        tickets: List[Any] = []
        create = client.create_sweep

        def create_sweep(*args, **kwargs):
            ticket = create(*args, **kwargs)
            tickets.append(ticket)
            return ticket

        # The ticket says how many points resolved at enqueue; catching it
        # on the instance leaves the client class untouched.
        client.create_sweep = create_sweep
        try:
            submitted = clock.now()
            for position, outcome in runner.map_stream(
                    jobs_module.run_job, [job for _, job in jobs],
                    label=label):
                points.append(clock.point((label,) + jobs[position][0],
                                          submitted,
                                          outcome_outputs(outcome)))
                clock.probe()
        finally:
            del client.create_sweep
        counts["enqueued"] = counts.get("enqueued", 0) + sum(
            t.total for t in tickets)
        counts["enqueue_hits"] = counts.get("enqueue_hits", 0) + sum(
            t.already_done for t in tickets)

    def run_pass(self) -> PassResult:
        from repro.exec import MemoCache

        if self.used:
            self.close()
            self.start()
        self.used = True
        points: List[Point] = []
        counts: Dict[str, float] = {}
        clock = PassClock()
        half = len(self.cold) // 2
        client_a, client_b = self.clients
        self._sweep(client_a, self.cold[:half],
                    MemoCache(path=self.tmp / "memo"), "cold", clock,
                    points, counts)
        self._sweep(client_a, self.cold[half:], MemoCache(), "cold", clock,
                    points, counts)
        self._sweep(client_b, self.jobs, MemoCache(), "resweep", clock,
                    points, counts)
        return clock.finish(points, counts=counts)

def make_workload(name: str, seed: int, scratch: Path) -> Any:
    """Generate the inputs of one workload from ``seed``."""
    if name == "dse_contention":
        return DseContention(seed)
    if name == "replay_grid":
        return ReplayGrid(seed)
    if name == "fleet_resweep":
        return FleetResweep(seed, scratch)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def run_passes(run_pass: Callable[[], PassResult],
               seconds: float) -> List[PassResult]:
    """Repeat identical passes until ``seconds`` of them have run (>= 1).

    Garbage is collected before each pass, outside its timer, so no pass
    pays for the one before it.
    """
    results: List[PassResult] = []
    spent = 0.0
    while not results or spent < seconds:
        gc.collect()
        result = run_pass()
        results.append(result)
        spent += result.wall_s
    return results

"""Attribution self-test: a 2x slowdown in one layer shows in that layer.

For each of three layers -- ``StatGroup.counter`` + ``Counter.inc``
(sim.stats), ``replay_fabric`` (fastpath) and the ``SQLiteBroker``
operations (dist) -- the test wraps the layer's public functions from
outside the program so that every call takes twice as long, then checks
that

1. the traced time of that layer roughly doubles (grows 1.5-5x: doing a
   ~100 ns leaf twice also adds a call frame, so it grows about 3x; the
   stats time is counted calls times the per-call cost timed bare, see
   ``perfbench.tracing``),
2. the pass time of the workload that runs the layer grows by about the
   time the tracer says the layer gained (between 1/4x and 4x of it), and
3. the pass time of a workload that bypasses the layer stays within 8%.

Plain and slowed passes alternate, and their times are taken at reference
host speed (see ``perfbench.suite.PassClock``).

Run from the repository root (it takes a few minutes)::

    python3 -m pytest perfbench/tests -q

``dse_contention`` and ``replay_grid`` are shrunk so the whole test stays
within a few minutes; the layers they exercise are the same.
"""

from __future__ import annotations

import functools
import gc
import shutil
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import suite, tracing  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "perfbench-test"

#: A bypassing workload may move by this share of its pass time: the
#: pass-to-pass noise of a shrunk workload on a shared host, not a leak.
FLAT = 0.08
#: Alternating (plain, slowed) pass pairs per workload.
PAIRS = 5


def _small(name: str):
    if name == "dse_contention":
        return suite.DseContention(seed=0, explorations=1)
    if name == "replay_grid":
        return suite.ReplayGrid(seed=0, kernels=("vecadd", "matmul",
                                                 "linked_list", "spmv"),
                                models=("svm", "svm-hugepage"))
    return suite.FleetResweep(seed=0, scratch=SCRATCH)


def _layer_time(work, layer: str) -> float:
    """Traced self time of ``layer`` over one pass of ``work``.

    ``sim.stats`` is counted calls times bare per-call costs, so it takes
    a counting pass (see :mod:`perfbench.tracing`).
    """
    counting = layer == "sim.stats"
    tracer = tracing.Tracer(count_hot=counting).install()
    try:
        gc.collect()
        work.run_pass()
    finally:
        tracer.uninstall()
    if counting:
        return sum(tracing.stats_s_by_layer(tracer).values())
    return tracer.self_s.get(layer, 0.0)


def _compare(name: str, case) -> dict:
    """Pass times and layer time of one workload without and with the
    slowdown, alternating so that both sides see the same host speed."""
    def slowed():
        patches = tracing.Patches()
        case["slow"](patches)
        return patches

    work = _small(name)
    work.start()
    try:
        work.run_pass()                    # warm imports and caches
        base_s, ratios = [], []
        for _ in range(PAIRS):
            gc.collect()
            base = work.run_pass().calibrated_wall_s
            patches = slowed()
            try:
                gc.collect()
                slow = work.run_pass().calibrated_wall_s
            finally:
                patches.undo()
            base_s.append(base)
            ratios.append(slow / base)
        base_layer = _layer_time(work, case["layer"])
        patches = slowed()
        try:
            slow_layer = _layer_time(work, case["layer"])
        finally:
            patches.undo()
    finally:
        work.close()
    return {"pass_s": statistics.median(base_s),
            "pass_ratio": statistics.median(ratios),
            "layer_s": base_layer, "slow_layer_s": slow_layer}


def _twice_by_waiting(fn):
    """Every call takes twice as long: run, then busy-wait as long again."""
    @functools.wraps(fn)
    def slowed(*args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        until = time.perf_counter() + (time.perf_counter() - started)
        while time.perf_counter() < until:
            pass
        return result
    return slowed


def _slow_stats(patches: tracing.Patches) -> None:
    """Double ``StatGroup.counter`` and ``Counter.inc`` by doing them twice.

    Both are far shorter than a clock read, so waiting cannot double them;
    a second lookup, and an ``inc(0)``, repeat the same work without
    changing any counter.
    """
    from repro.sim.stats import Counter, StatGroup

    def counter_twice(counter):
        def slowed(group, name):
            counter(group, name)
            return counter(group, name)
        return slowed

    def inc_twice(inc):
        def slowed(stat, amount=1):
            inc(stat, amount)
            inc(stat, 0)
        return slowed

    patches.method(StatGroup, "counter", counter_twice)
    patches.method(Counter, "inc", inc_twice)


def _slow_replay(patches: tracing.Patches) -> None:
    import repro.fastpath.engine as engine
    patches.function(engine, "replay_fabric", _twice_by_waiting)


def _slow_broker(patches: tracing.Patches) -> None:
    """Slow every broker operation the server runs, ``claim`` included.

    ``claim`` alone is about 1% of a fleet pass, below what a pass-time
    comparison can resolve here; the broker layer as a whole is about 10%.
    """
    from repro.dist.broker import SQLiteBroker
    for name in tracing.BROKER_METHODS:
        patches.method(SQLiteBroker, name, _twice_by_waiting)


CASES = {
    "sim.stats": dict(slow=_slow_stats, layer="sim.stats",
                      run="dse_contention", bypass=("replay_grid",)),
    "fastpath": dict(slow=_slow_replay, layer="fastpath.replay",
                     run="replay_grid", bypass=("dse_contention",)),
    "dist": dict(slow=_slow_broker, layer="dist.broker",
                 run="fleet_resweep",
                 bypass=("dse_contention", "replay_grid")),
}


@pytest.fixture(scope="module", autouse=True)
def _scratch():
    yield
    shutil.rmtree(SCRATCH, ignore_errors=True)


@pytest.mark.parametrize("layer", sorted(CASES))
def test_slowdown_is_attributed(layer):
    case = CASES[layer]
    run = _compare(case["run"], case)
    growth = run["slow_layer_s"] / run["layer_s"]
    # Doing a ~100 ns leaf's work twice also adds a call frame, so its time
    # grows by about 3x; the waiting slowdowns give 2x.
    assert 1.5 < growth < 5.0, (layer, run)
    # The pass grows by about what the tracer says the layer grew by.
    added = run["slow_layer_s"] - run["layer_s"]
    grew = (run["pass_ratio"] - 1.0) * run["pass_s"]
    assert 0.25 * added < grew < 4.0 * added, (layer, run)
    for name in case["bypass"]:
        bypass = _compare(name, case)
        assert abs(bypass["pass_ratio"] - 1.0) < FLAT, (layer, name, bypass)

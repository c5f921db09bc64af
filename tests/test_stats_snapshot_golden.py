"""Golden stats snapshots: the event tier's bookkeeping is order-exact.

``tests/golden/stats_snapshots_golden.json`` pins, for a handful of event-
tier runs, the full ``platform.snapshot()`` as an ordered list of
``[key, value]`` pairs.  Keys must appear in the same order (a statistic
enters its group's snapshot when first used) and every value must match
exactly, int vs float included.  Any hot-path rewrite of the simulator, its
components or the stats registry must leave all of it unchanged.  The
replay tier's write-back reproduces every value but not this key order
(its counters enter their groups at write-back), and nothing downstream
reads the order; the differential suite compares the two tiers by key.

The runs cover: one fig14 candidate at every fidelity-ladder rung, one
fig13-style adaptive contention mix, one faulting single thread at
residency 0.5, and a two-master bus run whose per-master outstanding limit
stalls queued requests.  Regenerate (only for an intentional change) with
``python -m pytest -q tests/test_stats_snapshot_golden.py --update-golden``.
"""

import json
from pathlib import Path

import pytest

from repro.core.platform import PlatformConfig
from repro.eval import experiments as exp
from repro.eval import harness
from repro.eval.harness import HarnessConfig, run_multiprocess, run_svm
from repro.mem.bus import BusConfig
from repro.workloads import workload
from repro.workloads.multiprocess import contention

GOLDEN_PATH = Path(__file__).parent / "golden" / "stats_snapshots_golden.json"

FIG14_CANDIDATE = {"tlb_entries": 16, "tlb_associativity": 2,
                   "max_outstanding": 2, "max_burst_bytes": 128,
                   "shared_walker": True, "tlb_prefetch": 2,
                   "policy": "host-aware", "processes": 3, "quantum": 5_000}


def _fig14(fraction: float):
    """Snapshot of the run behind one ``_fig14_point`` evaluation."""
    def run(monkeypatch):
        captured = []

        def spy(*args, **kwargs):
            # _fig14_point asks for tier="auto"; pin the event tier this
            # golden documents.
            result = run_multiprocess(*args, **dict(kwargs, tier="event"))
            captured.append(result.system_result.stats)
            return result

        monkeypatch.setattr(harness, "run_multiprocess", spy)
        exp._fig14_point(FIG14_CANDIDATE, scale="tiny", fraction=fraction)
        (stats,) = captured
        return stats
    return run


def _fig13_adaptive(monkeypatch):
    mp = contention(["random_access", "vecadd", "vecadd"], scale="tiny",
                    quantum=2_000, policy="miss-fair", residency=0.5)
    config = HarnessConfig(tlb_entries=32, host_shares_tlb=True)
    return run_multiprocess(mp, config).system_result.stats


def _faulting_thread(monkeypatch):
    spec = workload("random_access", scale="tiny", residency=0.5)
    return run_svm(spec, HarnessConfig(tlb_entries=16)).system_result.stats


def _stalled_bus(monkeypatch):
    # One outstanding request per master against a 4-deep thread window:
    # masters queue behind their own in-flight request while the bus idles.
    config = HarnessConfig(
        platform=PlatformConfig(bus=BusConfig(max_outstanding_per_master=1)),
        max_outstanding=4, tlb_entries=8)
    return run_svm(workload("vecadd", scale="tiny"), config,
                   num_threads=2).system_result.stats


RUNS = {
    "fig14_quarter": _fig14(0.25),
    "fig14_half": _fig14(0.5),
    "fig14_full": _fig14(1.0),
    "fig13_adaptive_mix": _fig13_adaptive,
    "faulting_thread_residency_0.5": _faulting_thread,
    "stalled_multi_master_bus": _stalled_bus,
}


def _pairs(snapshot):
    """Ordered ``[key, value]`` pairs, JSON round-tripped."""
    return json.loads(json.dumps([[key, value]
                                  for key, value in snapshot.items()]))


def _typed(pairs):
    return [(key, type(value).__name__, value) for key, value in pairs]


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-golden"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            data = {name: _pairs(run(monkeypatch))
                    for name, run in RUNS.items()}
        GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
        return data
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(RUNS))
def test_snapshot_keys_order_and_values_unchanged(name, golden, monkeypatch):
    assert _typed(_pairs(RUNS[name](monkeypatch))) == _typed(golden[name])


def test_golden_runs_exercise_the_paths_they_name(golden):
    snaps = {name: dict(pairs) for name, pairs in golden.items()}
    assert snaps["faulting_thread_residency_0.5"]["mmu.hwt0.faults"] > 0
    assert snaps["fig13_adaptive_mix"]["mmu.hwt0.context_switches"] > 0
    bus = snaps["stalled_multi_master_bus"]
    assert bus["bus.contended_grants"] > 0
    assert sum(1 for key in bus if key.startswith("bus.requests_from.")) >= 2

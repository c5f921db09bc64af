"""Differential tests across the execution-model registry.

Golden pins freeze absolute numbers for a handful of configurations; these
tests instead assert *cross-model orderings that must hold by construction*
on randomized small workloads — catching relative regressions (a variant
quietly losing its advantage, translation costs leaking into the ideal
model) that no absolute pin can see:

* ``ideal`` never loses: address translation only ever adds cycles, so every
  SVM-family model's runtime dominates the ideal accelerator's.
* ``svm-hugepage`` walks less: a single-level table cannot fetch more walker
  levels than the multi-level one, whatever the workload.
* ``svm-prefetch`` never increases demand TLB misses on pure streaming —
  the prefetcher may idle (accuracy throttle), but a correct one cannot make
  a sequential stream miss *more*.
* ``svm-shared-tlb`` degenerates exactly to ``svm`` when there is only one
  thread and one process (one sharer of the "shared" TLB).
* For N contending processes, flushing the TLB at every context switch
  (``svm`` semantics) can never miss less — or finish sooner — than ASID
  survival (``svm-shared-tlb`` semantics) on the identical slice plan.
"""

from hypothesis import given, settings, strategies as st

from repro.eval.harness import HarnessConfig, run_multiprocess
from repro.models import get_model
from repro.workloads import contention, workload

#: Per-kernel small-size overrides the randomized cases draw from.
SIZES = {
    "vecadd": ({"n": 256}, {"n": 1024}, {"n": 3072}),
    "saxpy": ({"n": 512}, {"n": 2048}),
    "linked_list": ({"nodes": 128, "node_bytes": 16},
                    {"nodes": 1024, "node_bytes": 16}),
    "random_access": ({"table_bytes": 64 * 1024, "accesses": 256},
                      {"table_bytes": 256 * 1024, "accesses": 1024}),
}

SVM_FAMILY = ("svm", "svm-prefetch", "svm-shared-tlb", "svm-hugepage")


def run_models(spec, models, config=None):
    config = config or HarnessConfig(tlb_entries=16)
    return {name: get_model(name).run(spec, config) for name in models}


@settings(max_examples=10, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       size_index=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16))
def test_ideal_is_a_lower_bound_for_every_svm_variant(kernel, size_index,
                                                      seed):
    overrides = SIZES[kernel][size_index % len(SIZES[kernel])]
    spec = workload(kernel, scale="tiny", seed=seed, **overrides)
    outcomes = run_models(spec, ("ideal",) + SVM_FAMILY)
    ideal = outcomes["ideal"]
    for name in SVM_FAMILY:
        assert outcomes[name].total_cycles >= ideal.total_cycles, name
        # The fabric portion alone already dominates (vm_overhead >= 1).
        assert outcomes[name].fabric_cycles >= ideal.fabric_cycles, name


@settings(max_examples=8, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       size_index=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16))
def test_hugepage_never_fetches_more_walker_levels(kernel, size_index, seed):
    overrides = SIZES[kernel][size_index % len(SIZES[kernel])]
    spec = workload(kernel, scale="tiny", seed=seed, **overrides)
    outcomes = run_models(spec, ("svm", "svm-hugepage"))
    assert outcomes["svm-hugepage"].breakdown["walker_levels"] <= \
        outcomes["svm"].breakdown["walker_levels"]
    # ~512x fewer pages also means no more demand misses.
    assert outcomes["svm-hugepage"].tlb_misses <= outcomes["svm"].tlb_misses


@settings(max_examples=8, deadline=None)
@given(kernel=st.sampled_from(("vecadd", "saxpy")),
       size_index=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16))
def test_prefetch_never_increases_misses_on_pure_streaming(kernel, size_index,
                                                           seed):
    overrides = SIZES[kernel][size_index % len(SIZES[kernel])]
    spec = workload(kernel, scale="tiny", seed=seed, **overrides)
    outcomes = run_models(spec, ("svm", "svm-prefetch"))
    assert outcomes["svm-prefetch"].tlb_misses <= outcomes["svm"].tlb_misses


@settings(max_examples=6, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_shared_tlb_with_one_sharer_degenerates_to_svm(kernel, seed):
    spec = workload(kernel, scale="tiny", seed=seed, **SIZES[kernel][0])
    outcomes = run_models(spec, ("svm", "svm-shared-tlb"))
    assert outcomes["svm"].total_cycles == \
        outcomes["svm-shared-tlb"].total_cycles
    assert outcomes["svm"].tlb_misses == outcomes["svm-shared-tlb"].tlb_misses


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       procs=st.integers(min_value=2, max_value=4),
       policy=st.sampled_from(("round-robin", "weighted-fair")))
def test_flush_on_switch_never_beats_asid_survival_differential(seed, procs,
                                                                policy):
    mp = contention(["vecadd"] * procs, scale="tiny", quantum=2000,
                    policy=policy, seed=seed, n=2048)
    config = HarnessConfig(tlb_entries=64)
    flushing = run_multiprocess(mp, config, flush_on_switch=True)
    surviving = run_multiprocess(mp, config)
    assert flushing.tlb_misses >= surviving.tlb_misses
    assert flushing.total_cycles >= surviving.total_cycles


# ---------------------------------------------------------------------------
# Two-tier exactness: the replay fastpath vs the event simulator
# ---------------------------------------------------------------------------
#
# The replay tier is only allowed to be *faster*, never *different*: every
# counter the event simulator produces must come back bit-for-bit identical
# from the fastpath engine, across the whole SVM family and across
# N-process contention runs.  These tests are the safety net that lets
# sweeps default to ``tier="auto"``.

import itertools
from dataclasses import replace

import pytest

from repro.core.platform import PlatformConfig
from repro.eval.harness import _build_svm_system, run_svm
from repro.fastpath.record import clear_program_cache
from repro.mem.bus import BusConfig
from repro.sim.recorder import HAVE_NUMPY, TraceRecorder, stream_equal
from repro.vm.pagetable import HUGE_PAGE_SIZE, levels_for_page_size

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="recording requires numpy")

#: Every scalar field of SVMResult/RunOutcome that both tiers must agree on.
RESULT_FIELDS = ("total_cycles", "fabric_cycles", "tlb_hit_rate",
                 "tlb_misses", "faults", "software_overhead_cycles",
                 "walks", "walker_levels", "walker_cycles",
                 "miss_stall_cycles", "prefetches_issued", "prefetch_hits",
                 "context_switches")


def assert_svm_results_equal(event, replay):
    """Field-for-field equality, including the full component stats dump
    and every epoch of the scheduling telemetry."""
    for name in RESULT_FIELDS:
        assert getattr(event, name) == getattr(replay, name), name
    stats_e = event.system_result.stats
    stats_r = replay.system_result.stats
    for key in sorted(set(stats_e) | set(stats_r)):
        assert stats_e.get(key) == stats_r.get(key), f"stats[{key}]"
    if event.telemetry is None:
        assert replay.telemetry is None
        return
    assert replay.telemetry.processes == event.telemetry.processes
    assert replay.telemetry.num_epochs == event.telemetry.num_epochs
    for index, (epoch_e, epoch_r) in enumerate(
            zip(event.telemetry.epochs, replay.telemetry.epochs)):
        assert epoch_e == epoch_r, f"epoch {index}"


#: Knobs the replay engine's write-back identities lean on: TLB
#: replacement, thread outstanding limit, burst size (multi-chunk ops), the
#: bus's per-master outstanding limit (contended grants and queue waits),
#: the prefetcher, and the huge-page platform (plus, drawn by the property
#: test, the single-sharer shared TLB).
REPLACEMENTS = ("lru", "fifo", "random")
MAX_OUTSTANDING = (1, 4, 8)
MAX_BURST_BYTES = (32, 64, 256)
BUS_INFLIGHT = (1, 2, 8)


def knob_config(replacement, outstanding, burst, bus_inflight, prefetch,
                huge_pages, shared_tlb=False):
    platform = PlatformConfig(
        bus=BusConfig(max_outstanding_per_master=bus_inflight))
    if huge_pages:
        platform = replace(
            platform, page_size=HUGE_PAGE_SIZE,
            page_table_levels=levels_for_page_size(HUGE_PAGE_SIZE))
    return HarnessConfig(platform=platform, tlb_entries=16,
                         tlb_replacement=replacement,
                         max_outstanding=outstanding,
                         max_burst_bytes=burst, tlb_prefetch=prefetch,
                         shared_tlb=shared_tlb)


def assert_tiers_agree(spec, config):
    event = run_svm(spec, config, tier="event")
    replay = run_svm(spec, config, tier="replay")
    assert event.tier == "event"
    assert replay.tier == "replay"
    assert_svm_results_equal(event, replay)


@settings(max_examples=8, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       size_index=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16),
       replacement=st.sampled_from(REPLACEMENTS),
       outstanding=st.sampled_from(MAX_OUTSTANDING),
       burst=st.sampled_from(MAX_BURST_BYTES),
       bus_inflight=st.sampled_from(BUS_INFLIGHT),
       prefetch=st.sampled_from((0, 2)),
       huge_pages=st.booleans(),
       shared_tlb=st.booleans())
def test_replay_tier_matches_event_tier_exactly(kernel, size_index, seed,
                                                replacement, outstanding,
                                                burst, bus_inflight, prefetch,
                                                huge_pages, shared_tlb):
    sizes = SIZES[kernel]
    spec = workload(kernel, scale="tiny", seed=seed,
                    **sizes[size_index % len(sizes)])
    assert_tiers_agree(spec, knob_config(replacement, outstanding, burst,
                                         bus_inflight, prefetch, huge_pages,
                                         shared_tlb))


def _knob_grid():
    """108 configurations: every replacement x outstanding x burst x
    prefetch x page-size combination, with the bus limit and the kernel
    rotated Latin-square style so each pairs with every other knob value."""
    kernels = sorted(SIZES)
    grid = []
    for r, o, b in itertools.product(range(3), repeat=3):
        for prefetch, huge_pages in itertools.product((0, 2), (False, True)):
            bus_inflight = BUS_INFLIGHT[(r + o + b) % 3]
            kernel = kernels[(r + o + b + prefetch + huge_pages) % 4]
            args = (REPLACEMENTS[r], MAX_OUTSTANDING[o], MAX_BURST_BYTES[b],
                    bus_inflight, prefetch, huge_pages)
            ident = (f"{kernel}-{args[0]}-out{args[1]}-burst{args[2]}-"
                     f"bus{bus_inflight}-pf{prefetch}-"
                     f"{'2m' if huge_pages else '4k'}")
            grid.append(pytest.param(kernel, len(grid), args, id=ident))
    return grid


@pytest.mark.parametrize("kernel,seed,knobs", _knob_grid())
def test_replay_tier_matches_event_tier_across_knob_grid(kernel, seed, knobs):
    """Full stats dump equality on a fixed grid of engine-relevant knobs."""
    spec = workload(kernel, scale="tiny", seed=seed, **SIZES[kernel][-1])
    assert_tiers_agree(spec, knob_config(*knobs))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       procs=st.integers(min_value=2, max_value=3),
       policy=st.sampled_from(("round-robin", "weighted-fair")),
       flush=st.booleans())
def test_replay_tier_matches_event_tier_multiprocess(seed, procs, policy,
                                                     flush):
    mp = contention(["vecadd"] * procs, scale="tiny", quantum=2000,
                    policy=policy, seed=seed, n=2048)
    config = HarnessConfig(tlb_entries=64)
    event = run_multiprocess(mp, config, flush_on_switch=flush, tier="event")
    replay = run_multiprocess(mp, config, flush_on_switch=flush,
                              tier="replay")
    assert replay.tier == "replay"
    assert_svm_results_equal(event, replay)


@needs_numpy
@settings(max_examples=8, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_recorded_streams_are_deterministic(kernel, seed):
    """Binding a spec twice records the exact same op stream both times.

    This is the precondition the program cache relies on: a spec's stream
    is recorded once and reused, so recording must be a pure function of
    the spec (and the page size).
    """
    spec = workload(kernel, scale="tiny", seed=seed, **SIZES[kernel][0])
    config = HarnessConfig(tlb_entries=16)
    streams = []
    for _ in range(2):
        _, _, bound = _build_svm_system(spec, config, 1)
        streams.append(TraceRecorder.capture(bound[0].make_kernel()))
    assert streams[0].num_ops > 0
    assert stream_equal(streams[0], streams[1])


@settings(max_examples=4, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_replay_is_deterministic_across_cache_states(kernel, seed):
    """Cold record, re-record, and warm cache hits all replay identically."""
    spec = workload(kernel, scale="tiny", seed=seed, **SIZES[kernel][0])
    config = HarnessConfig(tlb_entries=16)
    clear_program_cache()
    cold = run_svm(spec, config, tier="replay")
    clear_program_cache()
    recold = run_svm(spec, config, tier="replay")
    warm = run_svm(spec, config, tier="replay")
    assert_svm_results_equal(cold, recold)
    assert_svm_results_equal(cold, warm)


# ---------------------------------------------------------------------------
# Replay with demand faults and adaptive (epoch-wise) scheduling
# ---------------------------------------------------------------------------
#
# Faults are serviced inside the engine by the real handlers (host TLB
# touches included), and adaptive policies replan slice by slice from the
# telemetry the engine feeds the shared epoch planner: both must reproduce
# the event tier exactly, telemetry trace included.

ADAPTIVE_POLICIES = ("adaptive-fault", "miss-fair", "host-aware")
CONTENTION_KERNELS = ("vecadd", "random_access", "linked_list")


def assert_mp_tiers_agree(mp, config, flush_on_switch=False):
    event = run_multiprocess(mp, config, flush_on_switch=flush_on_switch,
                             tier="event")
    replay = run_multiprocess(mp, config, flush_on_switch=flush_on_switch,
                              tier="replay")
    assert event.tier == "event"
    assert replay.tier == "replay"
    assert_svm_results_equal(event, replay)
    return event


@settings(max_examples=12, deadline=None)
@given(policy=st.sampled_from(ADAPTIVE_POLICIES),
       residency=st.sampled_from((0.5, 0.75)),
       host_shares_tlb=st.booleans(),
       kernels=st.lists(st.sampled_from(CONTENTION_KERNELS), min_size=2,
                        max_size=4),
       quantum=st.sampled_from((500, 2000, 5000)),
       outstanding=st.sampled_from((1, 8)),
       prefetch=st.sampled_from((0, 2)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_replay_matches_event_tier_adaptive_faulting(policy, residency,
                                                     host_shares_tlb,
                                                     kernels, quantum,
                                                     outstanding, prefetch,
                                                     seed):
    mp = contention(kernels, scale="tiny", quantum=quantum, policy=policy,
                    residency=residency, seed=seed)
    config = HarnessConfig(tlb_entries=16, max_outstanding=outstanding,
                           tlb_prefetch=prefetch,
                           host_shares_tlb=host_shares_tlb)
    event = assert_mp_tiers_agree(mp, config)
    assert event.faults > 0
    if quantum <= 2000:
        assert event.telemetry.num_epochs >= 3


def _golden_fig14_points(count=5):
    import json
    from pathlib import Path
    path = Path(__file__).parent / "golden" / "experiments_golden.json"
    points = json.loads(path.read_text())["fig14"]["points"]
    return [pytest.param(point, id=f"fig14-point{index}")
            for index, point in enumerate(points[:count])]


@pytest.mark.parametrize("point", _golden_fig14_points())
def test_replay_matches_event_tier_on_golden_fig14_points(point,
                                                          monkeypatch):
    """Five evaluated points of the fig14 golden: each tier reproduces the
    run behind ``_fig14_point`` exactly, and the point's pinned objectives
    come back from the replay tier ``_fig14_point`` now uses."""
    from repro.eval import experiments, harness

    real = harness.run_multiprocess
    tiers = []

    def both_tiers(mp, config, **kwargs):
        kwargs.pop("tier", None)
        event = real(mp, config, tier="event", **kwargs)
        replay = real(mp, config, tier="auto", **kwargs)
        assert_svm_results_equal(event, replay)
        tiers.append(replay.tier)
        return replay

    monkeypatch.setattr(harness, "run_multiprocess", both_tiers)
    values = experiments._fig14_point(point["params"], scale="tiny")
    assert tiers == ["replay"]
    for objective in ("cycles", "luts", "miss_stall_cycles",
                      "host_refill_rate", "fairness"):
        assert values[objective] == point[objective], objective


@pytest.mark.parametrize("residency", (0.5, 0.9))
@pytest.mark.parametrize("kernel", sorted(SIZES))
def test_replay_matches_event_tier_single_process_faulting(kernel,
                                                           residency):
    spec = workload(kernel, scale="tiny", residency=residency, seed=3,
                    **SIZES[kernel][-1])
    for config in (HarnessConfig(tlb_entries=16),
                   HarnessConfig(tlb_entries=8, max_outstanding=8,
                                 tlb_prefetch=2, host_shares_tlb=True)):
        event = run_svm(spec, config, tier="event")
        replay = run_svm(spec, config, tier="replay")
        assert replay.tier == "replay"
        assert_svm_results_equal(event, replay)
        if residency == 0.5:
            assert event.faults > 0

"""Unit tests for the event-driven simulation engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_schedule_and_run_orders_events_by_time():
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("b"))
    sim.schedule(5, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 20


def test_same_cycle_events_run_in_insertion_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(7, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_zero_delay_event_runs_in_same_cycle():
    sim = Simulator()
    seen = []

    def outer():
        sim.schedule(0, lambda: seen.append(sim.now))

    sim.schedule(3, outer)
    sim.run()
    assert seen == [3]


def test_nested_scheduling_advances_clock():
    sim = Simulator()
    times = []

    def step():
        times.append(sim.now)
        if len(times) < 4:
            sim.schedule(5, step)

    sim.schedule(0, step)
    sim.run()
    assert times == [0, 5, 10, 15]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_rejects_past():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_schedule_at_absolute_cycle():
    sim = Simulator()
    seen = []
    sim.schedule_at(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: seen.append(5))
    sim.schedule(50, lambda: seen.append(50))
    stopped_at = sim.run(until=10)
    assert seen == [5]
    assert stopped_at == 10
    # The remaining event still runs when the simulation resumes.
    sim.run()
    assert seen == [5, 50]


def test_event_cancellation():
    sim = Simulator()
    seen = []
    handle = sim.schedule(5, lambda: seen.append("cancelled"))
    sim.schedule(6, lambda: seen.append("kept"))
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert seen == ["kept"]


def test_step_executes_single_event():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda: seen.append(1))
    sim.schedule(2, lambda: seen.append(2))
    assert sim.step() is True
    assert seen == [1]
    assert sim.step() is True
    assert sim.step() is False
    assert seen == [1, 2]


def test_max_cycles_guard_raises():
    sim = Simulator(max_cycles=100)
    sim.schedule(200, lambda: None)
    with pytest.raises(SimulationError):
        sim.run()


def test_pending_events_counts_queue():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_clock_does_not_go_backwards():
    sim = Simulator()
    observed = []

    def record():
        observed.append(sim.now)

    for delay in (30, 10, 20, 10, 0):
        sim.schedule(delay, record)
    sim.run()
    assert observed == sorted(observed)


def test_step_honours_max_cycles():
    sim = Simulator(max_cycles=100)
    sim.schedule(50, lambda: None)
    sim.schedule(200, lambda: None)
    assert sim.step() is True          # event at 50 is fine
    with pytest.raises(SimulationError):
        sim.step()                     # event at 200 trips the guard


def test_run_rejects_backwards_until():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    assert sim.now == 10
    with pytest.raises(ValueError):
        sim.run(until=5)
    assert sim.now == 10               # clock untouched


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1, lambda: None)
    drop = sim.schedule(2, lambda: None)
    assert sim.pending_events == 2
    drop.cancel()
    assert sim.pending_events == 1
    drop.cancel()                      # double-cancel must not double-count
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0
    assert keep.cycle == 1


def test_pending_events_after_stepping_past_cancelled():
    sim = Simulator()
    sim.schedule(1, lambda: None).cancel()
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 1
    assert sim.step() is True          # skips the cancelled event
    assert sim.pending_events == 0
    assert sim.step() is False


def test_cancel_after_execution_does_not_corrupt_pending_count():
    sim = Simulator()
    handle = sim.schedule(1, lambda: None)
    sim.run()                          # event executed
    handle.cancel()                    # too late: must be a no-op
    assert sim.pending_events == 0
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 1     # live event not masked


# ---------------------------------------------------------------------------
# Property: the engine matches a reference model ordered by
# (cycle, insertion order) under random schedule/cancel/step/run interleavings.
# ---------------------------------------------------------------------------
class _ReferenceQueue:
    """Sorted-list model of the event queue, independent of the heap.

    Entries are ``[cycle, seq, ident, child_delay, cancelled]``; cancelled
    entries stay queued until they reach the front, exactly as the engine
    keeps them (they still bound ``run(until=)``'s stopping cycle).
    """

    def __init__(self, max_cycles):
        self.max_cycles = max_cycles
        self.now = 0
        self.entries = []          # kept sorted by (cycle, seq)
        self.seq = 0
        self.log = []

    def schedule(self, cycle, ident, child_delay):
        entry = [cycle, self.seq, ident, child_delay, False]
        self.seq += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e[0], e[1]))
        return entry

    def cancel(self, entry):
        if entry in self.entries and not entry[4]:
            entry[4] = True

    def _pop_live(self, until=None):
        """Pop up to the next live event; None if stopped or drained."""
        while self.entries:
            head = self.entries[0]
            if until is not None and head[0] > until:
                self.now = until
                return None
            self.entries.pop(0)
            if head[4]:
                continue
            if self.max_cycles is not None and head[0] > self.max_cycles:
                raise SimulationError("max_cycles")
            return head
        return None

    def _execute(self, entry):
        cycle, _, ident, child_delay, _ = entry
        self.now = cycle
        self.log.append((ident, cycle))
        if child_delay is not None:
            self.schedule(cycle + child_delay, ident + 1000, None)

    def step(self):
        entry = self._pop_live()
        if entry is None:
            return False
        self._execute(entry)
        return True

    def run(self, until=None):
        while True:
            entry = self._pop_live(until)
            if entry is None:
                return self.now
            self._execute(entry)

    @property
    def pending(self):
        return sum(1 for e in self.entries if not e[4])


_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 30),
              st.one_of(st.none(), st.integers(0, 20))),
    st.tuples(st.just("schedule_at"), st.integers(0, 30),
              st.one_of(st.none(), st.integers(0, 20))),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.just("step"),),
    st.tuples(st.just("run_until"), st.integers(0, 40)),
), max_size=60)


@settings(max_examples=300, deadline=None)
@given(ops=_OPS, max_cycles=st.one_of(st.none(), st.integers(0, 120)))
def test_engine_matches_reference_queue(ops, max_cycles):
    sim = Simulator(max_cycles=max_cycles)
    model = _ReferenceQueue(max_cycles)
    log = []
    handles = []               # (engine handle, model entry), in order

    def callback(ident, child_delay):
        def run():
            log.append((ident, sim.now))
            if child_delay is not None:
                sim.schedule(child_delay, callback(ident + 1000, None))
        return run

    def outcome(fn, *args):
        try:
            return fn(*args)
        except SimulationError:
            return "max_cycles"

    for ident, op in enumerate(ops):
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            offset, child = op[1], op[2]
            if kind == "schedule":
                handle = sim.schedule(offset, callback(ident, child))
            else:
                handle = sim.schedule_at(sim.now + offset,
                                         callback(ident, child))
            assert handle.cycle == model.now + offset
            handles.append((handle, model.schedule(model.now + offset,
                                                   ident, child)))
        elif kind == "cancel":
            if handles:
                handle, entry = handles[op[1] % len(handles)]
                handle.cancel()
                model.cancel(entry)
                assert handle.cancelled == entry[4]
        elif kind == "step":
            assert outcome(sim.step) == outcome(model.step)
        else:
            until = model.now + op[1]
            assert outcome(sim.run, until) == outcome(model.run, until)
        assert log == model.log
        assert sim.now == model.now
        assert sim.pending_events == model.pending

    assert outcome(sim.run) == outcome(model.run)
    assert log == model.log
    assert sim.now == model.now
    assert sim.pending_events == model.pending

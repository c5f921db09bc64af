"""The runner's drain loop: its own results go straight to the caller.

A point the calling process's drain worker recorded is yielded without
asking the broker for it again; everything else (enqueue-time hits,
external workers, lost completion races, failures) still arrives through
the poll.  Every scenario runs against SQLite directly and through the HTTP
stack (``HTTPBroker → BrokerServer → SQLiteBroker``).
"""

import pickle
import time

import pytest

from repro.dist import (BrokerServer, DistributedJobError, DistributedRunner,
                        HTTPBroker, SQLiteBroker, WorkItem)
from repro.dist import service
from repro.exec import MemoCache
from repro.exec.keys import stable_key


def square(x):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x * x


def nap(x):
    time.sleep(0.05)
    return x


class CountingBroker:
    """Delegates to a broker, recording the calls the runner cares about."""

    def __init__(self, inner):
        self.inner = inner
        self.fetched = []           # the positions of each fetch_results
        self.recorded = []          # keys whose complete() returned True

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def fetch_results(self, sweep_id, positions=None, *, values=True):
        self.fetched.append(None if positions is None else list(positions))
        return self.inner.fetch_results(sweep_id, positions, values=values)

    def complete(self, key, value, worker=None):
        recorded = self.inner.complete(key, value, worker=worker)
        if recorded:
            self.recorded.append(key)
        return recorded


class RivalBroker(CountingBroker):
    """Another worker always completes the key first, with the same value."""

    def complete(self, key, value, worker=None):
        assert self.inner.complete(key, value, worker="rival")
        return super().complete(key, value, worker=worker)


class CountingMemo(MemoCache):
    def __init__(self):
        super().__init__()
        self.puts = []

    def put(self, key, value):
        self.puts.append(key)
        super().put(key, value)


@pytest.fixture(params=["sqlite", "http"])
def broker(request, tmp_path):
    backend = SQLiteBroker(tmp_path / "broker.db", lease_seconds=10.0)
    if request.param == "sqlite":
        yield backend
    else:
        server = BrokerServer(backend).start()
        client = HTTPBroker(server.url, retries=2, backoff_seconds=0.01)
        try:
            yield client
        finally:
            client.close()
            server.close()
    backend.close()


def _stream(runner, fn, items):
    """Every ``(position, value)`` the runner yields, in arrival order."""
    return list(runner.map_stream(fn, items))


def _assert_once(pairs, fn, items):
    assert sorted(position for position, _ in pairs) == list(range(len(items)))
    assert {position: value for position, value in pairs} == {
        position: fn(item) for position, item in enumerate(items)}


def _older_sweep(broker, args, fn=square):
    """Enqueue a sweep of ``fn`` over ``args`` for the drainer to meet first."""
    items = [WorkItem(key=stable_key(fn, arg),
                      payload=pickle.dumps((fn, arg)))
             for arg in args]
    ticket = broker.create_sweep(items, label="older")
    time.sleep(0.01)            # strictly older than the runner's sweep
    return ticket


def test_drained_points_are_never_fetched_back(broker):
    counting = CountingBroker(broker)
    memo = CountingMemo()
    items = [1, 2, 3, 4, 5, 2]
    runner = DistributedRunner(counting, cache=memo)

    pairs = _stream(runner, square, items)

    _assert_once(pairs, square, items)
    assert len(counting.recorded) == 5
    assert counting.fetched == []
    # Each drained value reaches the memo once: the drainer's put only.
    assert sorted(memo.puts) == sorted(counting.recorded)
    assert runner.stats.points_executed == 5
    assert runner.stats.cache_hits == 1


def test_enqueue_hits_arrive_in_bounded_fetches(broker, monkeypatch):
    items = list(range(7))
    DistributedRunner(broker, cache=MemoCache()).map(square, items)
    monkeypatch.setattr(service, "FETCH_CHUNK", 2)
    counting = CountingBroker(broker)
    runner = DistributedRunner(counting, cache=MemoCache())
    more = items + [7, 8]

    pairs = _stream(runner, square, more)

    _assert_once(pairs, square, more)
    assert counting.fetched
    assert all(0 < len(chunk) <= 2 for chunk in counting.fetched)
    assert sorted(p for chunk in counting.fetched for p in chunk) == items
    assert runner.stats.points_executed == 2


def test_drainer_meets_an_older_sweep_first(broker):
    # The older sweep shares key square(2) with the runner's and has one
    # the runner does not carry (square(10)).
    older = _older_sweep(broker, [10, 2])
    counting = CountingBroker(broker)
    items = [1, 2, 3]
    runner = DistributedRunner(counting, cache=MemoCache())

    pairs = _stream(runner, square, items)

    _assert_once(pairs, square, items)
    assert counting.recorded[:2] == [stable_key(square, 10),
                                     stable_key(square, 2)]
    assert counting.fetched == []
    rows = broker.fetch_results(older.sweep_id)
    assert [(row.position, row.state, row.value) for row in rows] == [
        (0, "done", 100), (1, "done", 4)]
    assert runner.stats.points_executed == 3


def test_lost_completion_race_arrives_through_the_poll(broker):
    rival = RivalBroker(broker)
    items = [1, 2, 3]
    runner = DistributedRunner(rival, cache=MemoCache())

    pairs = _stream(runner, square, items)

    _assert_once(pairs, square, items)
    assert rival.recorded == []
    assert sorted(p for chunk in rival.fetched for p in chunk) == [0, 1, 2]


def test_timeout_fires_while_draining_another_sweep(broker):
    _older_sweep(broker, list(range(100, 140)), fn=nap)
    runner = DistributedRunner(broker, cache=MemoCache(), timeout=0.3)
    started = time.monotonic()
    with pytest.raises(TimeoutError):
        runner.map(square, [1, 2])
    assert time.monotonic() - started < 1.5


def test_raising_job_fails_eagerly_and_cancels_the_sweep(broker):
    counting = CountingBroker(broker)
    items = [1, 2, 3, 4, 5, 6]
    runner = DistributedRunner(counting, cache=MemoCache())
    delivered = []
    with pytest.raises(DistributedJobError) as excinfo:
        for pair in runner.map_stream(fail_on_three, items):
            delivered.append(pair)
    assert "three is right out" in str(excinfo.value)
    assert excinfo.value.position == 2
    assert sorted(delivered) == [(0, 1), (1, 4)]
    assert runner.stats.failed_jobs == 1
    (status,) = broker.sweeps()
    assert status["sweep_cancelled"]
    # Nothing past the failing job ran: the poll saw it at once.
    assert (status["done"], status["failed"], status["cancelled"]) == (2, 1, 3)

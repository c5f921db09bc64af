"""Layer tracing from outside the program, for the traced run only.

:class:`Tracer` replaces public functions and methods of each layer with
wrappers while it is installed, and restores the originals afterwards;
nothing under ``src/`` changes.  Each wrapped call records a span ``(id,
name, start, end, parent id, point id, thread)`` in memory and charges its
*self time* (its duration minus the time its traced children took) to its
layer.

The hottest functions -- ``StatGroup.counter``, ``Counter.inc`` and
``Simulator.schedule``, each about 100 ns and called millions of times --
stay unwrapped in the passes that time the layers: a wrapper costs more
than such a call, and its cost would land in the self time of the span
around it.  Instead a *counting* tracer (``Tracer(count_hot=True)``) runs a
pass of its own, counting their calls per layer of the enclosing span.  The
stats time of a layer is then its counted ``StatGroup.counter`` and
``Counter.inc`` calls times their per-call costs, timed bare in a loop
(:func:`measure_leaf_costs`) and scaled to the host speed of the timed
passes; :func:`layer_self_s` moves that time from the layers that made the
calls to ``sim.stats``.

Spans nest per thread, so work the HTTP server does in its own threads is
attributed to the broker layer without being subtracted from the caller,
who spends that time waiting on the socket.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: The ``SQLiteBroker`` operations the HTTP server runs for its clients.
BROKER_METHODS = ("create_sweep", "claim", "heartbeat", "complete",
                  "complete_bytes", "fail", "cancel", "status", "sweeps",
                  "finished_positions", "fetch_result_rows", "fetch_results",
                  "retries")


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, wrap: Callable) -> None:
        """Replace ``cls.attr`` (a plain or class method) by ``wrap(it)``."""
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            self.set(cls, attr, classmethod(wrap(original.__func__)))
        else:
            self.set(cls, attr, wrap(original))

    def function(self, module: Any, attr: str, wrap: Callable) -> None:
        """Replace a module-level function in every module that imported it."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not name.startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, wrapped)

    def undo(self) -> None:
        for owner, attr, value, had in reversed(self._saved):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._saved.clear()


class Tracer:
    """Spans, self time and counts of the layers, while installed.

    With ``count_hot`` it also counts the hot functions, per enclosing
    layer; its times then include the counting and are not reported.
    """

    def __init__(self, count_hot: bool = False) -> None:
        self.count_hot = count_hot
        self.spans: List[Tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive time per (span name, thread kind): "main" is the
        #: caller's thread, "other" any server thread.
        self.inclusive_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Calls of each hot function per layer of the enclosing span.
        self.hot_calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.request_s: List[float] = []
        self.payload_bytes = 0
        self.tiers: Dict[str, int] = defaultdict(int)
        self.point: Optional[int] = None
        self._points = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self.patches = Patches()
        #: Seconds per call of each hot leaf at the reference host speed;
        #: see :func:`measure_leaf_costs`.
        self.leaf_cost_s: Dict[str, float] = {}

    # ------------------------------------------------------------- wrappers
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, fn: Callable,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """Wrap ``fn`` so each call records a span charged to ``layer``."""
        calls, self_s, inclusive_s = self.calls, self.self_s, self.inclusive_s
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            frame = [sid, _perf(), 0.0, layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - frame[1]
                self_s[layer] += duration - frame[2]
                calls[name] += 1
                thread = threading.current_thread()
                kind = "main" if thread is self._main else "other"
                inclusive_s[(name, kind)] += duration
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                spans.append((sid, name, frame[1], end,
                              parent[0] if parent is not None else None,
                              self.point if kind == "main" else None,
                              thread.name))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def hot(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot function: count its calls per enclosing layer."""
        hot_calls, local = self.hot_calls, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            hot_calls[(name, stack[-1][3] if stack else "pass")] += 1
            return fn(*args, **kwargs)
        return wrapper

    def point_span(self, fn: Callable) -> Callable:
        """A span that also starts a new point id (the unit a caller gets)."""
        inner = self.span("point", "point", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is self._main:
                self.point = self._points
                self._points += 1
            return inner(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        """Restore every original."""
        self.patches.undo()

    def hot_total(self, name: str) -> int:
        """Calls of hot function ``name``, whatever layer made them."""
        return sum(n for (hot, _), n in self.hot_calls.items() if hot == name)

    # -------------------------------------------------------------- install
    def install(self) -> "Tracer":
        """Wrap the public functions of every layer the benchmark reports."""
        import urllib.request

        import repro.core.synthesis as synthesis
        import repro.dist.http as http
        import repro.dse.explorer as explorer
        import repro.eval.experiments as experiments
        import repro.eval.harness as harness
        import repro.exec.jobs as jobs
        import repro.exec.keys as keys
        import repro.fastpath.engine as engine
        import repro.fastpath.record as record
        import repro.os.scheduler as scheduler
        import repro.os.telemetry as telemetry
        import repro.sim.engine as sim_engine
        import repro.sim.stats as stats
        from repro.dist.broker import SQLiteBroker
        from repro.exec.cache import MemoCache
        from repro.store.results import ResultsStore
        from repro.workloads.specs import WorkloadSpec

        span = self.span

        # Points: the unit of work a caller receives.
        self.patches.function(experiments, "_fig14_point", self.point_span)
        self.patches.function(jobs, "run_job", self.point_span)

        def harness_result(result: Any) -> None:
            self.tiers[getattr(result, "tier", "event")] += 1

        for name in ("run_svm", "run_multiprocess"):
            self.patches.function(harness, name, lambda fn, n=name: span(
                f"eval.harness.{n}", "eval.harness", fn, harness_result))

        # Event tier, OS telemetry, stats bookkeeping.
        self.patches.method(synthesis.SynthesizedSystem, "run", lambda fn: span(
            "sim.event_run", "sim.event_run", fn))
        if self.count_hot:
            # Timed as installed (slowed, in the attribution self-test).
            self.leaf_cost_s = measure_leaf_costs()
            for owner, attr, name in (
                    (sim_engine.Simulator, "schedule", "sim.schedule"),
                    (stats.StatGroup, "counter", "sim.stats.counter"),
                    (stats.Counter, "inc", "sim.stats.inc")):
                self.patches.method(owner, attr,
                                    lambda fn, n=name: self.hot(n, fn))
        for name in ("begin_slice", "end_slice", "close_epoch"):
            self.patches.method(telemetry.TelemetryBus, name,
                                lambda fn, n=name: span(
                                    f"os.telemetry.{n}", "os.telemetry", fn))
        for cls in _subclasses(scheduler.SchedulingPolicy):
            if "observe" in vars(cls):
                self.patches.method(cls, "observe", lambda fn: span(
                    "os.telemetry.observe", "os.telemetry", fn))

        # Fastpath record and replay.
        for name in ("program_for_workload", "program_for_plan"):
            self.patches.function(record, name, lambda fn: span(
                "fastpath.record", "fastpath.record", fn))
        self.patches.function(engine, "replay_fabric", lambda fn: span(
            "fastpath.replay", "fastpath.replay", fn))

        # Synthesis and workload build.
        self.patches.method(synthesis.SystemSynthesizer, "synthesize",
                            lambda fn: span("core.synthesis.synthesize",
                                            "core.synthesis", fn))
        self.patches.method(synthesis.SynthesizedSystem, "resource_estimate",
                            lambda fn: span("core.synthesis.resource_estimate",
                                            "core.synthesis.resource_estimate",
                                            fn))
        self.patches.method(WorkloadSpec, "bind", lambda fn: span(
            "workloads.bind", "workloads.bind", fn))

        # DSE layer: building the candidate space, then exploring it.
        self.patches.method(explorer.DesignSpace, "from_axes", lambda fn: span(
            "dse.space", "dse", fn))
        for cls in _subclasses(explorer.Explorer):
            if "explore" in vars(cls):
                self.patches.method(cls, "explore", lambda fn: span(
                    "dse.explore", "dse", fn))

        # Keys, memo cache, results store.
        self.patches.function(keys, "stable_key", lambda fn: span(
            "exec.keys.stable_key", "exec.keys", fn))

        def contains(fn: Callable) -> Callable:
            traced = span("exec.cache.contains", "exec.cache.get", fn)

            @functools.wraps(fn)
            def wrapper(cache, key):
                found = traced(cache, key)
                self.calls["exec.cache.hits"] += bool(found)
                return found
            return wrapper

        self.patches.method(MemoCache, "__contains__", contains)
        self.patches.method(MemoCache, "get", lambda fn: span(
            "exec.cache.get", "exec.cache.get", fn))
        self.patches.method(MemoCache, "put", lambda fn: span(
            "exec.cache.put", "exec.cache.put", fn))
        self.patches.method(ResultsStore, "record", lambda fn: span(
            "store.record", "store.record", fn))
        def get_value(fn: Callable) -> Callable:
            traced = span("store.get_value", "store.lookup", fn)

            @functools.wraps(fn)
            def wrapper(store, key, default=None):
                value = traced(store, key, default)
                self.calls["store.hits"] += value is not default
                return value
            return wrapper

        self.patches.method(ResultsStore, "get_value", get_value)
        self.patches.method(ResultsStore, "warm_values", lambda fn: span(
            "store.warm_values", "store.lookup", fn))

        # Broker client (caller's thread) and server (its own threads).
        for name in ("create_sweep", "claim", "heartbeat", "complete", "fail",
                     "cancel", "status", "sweeps", "finished_positions",
                     "retries", "fetch_results", "ping"):
            self.patches.method(http.HTTPBroker, name, lambda fn, n=name: span(
                f"dist.http.{n}", "dist.http", fn))
        for name in BROKER_METHODS:
            self.patches.method(SQLiteBroker, name, lambda fn, n=name: span(
                f"dist.broker.{n}", "dist.broker", fn))

        def transport(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(transport_self, method, path, body=None, headers=None):
                started = _perf()
                status, payload = fn(transport_self, method, path, body,
                                     headers)
                self.request_s.append(_perf() - started)
                self.calls["dist.http.requests"] += 1
                self.payload_bytes += len(body or b"") + len(payload)
                return status, payload
            return wrapper

        self.patches.method(http._Transport, "request", transport)
        urlopen = urllib.request.urlopen

        @functools.wraps(urlopen)
        def attempt(*args, **kwargs):
            self.calls["dist.http.attempts"] += 1
            return urlopen(*args, **kwargs)

        self.patches.set(urllib.request, "urlopen", attempt)
        return self

    # --------------------------------------------------------------- report
    def snapshot(self) -> Dict[str, Any]:
        """Cumulative counters, to difference across a set of passes."""
        from repro.fastpath.record import record_stats
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "inclusive_s": dict(self.inclusive_s),
                "requests": len(self.request_s),
                "payload_bytes": self.payload_bytes,
                "tiers": dict(self.tiers),
                "records": dict(record_stats)}

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(["id", "name", "start", "end", "parent",
                                  "point", "thread"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def measure_leaf_costs(calls: int = 10_000, repeats: int = 31
                       ) -> Dict[str, float]:
    """Seconds per call of ``StatGroup.counter`` and ``Counter.inc``, at the
    reference host speed.

    Each takes about as long as the clock read that would time it, so
    timing every call mostly measures the timing.  This times the functions
    as installed in a bare loop instead, best of ``repeats`` to stay clear
    of host noise, interleaved with the speed probe of
    :class:`perfbench.suite.PassClock`: costs timed at different moments
    then compare through the probe, as pass times do.
    """
    from repro.sim.stats import Counter, StatGroup

    from perfbench.suite import PROBE_REFERENCE_S, probe_unit

    group = StatGroup("probe")
    for index in range(16):
        group.counter(f"c{index}")
    counter = Counter("probe")
    loops = range(calls)

    def empty() -> None:
        for _ in loops:
            pass

    def lookups() -> None:
        for _ in loops:
            group.counter("c7")

    def increments() -> None:
        for _ in loops:
            counter.inc()

    runs = {"empty": empty, "sim.stats.counter": lookups,
            "sim.stats.inc": increments, "probe": probe_unit}
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(repeats):
        for name, run in runs.items():
            started = _perf()
            run()
            best[name] = min(best[name], _perf() - started)
    scale = PROBE_REFERENCE_S / best["probe"] / calls
    return {name: max(0.0, best[name] - best["empty"]) * scale
            for name in ("sim.stats.counter", "sim.stats.inc")}


def stats_s_by_layer(counting: Tracer,
                     slowdown: float = 1.0) -> Dict[str, float]:
    """Seconds the counting tracer's passes spent in ``StatGroup.counter``
    and ``Counter.inc``, by the layer whose span made the calls, on a host
    ``slowdown`` times slower than the reference."""
    out: Dict[str, float] = defaultdict(float)
    for (name, layer), calls in counting.hot_calls.items():
        if name in counting.leaf_cost_s:
            out[layer] += calls * counting.leaf_cost_s[name] * slowdown
    return dict(out)


def layer_self_s(self_s: Dict[str, float],
                 stats_s: Dict[str, float]) -> Dict[str, float]:
    """Self time per layer, with the stats time ``stats_s`` (same unit,
    by calling layer) moved from the layers that spent it to ``sim.stats``."""
    out = dict(self_s)
    for layer, seconds in stats_s.items():
        out[layer] = out.get(layer, 0.0) - seconds
    out["sim.stats"] = sum(stats_s.values())
    return out


def _delta(after: Dict, before: Dict) -> Dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def quantile(values: List[float], q: int) -> float:
    """The q-th decile of ``values`` (q=5 median, q=9 the 90th percentile)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, before: Dict[str, Any],
                  after: Dict[str, Any], passes: List[Any],
                  counting: Tracer, counted: List[Any]
                  ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics per pass, plus the report detail.

    Times come from ``tracer`` over ``passes``, between its snapshots
    ``before`` and ``after``; the hot-function counts and the stats time
    from ``counting`` over ``counted``, passes of the same inputs.  Times
    and counts are per pass (every pass is identical), except
    ``sim.stats.counter_lookups`` (per executed point) and the ratios.  Returns ``(metrics, detail)``; ``detail`` holds each ratio's
    base and the self time of every layer, including ``pass`` (time in no
    traced layer).
    """
    n = len(passes)
    calls = _delta(after["calls"], before["calls"])
    # The timed passes ran at their own host speed.
    slowdown = statistics.mean(p.slowdown for p in passes)
    stats_s = {layer: seconds / len(counted) for layer, seconds
               in stats_s_by_layer(counting, slowdown).items()}
    self_s = layer_self_s(
        {layer: seconds / n for layer, seconds
         in _delta(after["self_s"], before["self_s"]).items()}, stats_s)
    inclusive = _delta(after["inclusive_s"], before["inclusive_s"])
    tiers = _delta(after["tiers"], before["tiers"])
    records = _delta(after["records"], before["records"])
    requests = tracer.request_s[before["requests"]:after["requests"]]
    delivered = sum(len(p.points) for p in passes)
    executed = sum(tiers.values())
    counted_executed = sum(counting.tiers.values())
    counts: Dict[str, float] = defaultdict(float)
    for result in passes:
        for key, value in result.counts.items():
            counts[key] += value
    lookups = calls.get("exec.cache.contains", 0)
    store_lookups = calls.get("store.get_value", 0)
    made = records.get("records", 0) + records.get("reuses", 0)
    wall = sum(p.wall_s for p in passes)
    http_s = sum(s for (name, kind), s in inclusive.items()
                 if name.startswith("dist.http.") and kind == "main")
    claim_s = inclusive.get(("dist.http.claim", "main"), 0.0)
    point_s = inclusive.get(("point", "main"), 0.0)
    # Caller time outside claims and run_job: enqueueing, polling,
    # fetching, completing and sleeping between polls.
    wait_s = (wall - claim_s - point_s) if http_s else 0.0

    def per_pass(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "sim.event_run_s": self_s.get("sim.event_run", 0.0),
        "sim.stats.self_s": self_s["sim.stats"],
        "sim.events_scheduled": (counting.hot_total("sim.schedule")
                                 / len(counted)),
        "sim.stats.counter_lookups": ratio(
            counting.hot_total("sim.stats.counter"), counted_executed),
        "os.telemetry.observe_s": self_s.get("os.telemetry", 0.0),
        "os.telemetry.epochs": per_pass(
            calls.get("os.telemetry.close_epoch", 0)),
        "os.faults": per_pass(sum(p.outputs[2] for r in passes
                                  for p in r.points)),
        "vm.tlb_misses": per_pass(sum(p.outputs[1] for r in passes
                                      for p in r.points)),
        "fastpath.record_s": self_s.get("fastpath.record", 0.0),
        "fastpath.records": per_pass(records.get("records", 0)),
        "fastpath.reuses": per_pass(records.get("reuses", 0)),
        "fastpath.reuse_ratio": ratio(records.get("reuses", 0), made),
        "fastpath.replay_s": self_s.get("fastpath.replay", 0.0),
        "fastpath.replay_share": ratio(tiers.get("replay", 0), executed),
        "core.synthesis.synthesize_s": self_s.get("core.synthesis", 0.0),
        "core.synthesis.synthesize_calls": per_pass(
            calls.get("core.synthesis.synthesize", 0)),
        "core.synthesis.resource_estimate_s": self_s.get(
            "core.synthesis.resource_estimate", 0.0),
        "workloads.bind_s": self_s.get("workloads.bind", 0.0),
        "workloads.bind_calls": per_pass(calls.get("workloads.bind", 0)),
        "eval.harness.self_s": self_s.get("eval.harness", 0.0),
        "dse.explore_self_s": self_s.get("dse", 0.0),
        "dse.evaluations": per_pass(calls.get("point", 0)
                                    if calls.get("dse.explore") else 0),
        "exec.keys.stable_key_s": self_s.get("exec.keys", 0.0),
        "exec.keys.stable_key_calls": per_pass(
            calls.get("exec.keys.stable_key", 0)),
        "exec.cache.get_s": self_s.get("exec.cache.get", 0.0),
        "exec.cache.put_s": self_s.get("exec.cache.put", 0.0),
        "exec.cache.hit_ratio": ratio(calls.get("exec.cache.hits", 0),
                                      lookups),
        "store.record_s": self_s.get("store.record", 0.0),
        "store.record_calls": per_pass(calls.get("store.record", 0)),
        "store.lookup_s": self_s.get("store.lookup", 0.0),
        "store.lookup_hit_ratio": ratio(calls.get("store.hits", 0),
                                        store_lookups),
        "dist.http.requests_per_point": ratio(len(requests), delivered),
        "dist.http.request_p50_ms": 1000.0 * quantile(requests, 5),
        "dist.http.request_p90_ms": 1000.0 * quantile(requests, 9),
        "dist.http.retries": per_pass(
            calls.get("dist.http.attempts", 0) - len(requests)),
        "dist.broker.server_s": self_s.get("dist.broker", 0.0),
        "dist.enqueue_hit_ratio": ratio(counts.get("enqueue_hits", 0),
                                        counts.get("enqueued", 0)),
        "dist.wait_s": per_pass(wait_s),
        "dist.payload_bytes": per_pass(after["payload_bytes"]
                                       - before["payload_bytes"]),
    }
    layers = {layer: round(value, 6)
              for layer, value in sorted(self_s.items())}
    detail = {
        "passes": n,
        # At the reference host speed.
        "leaf_ns_per_call": {name: cost * 1e9 for name, cost
                             in counting.leaf_cost_s.items()},
        "sim_stats_s_by_layer": stats_s,
        "self_s_per_pass": layers,
        "bases": {
            "sim.stats.counter_lookups": f"{counted_executed / len(counted):g}"
                                         " executed points per pass",
            "fastpath.reuse_ratio": f"{made / n:g} program requests per pass",
            "fastpath.replay_share": f"{executed / n:g} executed points "
                                     "per pass",
            "exec.cache.hit_ratio": f"{lookups / n:g} memo lookups per pass",
            "store.lookup_hit_ratio": f"{store_lookups / n:g} get_value "
                                      "calls per pass",
            "dist.http.requests_per_point": f"{delivered / n:g} points "
                                            "delivered per pass",
            "dist.http.request_p50_ms": f"{len(requests)} requests",
            "dist.enqueue_hit_ratio": f"{counts.get('enqueued', 0) / n:g} "
                                      "points enqueued per pass",
        },
        # Per HTTPBroker method: calls per pass and mean client-side ms.
        "http_methods": {
            name[len("dist.http."):]: {
                "calls_per_pass": per_pass(count),
                "ms_per_call": 1000.0 * inclusive.get((name, "main"), 0.0)
                / count}
            for name, count in sorted(calls.items())
            if name.startswith("dist.http.") and count and name not in (
                "dist.http.requests", "dist.http.attempts")},
    }
    return metrics, detail

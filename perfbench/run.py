"""Benchmark entry point: one workload, one seed, timed passes, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload dse_contention --seed 0 \\
        --seconds 20 --trace 0

Runs identical passes of the workload until ``--seconds`` of them have been
measured, checks every point's simulated outputs against the reference kept
in ``perfbench/reference/``, prints each metric by name with its unit, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced passes for half the time, then installs the layer tracer
(:mod:`perfbench.tracing`) and runs traced passes for the other half, then
one pass that counts the hot functions; it reports the per-layer metrics
and the tracing overhead, and writes every span and the report under
``.bench_build/perfbench/``.

Exit status: 0 when every output matched, 1 when any point failed the
check or raised, 2 when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any import)
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"

# Imports read compiled bytecode, as they do for a user with Python's
# defaults, whether or not the environment turned the cache off: compiling
# every module on every start made ``setup_s`` swing with the host.
sys.dont_write_bytecode = False

#: Extra set-ups timed in fresh processes, so ``setup_s`` is a median.
SETUP_PROBES = 4

#: What each workload imports before its first point can be timed.
IMPORTS = {
    "dse_contention": ("repro", "repro.eval.experiments"),
    "replay_grid": ("repro", "repro.exec", "repro.fastpath"),
    "fleet_resweep": ("repro", "repro.exec", "repro.dist", "repro.store"),
}

def _import_program(workload: str) -> None:
    """Import the program from this checkout's ``src/`` or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program at {src}/repro; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT), str(src)]
    import importlib
    for name in IMPORTS[workload]:
        importlib.import_module(name)


def _setup(workload: str, seed: int):
    """Import, generate the inputs and start what the workload needs."""
    _import_program(workload)
    from perfbench.suite import make_workload
    work = make_workload(workload, seed, SCRATCH)
    work.start()
    return work


def _probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter (import included), at the
    reference host speed."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _end_to_end(passes, setup_s: float, attempted: int,
                failed: int) -> dict:
    """The end-to-end metrics over identical passes, at reference speed.

    Pass times and point latencies are divided by the host's slowdown
    around them, as the speed probes measured it (see
    ``perfbench.suite.PassClock``).  Latency percentiles pool the points of
    every pass; throughput takes the median pass.
    """
    latencies = [result.calibrated_latency_s(point)
                 for result in passes for point in result.points]

    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    pass_s = statistics.median(r.calibrated_wall_s for r in passes)
    return {
        "points_per_s": len(passes[0].points) / pass_s,
        "point_p50_s": statistics.median(latencies),
        "point_p90_s": deciles[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }


def _log(line: str) -> None:
    print(f"[perfbench] {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and check its outputs.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work = _setup(args.workload, args.seed)
    setup_main = time.perf_counter() - _STARTED
    from perfbench import reference, tracing
    from perfbench.suite import host_slowdown, run_passes

    # At the reference host speed, as the passes' times are.
    setup_main /= host_slowdown()
    if args.setup_probe:
        work.close()
        print(repr(setup_main))
        return 0

    try:
        setups = [setup_main] + [_probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(setups)
        if args.trace:
            untraced = run_passes(work.run_pass, args.seconds / 2)
            tracer = tracing.Tracer().install()
            try:
                before = tracer.snapshot()
                traced = run_passes(
                    tracer.span("pass", "pass", work.run_pass),
                    args.seconds / 2)
                after = tracer.snapshot()
            finally:
                tracer.uninstall()
            # One more pass counts the hot functions; its times are not
            # reported.
            counting = tracing.Tracer(count_hot=True).install()
            try:
                counted = run_passes(
                    counting.span("pass", "pass", work.run_pass), 0)
            finally:
                counting.uninstall()
            passes = untraced + traced + counted
        else:
            untraced = passes = run_passes(work.run_pass, args.seconds)
    except Exception:
        traceback.print_exc()
        _log("a point raised; no result")
        return 1
    finally:
        work.close()

    findings = []
    attempted, failed = reference.check(args.workload, args.seed, passes,
                                        work, findings.append)
    for line in findings:
        _log(line)
    correct = failed == 0

    e2e = _end_to_end(untraced, setup_s, attempted, failed)
    per_pass = len(untraced[0].points)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} "
          f"untraced pass(es) of {per_pass} points, closed loop, 1 caller")
    units = _units()
    for name, value in e2e.items():
        print(f"  {name:<14} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':<14} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} points)")
    raw_s = statistics.median(r.wall_s for r in untraced)
    print(f"  point latency percentiles over {per_pass * len(untraced)} "
          f"samples; setup_s is the median of {len(setups)} set-ups")
    print("  host slowdown per pass vs the reference speed: "
          + ", ".join(f"{r.slowdown:.3f}" for r in untraced)
          + f"; uncalibrated points_per_s {per_pass / raw_s:.6g}")

    if args.trace:
        metrics, detail = tracing.layer_metrics(tracer, before, after, traced,
                                                counting, counted)
        untraced_s = statistics.mean(r.calibrated_wall_s for r in untraced)
        traced_s = statistics.mean(r.calibrated_wall_s for r in traced)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        detail.update(workload=args.workload, seed=args.seed,
                      untraced_pass_s=untraced_s, traced_pass_s=traced_s,
                      metrics=metrics, end_to_end=e2e)
        SCRATCH.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(SCRATCH / f"trace-{stem}.jsonl")
        (SCRATCH / f"report-{stem}.json").write_text(
            json.dumps(detail, indent=1, sort_keys=True) + "\n")
        print(f"  traced pass {traced_s:.4f} s vs untraced {untraced_s:.4f} "
              f"s: tracing overhead {metrics['trace.overhead_s']:.4f} s")
        print("  self time per layer per traced pass (s):")
        for layer, value in sorted(detail["self_s_per_pass"].items(),
                                   key=lambda kv: -kv[1]):
            print(f"    {layer:<36} {value:>10.4f}")
        print("  per-layer metrics:")
        for name, value in metrics.items():
            base = detail["bases"].get(name)
            print(f"    {name:<36} {value:>14.6g}"
                  + (f"  (base: {base})" if base else ""))
        reported = metrics
    else:
        reported = e2e

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()}}))
    return 0 if correct else 1


def _units() -> dict:
    """Metric units, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())

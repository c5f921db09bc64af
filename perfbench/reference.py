"""Reference outputs kept with the benchmark, and the check against them.

Every point's exact simulated outputs -- ``(total_cycles, tlb_misses,
faults)`` -- are compared with a reference produced by an independent path:

* ``replay_grid``: the event tier (``tier="event"``), so the check also pins
  replay == event;
* ``fleet_resweep``: a serial ``run_job`` of every point, keyed by kernel,
  TLB size and spec-seed offset, so it also pins distributed == serial; the
  check also asserts that each submitted point reaches the caller exactly
  once per sweep;
* ``dse_contention``: the evaluations and the recovered Pareto front of
  every stored sampler seed.

References are stored for seeds 0-15 (see ``STORED_SEEDS``).  For any other
seed the check falls back to what it can establish in-run: every pass must
repeat the first pass exactly, ``replay_grid`` re-runs six of its points
(one per kernel, every model covered) on the event tier and
``fleet_resweep`` runs all of its points serially, after the timed passes.

Regenerate after an intentional change to simulated results::

    python3 perfbench/reference.py [--workload NAME] [--seeds 0 1 ...]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
STORED_SEEDS = tuple(range(16))


def _path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load(name: str) -> Dict[str, Any]:
    path = _path(name)
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _save(name: str, data: Dict[str, Any]) -> None:
    """Write one line per top-level key, and per seed within the tables."""
    def compact(value: Any) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    lines = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, dict) and value:
            rows = [f"  {json.dumps(k)}: {compact(v)}"
                    for k, v in sorted(value.items())]
            lines.append(f" {json.dumps(key)}: {{\n" + ",\n".join(rows)
                         + "\n }")
        else:
            lines.append(f" {json.dumps(key)}: {compact(value)}")
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    _path(name).write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _key(ident: Sequence[Any]) -> str:
    return "/".join(str(part) for part in ident)


def _canonical(value: Any) -> Any:
    """JSON round trip, so stored and fresh values compare like for like."""
    return json.loads(json.dumps(value, sort_keys=True))


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------
def check(name: str, seed: int, passes: List[Any], work: Any,
          log) -> Tuple[int, int]:
    """Compare every pass with the reference; returns (attempted, failed).

    A point that mismatches counts as failed once per pass it appears in.
    ``log`` receives one line per finding.
    """
    attempted = sum(len(p.points) for p in passes)
    failed = 0
    first = {point.ident: point.outputs for point in passes[0].points}
    # Every pass runs identical inputs: any divergence is a failure too.
    for index, result in enumerate(passes[1:], start=1):
        for point in result.points:
            if first.get(point.ident) != point.outputs:
                failed += 1
                log(f"pass {index} diverges from pass 0 at {point.ident}")
    if name == "dse_contention":
        failed += _check_dse(passes, log)
    elif name == "replay_grid":
        failed += _check_replay(seed, passes, work, log)
    elif name == "fleet_resweep":
        failed += _check_fleet(seed, passes, work, log)
    return attempted, min(failed, attempted)


def _check_dse(passes: List[Any], log) -> int:
    stored = load("dse_contention").get("by_sampler_seed", {})
    failed = 0
    for result in passes:
        by_seed: Dict[str, List[Any]] = {}
        for point in result.points:
            by_seed.setdefault(str(point.ident[0]), []).append(
                list(point.outputs))
        for sampler_seed, outputs in by_seed.items():
            ref = stored.get(sampler_seed)
            if ref is None:
                continue
            front = _canonical(result.extra["fronts"][sampler_seed])
            if outputs != ref["points"] or front != ref["front"]:
                failed += len(outputs)
                log(f"sampler seed {sampler_seed}: evaluations or front "
                    "differ from the reference")
    missing = sorted({str(p.ident[0]) for p in passes[0].points}
                     - set(stored), key=int)
    if missing:
        log(f"no stored reference for sampler seeds {missing}: checked "
            "pass-to-pass determinism only")
    return failed


def event_subset(jobs) -> List[Tuple[Tuple, Any]]:
    """The replay points re-run on the event tier when no reference is
    stored: one per kernel at the smallest TLB size, the models taken in
    turn so that each model is covered."""
    from perfbench.suite import REPLAY_KERNELS, REPLAY_MODELS
    wanted = {(kernel, REPLAY_MODELS[i % len(REPLAY_MODELS)])
              for i, kernel in enumerate(REPLAY_KERNELS)}
    smallest = min(ident[2] for ident, _ in jobs)
    return [(ident, job) for ident, job in jobs
            if ident[:2] in wanted and ident[2] == smallest]


def _check_replay(seed: int, passes: List[Any], work: Any, log) -> int:
    stored = load("replay_grid").get("by_seed", {}).get(str(seed))
    if stored is None:
        stored = _serial_reference(event_subset(work.jobs), "event")
        log(f"no stored reference for seed {seed}: re-ran "
            f"{len(stored)} points on the event tier")
    failed = 0
    for result in passes:
        for point in result.points:
            ref = stored.get(_key(point.ident))
            if ref is not None and list(point.outputs) != ref:
                failed += 1
                log(f"{point.ident}: {point.outputs} != event tier {ref}")
    return failed


def _check_fleet(seed: int, passes: List[Any], work: Any, log) -> int:
    stored = load("fleet_resweep").get("by_seed", {}).get(str(seed))
    if stored is None:
        stored = _serial_reference(work.jobs)
        log(f"no stored reference for seed {seed}: ran its {len(stored)} "
            "points serially")
    # Each sweep delivers each of its points exactly once.
    expected = Counter([("cold",) + ident for ident, _ in work.cold]
                       + [("resweep",) + ident for ident, _ in work.jobs])
    failed = 0
    for index, result in enumerate(passes):
        delivered = Counter(point.ident for point in result.points)
        for ident in expected.keys() | delivered.keys():
            if delivered[ident] != expected[ident]:
                failed += 1
                log(f"pass {index}: {ident} delivered {delivered[ident]} "
                    f"times, expected {expected[ident]}")
        for point in result.points:
            ref = stored.get(_key(point.ident[1:]))
            if ref is None or list(point.outputs) != ref:
                failed += 1
                log(f"{point.ident}: {point.outputs} != serial {ref}")
    return failed


def _serial_reference(jobs, tier: Optional[str] = None
                      ) -> Dict[str, List[int]]:
    """Run ``jobs`` one by one, on ``tier`` when given."""
    from dataclasses import replace

    from repro.exec import run_job

    out = {}
    for ident, job in jobs:
        outcome = run_job(job if tier is None else replace(job, tier=tier))
        out[_key(ident)] = [outcome.total_cycles, outcome.tlb_misses,
                            outcome.faults]
    return out


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------
def generate_dse(seeds: Sequence[int]) -> None:
    import repro.eval.experiments as experiments

    from perfbench.suite import DseContention

    data = load("dse_contention")
    if data.get("budget") != DseContention.budget:
        # Evaluations under another budget are not comparable: start over.
        data = {"budget": DseContention.budget, "by_sampler_seed": {}}
    evaluate = experiments._fig14_point
    for seed in seeds:
        for sampler_seed in DseContention(seed).sampler_seeds:
            outputs: List[List[int]] = []

            def recording(candidate, **kwargs):
                values = evaluate(candidate, **kwargs)
                outputs.append([values["cycles"], values["tlb_misses"],
                                values["faults"]])
                return values

            experiments._fig14_point = recording
            try:
                result = experiments.fig14_adaptive_dse(
                    scale="tiny", budget=DseContention.budget,
                    seed=sampler_seed)
            finally:
                experiments._fig14_point = evaluate
            data["by_sampler_seed"][str(sampler_seed)] = {
                "points": outputs, "front": _canonical(result["front"])}
        print(f"dse_contention: seed {seed} done", file=sys.stderr)
    _save("dse_contention", data)


def generate_replay(seeds: Sequence[int]) -> None:
    from perfbench.suite import replay_jobs

    data = load("replay_grid") or {"by_seed": {}}
    data["tier"] = "event"
    for seed in seeds:
        data["by_seed"][str(seed)] = _serial_reference(replay_jobs(seed),
                                                        "event")
        print(f"replay_grid: seed {seed} done", file=sys.stderr)
        _save("replay_grid", data)


def generate_fleet(seeds: Sequence[int]) -> None:
    from perfbench.suite import fleet_jobs

    data = load("fleet_resweep") or {"by_seed": {}}
    data["serial"] = True
    for seed in seeds:
        data["by_seed"][str(seed)] = _serial_reference(fleet_jobs(seed))
        print(f"fleet_resweep: seed {seed} done", file=sys.stderr)
    _save("fleet_resweep", data)


def main(argv=None) -> int:
    generators = {"dse_contention": generate_dse,
                  "replay_grid": generate_replay,
                  "fleet_resweep": generate_fleet}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(generators))
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(STORED_SEEDS))
    args = parser.parse_args(argv)
    root = HERE.parent
    sys.path[:0] = [str(root), str(root / "src")]
    for name, generate in generators.items():
        if args.workload in (None, name):
            generate(args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

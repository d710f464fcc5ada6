"""The repository benchmark: one workload, untraced or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload churn-default --seed 1 --seconds 8 --trace 0

Workloads are defined in ``perfbench/workloads.py`` and described in
``perfbench/README.md``.  A run:

1. generates the workload's inputs from ``--seed`` (not timed);
2. runs ``run_churn_campaign`` on them, with tracing off, again and again
   until the campaign loops have taken ``--seconds`` in total and pooled
   enough per-event samples for a p99;
3. with ``--trace 0``, sets up campaigns with zero events until it has
   timed at least three set-ups (cheap set-ups are repeated until they add
   up to two seconds); with ``--trace 1``, runs the campaign once more as
   the traced loop of ``perfbench/traced.py`` instead and checks that its
   outputs equal the untraced run's exactly;
4. checks every campaign's outputs with the correctness gate of
   ``perfbench/checks.py`` and checks that repeats of one campaign agree;
5. prints a table, a provenance record, and as its last line one JSON
   object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
   end-to-end metrics with ``--trace 0``, the per-layer ones with
   ``--trace 1``), and writes the same record, plus the spans of a traced
   run, under ``perfbench/out/``.

End-to-end timing hooks: a timestamp in the public ``on_round`` callback
per event, and one when ``run_churn_campaign`` calls ``adversary.reset()``
(its last step before the loop), which ends set-up time.  The host
timings are calibrated against a reference probe run between stretches
of the campaign (``perfbench/calibrate.py``); the wall-clock figures are
kept in the record.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

from calibrate import LoopClock, Probe, calibrated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Set-ups timed per run: at least ``SETUPS[0]``, and cheap ones repeated
#: until they add up to ``SETUP_FILL_S`` (at most ``SETUPS[1]``);
#: ``setup_s`` is their median.
SETUPS = (3, 50)
SETUP_FILL_S = 2.0
#: Event samples pooled before ``event_ms_p99`` has ten beyond it.
MIN_SAMPLES = 1000


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    return ap.parse_args(argv)


@dataclass
class Campaign:
    """One untraced campaign: its calibrated timings and its outputs."""

    setup_s: float
    setup_wall_s: float
    loop_s: float = 0.0
    loop_wall_s: float = 0.0
    event_ms: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    outcome: object = None
    error: Optional[str] = None


def timed_campaign(wl, events: int, probe: Probe) -> Campaign:
    """Run one campaign of ``events`` events through the public API."""
    from checks import outcome_from_result
    from repro.harness import run_churn_campaign

    graph = wl.fresh_graph()
    adversary = wl.make_adversary()
    loop = LoopClock(probe)
    clock = loop.clock
    setup_end: List[int] = []
    reset = adversary.reset

    def stamped_reset() -> None:
        setup_end.append(clock())
        reset()
        loop.start()

    adversary.reset = stamped_reset
    gc.collect()
    before = probe()
    t0 = clock()
    healer = None
    error = None
    try:
        healer = wl.make_healer(graph)
        result = run_churn_campaign(
            healer, adversary, events=events,
            on_round=lambda record, h: loop.stamp(), **wl.campaign,
        )
    except Exception:  # a failing campaign is reported, not fatal
        error = traceback.format_exc()
    if not setup_end:  # set-up itself raised
        setup_end.append(clock())
        loop.start()
    loop.stop()
    setup_wall = (setup_end[0] - t0) / 1e9
    run = Campaign(
        setup_s=calibrated(setup_wall, (before, loop.probes[0])),
        setup_wall_s=setup_wall,
        loop_s=loop.calibrated_s(),
        loop_wall_s=loop.wall_s,
        event_ms=loop.calibrated_event_ms(),
        probes=[before] + loop.probes,
    )
    if error is not None:
        run.error = error
    else:
        run.outcome = outcome_from_result(result, healer)
    return run


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, wl) -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "utc_date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params,
    }


def end_to_end(
    full: List[Campaign], setups: List[Campaign], probe_rss_mb: float
) -> Dict[str, tuple]:
    """End-to-end metrics of the campaigns that ran, as ``name -> (value, unit)``."""
    first = full[0].outcome
    pooled = [ms for r in full for ms in r.event_ms]
    return {
        "events_per_s": (
            statistics.median(len(r.event_ms) / r.loop_s for r in full), "1/s"),
        "event_ms_p50": (percentile(pooled, 0.50), "ms"),
        "event_ms_p99": (percentile(pooled, 0.99), "ms"),
        "setup_s": (statistics.median(r.setup_s for r in setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            - probe_rss_mb, "MB"),
        "peak_degree_increase": (first.peak_degree_increase, "count"),
        "peak_stretch": (first.peak_stretch, "ratio"),
        "msgs_per_node_peak": (first.msgs_per_node_peak, "msgs"),
    }


def wall_clock(full: List[Campaign], setups: List[Campaign]) -> Dict[str, float]:
    """Uncalibrated figures, kept in the record beside the metrics."""
    if not full:
        return {}
    probes = [p for r in setups for p in r.probes]
    return {
        "events_per_s": statistics.median(
            len(r.event_ms) / r.loop_wall_s for r in full),
        "setup_s": statistics.median(r.setup_wall_s for r in setups),
        "probe_ms": statistics.median(probes) * 1e3,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {src / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from checks import gate, mismatches
    from workloads import SIZES, build

    if args.workload not in SIZES:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(SIZES)})", file=sys.stderr)
        return 2
    wl = build(args.workload, args.seed, args.scale)
    probe = Probe()
    min_samples = MIN_SAMPLES if args.scale == "full" else 0
    problems: List[str] = []
    attempted = failed = 0

    def judge(run: Campaign, events: int, reference=None) -> None:
        nonlocal attempted, failed
        attempted += events
        if run.error is not None:
            # Unfinished events fail; a raise after the last event
            # (mirror drain, audit) fails them all.
            failed += events - len(run.event_ms) or events
            problems.append(run.error.strip().splitlines()[-1])
            print(run.error, file=sys.stderr)
            return
        bad = gate(run.outcome, wl.protocol, events)
        if reference is not None:
            bad += [f"{k} differs between repeats"
                    for k in mismatches(reference, run.outcome)]
        if bad:
            failed += events
            problems.extend(bad)

    # -- untraced: repeat the campaign until the loops fill --seconds ----
    runs: List[Campaign] = []
    traced = None
    loop_total = 0.0
    samples = 0
    while not runs or loop_total < args.seconds or samples < min_samples:
        run = timed_campaign(wl, wl.events, probe)
        judge(run, wl.events, runs[0].outcome if runs else None)
        runs.append(run)
        loop_total += run.loop_wall_s
        samples += len(run.event_ms)
        if run.error is not None:
            break
    ok_runs = [r for r in runs if r.error is None]
    metrics: Dict[str, tuple] = {}
    setups = list(runs)
    if ok_runs and args.trace:
        # -- traced: one campaign with a span per call into a layer -----
        # It runs right after the untraced campaigns, in the same heap
        # state, so ``trace.overhead`` compares like with like.
        from layers import per_layer
        from traced import traced_campaign

        attempted += wl.events
        try:
            traced = traced_campaign(wl)
        except Exception:
            failed += wl.events
            problems.append("traced run raised")
            print(traceback.format_exc(), file=sys.stderr)
        if traced is not None:
            bad = gate(traced.outcome, wl.protocol, wl.events)
            bad += [f"traced run differs on {k}"
                    for k in mismatches(ok_runs[0].outcome, traced.outcome)]
            if bad:
                failed += wl.events
                problems.extend(bad)
            untraced_loop = statistics.median(r.loop_wall_s for r in ok_runs)
            metrics = per_layer(traced, untraced_loop)
    elif ok_runs:
        while len(setups) < SETUPS[1] and (
            len(setups) < SETUPS[0]
            or sum(r.setup_wall_s for r in setups) < SETUP_FILL_S
        ):
            extra = timed_campaign(wl, 0, probe)
            judge(extra, 0)
            if extra.error is not None:
                break
            setups.append(extra)
        metrics = end_to_end(ok_runs, setups, probe.rss_mb)

    correct = not problems and bool(metrics)
    prov = provenance(args, wl)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"campaigns={len(runs)} setups={len(setups)} "
          f"event samples={samples}")
    wall = wall_clock(ok_runs, setups)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for name, value in wall.items():
        print(f"  (wall clock) {name:<23} {value:>16.6g}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    record = {
        "provenance": prov,
        "event_samples": samples,
        "campaigns": len(runs),
        "problems": problems,
        "wall_clock": wall,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced is not None:
        traced.log.write_jsonl(str(OUT / f"{stem}-spans.jsonl"))
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

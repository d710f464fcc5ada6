"""Layer coverage of the traced run, as one table of layers by workloads.

Usage (from the repository root)::

    python3 perfbench/coverage_report.py [--seed 1]

Runs every workload with ``--trace 1`` at full size for the
``run_seconds`` of ``BENCHMARK.json``, one process after another, and
prints each layer's share of the traced loop wall together with
``harness.unattributed_share`` and ``trace.overhead``.  Exits 1 if a run
fails or reports incorrect outputs, or if the layer spans leave more than
:data:`MAX_UNATTRIBUTED` of a traced loop's wall unattributed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
WORKLOADS = ("churn-default", "replay-deep", "async-hostile", "fg-massacre")
LAYERS = ("adversaries", "core", "graphs.incremental", "graphs.metrics",
          "fgraph", "simnet", "audit")
#: Largest share of the traced loop wall the layer spans may leave uncovered.
MAX_UNATTRIBUTED = 0.10


def invoke(workload: str, seed: int, seconds: float, trace: int,
           scale: str = "full") -> Tuple[int, Optional[dict], str]:
    """Run one benchmark process; return (exit code, last-line JSON, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--scale", scale],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def table(results: Dict[str, dict]) -> List[str]:
    """Format the layers-by-workloads share table."""
    rows = [f"share{'':<22}" + "".join(f"{w:>15}" for w in results)]
    for name in [f"{layer}.share" for layer in LAYERS] + [
        "harness.unattributed_share", "trace.overhead",
    ]:
        cells = "".join(
            f"{r['metrics'][name]['value']:>15.4f}" for r in results.values()
        )
        rows.append(f"{name:<27}{cells}")
    return rows


def check(results: Dict[str, dict]) -> List[str]:
    """Coverage failures: unattributed shares above the limit."""
    return [
        f"{w}: unattributed {r['metrics']['harness.unattributed_share']['value']:.3f}"
        f" > {MAX_UNATTRIBUTED}"
        for w, r in results.items()
        if r["metrics"]["harness.unattributed_share"]["value"] > MAX_UNATTRIBUTED
    ]


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results: Dict[str, dict] = {}
    failures: List[str] = []
    for workload in WORKLOADS:
        code, result, err = invoke(workload, args.seed, seconds, 1)
        if code != 0 or result is None or not result["correct"]:
            failures.append(f"{workload}: exit {code}, result {result and result['correct']}")
            print(err, file=sys.stderr)
            continue
        results[workload] = result
    if results:
        print("\n".join(table(results)))
    failures += check(results)
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

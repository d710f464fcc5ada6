"""Smoke test of the benchmark: every workload at tiny size on two seeds.

Usage (from the repository root)::

    python3 perfbench/smoke.py

For each workload and seed it runs ``perfbench/run.py --scale tiny`` with
``--trace 0`` and with ``--trace 1`` and checks that the run exits 0, that
its last line is the result object, that the correctness gate and the
traced/untraced parity check passed (``correct`` with no failed events),
and that it emits exactly the metrics ``BENCHMARK.json`` names for that
mode, each with its unit.  It also checks that ``BENCHMARK.json`` lists
the per-layer metrics ``perfbench/layers.py`` computes, and prints the
tiny runs' coverage table.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from coverage_report import WORKLOADS, invoke, table

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expected(spec: dict, trace: int) -> Dict[str, str]:
    """Metric name -> unit that ``BENCHMARK.json`` requires for a mode."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def problems_in(result: dict, want: Dict[str, str]) -> List[str]:
    bad = []
    if set(result) != RESULT_KEYS:
        bad.append(f"result keys {sorted(result)}")
        return bad
    if not result["correct"] or result["failed"]:
        bad.append(f"correct={result['correct']} failed={result['failed']}")
    if result["attempted"] < 1:
        bad.append("attempted < 1")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        bad.append(f"metrics missing {missing} extra {extra} wrong units {units}")
    return bad


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    from layers import PER_LAYER

    failures: List[str] = []
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != PER_LAYER:
        failures.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    traced: Dict[str, dict] = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                code, result, err = invoke(workload, seed, 0.5, trace, "tiny")
                where = f"{workload} seed={seed} trace={trace}"
                if code != 0 or result is None:
                    bad = [f"exit {code}, no result"]
                    print(err, file=sys.stderr)
                else:
                    bad = problems_in(result, expected(spec, trace))
                    if trace and seed == SEEDS[0]:
                        traced[workload] = result
                print(f"{'FAIL' if bad else 'ok':<5}{where}")
                failures += [f"{where}: {p}" for p in bad]
    if len(traced) == len(WORKLOADS):
        print("\n".join(table(traced)))
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""EXP-FAULT-TAX — the price of a hostile network.

One experiment: the same seeded churn campaign run at message-drop
probabilities p ∈ {0, 0.01, 0.05, 0.2} (duplication fixed at 2%), for
both healers on the async transport.  Because losses are absorbed by
the timeout/retransmit layer and duplicates by the seen-windows, the
oracle event stream is *identical* across drop rates — the sweep
isolates the fault tax: virtual makespan stretch and message overhead
(retransmissions + duplicate copies on top of the base traffic).

Each row reports the exact-accounting invariants the fault plane pins
(``retransmissions == drops``, ``dup_suppressed == duplicates``), the
base message count (identical down the sweep), and the overhead and
makespan ratios relative to the p=0 row of the same healer.

Results are dumped to ``benchmarks/out/BENCH_faults.json`` for the CI
artifacts.  Quick mode: ``CHURN_BENCH_QUICK=1``.
"""

import time

from repro.adversaries import ScatterChurnAdversary
from repro.baselines import ForgivingTreeHealer
from repro.faults import FaultPlan
from repro.fgraph.healer import ForgivingGraphHealer
from repro.graphs import generators
from repro.harness import report, run_churn_campaign
from repro.simnet import TransportSpec

from benchmarks.conftest import QUICK, dump_bench, emit, table

FAULT_N = 150 if QUICK else 800
FAULT_EVENTS = 40 if QUICK else 160
DROP_RATES = (0.0, 0.01, 0.05, 0.2)
DUP_RATE = 0.02

FAULT_HEADERS = [
    "healer", "drop", "base msgs", "retrans", "dups", "dead",
    "overhead", "makespan", "stretch", "ms/event",
]


def _campaign(healer_cls, drop, tree_seed=11, adv_seed=3):
    tree = generators.random_tree(FAULT_N, seed=tree_seed)
    healer = healer_cls({k: set(v) for k, v in tree.items()})
    spec = TransportSpec(
        mode="async", latency="uniform", gap=0.1, barrier_every=16
    )
    plan = FaultPlan(drop=drop, dup=DUP_RATE)
    t0 = time.perf_counter()
    result = run_churn_campaign(
        healer,
        ScatterChurnAdversary(p_insert=0.25, seed=adv_seed),
        events=FAULT_EVENTS,
        metrics="none",
        seed=adv_seed,
        transport=spec,
        faults=plan,
    )
    elapsed = time.perf_counter() - t0
    return result, elapsed


def run_fault_tax():
    """Drop-rate sweep for both healers, overhead vs the p=0 baseline."""
    rows = []
    for healer_cls, name in (
        (ForgivingTreeHealer, "forgiving-tree"),
        (ForgivingGraphHealer, "forgiving-graph"),
    ):
        base_msgs = base_makespan = None
        for drop in DROP_RATES:
            result, elapsed = _campaign(healer_cls, drop)
            t = result.transport
            fs = t.faults
            # Every loss was retransmitted and every duplicate caught,
            # so the *base* traffic is fault-invariant down the sweep.
            assert fs.retransmissions == fs.drops, (name, drop)
            assert fs.dup_suppressed == fs.duplicates, (name, drop)
            assert fs.unrepaired_violations == 0, (name, drop)
            base = t.messages_delivered - fs.duplicates
            if base_msgs is None:
                base_msgs, base_makespan = base, t.makespan
            assert base == base_msgs, (name, drop)
            overhead = (fs.retransmissions + fs.duplicates) / base
            rows.append(
                [
                    name,
                    drop,
                    base,
                    fs.retransmissions,
                    fs.duplicates,
                    fs.dead_drops,
                    f"{100 * overhead:.1f}%",
                    f"{t.makespan:.1f}",
                    f"{t.makespan / base_makespan:.2f}x",
                    f"{1e3 * elapsed / t.events:.1f}",
                ]
            )
    return rows


def _dump_json(fault_rows):
    dump_bench(
        "faults",
        {"fault_tax": table(FAULT_HEADERS, fault_rows)},
        n=FAULT_N,
        events=FAULT_EVENTS,
        dup=DUP_RATE,
    )


def _check(fault_rows):
    per_healer = len(DROP_RATES)
    for i in range(0, len(fault_rows), per_healer):
        sweep = fault_rows[i : i + per_healer]
        # p=0 pays no retransmissions; the tax then grows monotonically
        # with the drop rate while the base traffic stays fixed.
        assert sweep[0][3] == 0, sweep[0][0]
        retrans = [row[3] for row in sweep]
        assert retrans == sorted(retrans), sweep[0][0]
        assert sweep[-1][3] > 0, sweep[-1][0]
        assert len({row[2] for row in sweep}) == 1, sweep[0][0]
        # Heavier loss can only stretch the virtual makespan.
        assert float(sweep[-1][7]) >= float(sweep[0][7]), sweep[-1][0]


def test_fault_benchmarks(benchmark, capsys):
    fault_rows = benchmark.pedantic(run_fault_tax, rounds=1, iterations=1)
    _check(fault_rows)
    _dump_json(fault_rows)

    emit(
        capsys,
        report.banner(
            f"EXP-FAULT-TAX  scatter churn on random-tree-{FAULT_N}, "
            f"uniform latency, dup={DUP_RATE}, drop-rate sweep"
        ),
    )
    emit(capsys, report.format_table(FAULT_HEADERS, fault_rows))


if __name__ == "__main__":
    # Standalone mode: PYTHONPATH=src python -m benchmarks.bench_faults
    rows = run_fault_tax()
    _check(rows)
    _dump_json(rows)
    print(
        report.banner(
            f"EXP-FAULT-TAX  scatter churn on random-tree-{FAULT_N}, "
            f"uniform latency, dup={DUP_RATE}, drop-rate sweep"
        )
    )
    print(report.format_table(FAULT_HEADERS, rows))

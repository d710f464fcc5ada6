"""EXP-ASYNC — the discrete-event transport under concurrent churn.

Four experiments on the async simnet (``transport="async"`` campaigns:
the distributed runtime heals *while further churn lands*, admission by
heal-footprint disjointness or region leases, every quiesce barrier
cross-validated against the sequential engine node-for-node):

* **EXP-ASYNC-THROUGHPUT** — heal latency and in-flight depth vs event
  concurrency: shrinking the virtual inter-arrival gap packs more heals
  into flight at once; the table reports peak concurrent heals, peak
  queued messages, heal-latency percentiles (virtual time) and the
  conflict-barrier count at each gap.
* **EXP-ASYNC-LATENCY** — the three link-latency models head to head,
  for both healers: constant (lock-step-like), uniform jitter, and
  heavy-tail (straggler-dominated), same churn stream.
* **EXP-ASYNC-SCALE** — kernel scaling: wall time per event and
  concurrency sustained as n grows to 10k.
* **EXP-OVERLAP-MAKESPAN** — the overlap policies head to head on an
  *overlap-heavy* workload (``OverlapChurnAdversary`` aims events into
  in-flight heal regions): virtual makespan of ``overlap="serialize"``
  (every conflict drains the whole network) vs ``overlap="lease"``
  (conflicting events delegate to the owning coordinator and resume on
  lease release), with lease waits and escalations reported.

Results are dumped to ``benchmarks/out/BENCH_async.json`` (the overlap
duel separately to ``benchmarks/out/BENCH_overlap.json``) for the CI
artifacts.  Quick mode: ``CHURN_BENCH_QUICK=1``.
"""

import os
import time

from repro.adversaries import OverlapChurnAdversary, ScatterChurnAdversary
from repro.baselines import ForgivingTreeHealer
from repro.fgraph.healer import ForgivingGraphHealer
from repro.graphs import generators
from repro.harness import report, run_churn_campaign
from repro.simnet import TransportSpec

from benchmarks.conftest import QUICK, dump_bench, emit, table

THROUGHPUT_N = 300 if QUICK else 2000
THROUGHPUT_EVENTS = 60 if QUICK else 250
GAPS = (2.0, 0.5, 0.1, 0.02)
LATENCY_N = 200 if QUICK else 1000
LATENCY_EVENTS = 50 if QUICK else 200
SCALE_SIZES = (100, 500) if QUICK else (100, 1000, 10_000)
SCALE_EVENTS = (lambda n: 40) if QUICK else (lambda n: max(60, n // 40))
OVERLAP_N = 250 if QUICK else 1200
OVERLAP_EVENTS = 80 if QUICK else 300
OUT_PATH = os.path.join(os.path.dirname(__file__), "out", "BENCH_async.json")
OVERLAP_OUT_PATH = os.path.join(
    os.path.dirname(__file__), "out", "BENCH_overlap.json"
)


def _campaign(healer_cls, n, events, spec, tree_seed=11, adv_seed=3, adversary=None):
    tree = generators.random_tree(n, seed=tree_seed)
    healer = healer_cls({k: set(v) for k, v in tree.items()})
    if adversary is None:
        adversary = ScatterChurnAdversary(p_insert=0.25, seed=adv_seed)
    t0 = time.perf_counter()
    result = run_churn_campaign(
        healer,
        adversary,
        events=events,
        metrics="none",
        seed=adv_seed,
        transport=spec,
    )
    elapsed = time.perf_counter() - t0
    return result, elapsed


def run_throughput_sweep():
    """Concurrency knob: the virtual inter-arrival gap."""
    rows = []
    for gap in GAPS:
        spec = TransportSpec(
            mode="async", latency="uniform", gap=gap, barrier_every=16
        )
        result, elapsed = _campaign(
            ForgivingTreeHealer, THROUGHPUT_N, THROUGHPUT_EVENTS, spec
        )
        t = result.transport
        pct = t.heal_latency_percentiles
        rows.append(
            [
                gap,
                t.peak_in_flight_heals,
                t.peak_queue_depth,
                f"{pct['p50']:.2f}",
                f"{pct['p99']:.2f}",
                t.conflict_barriers,
                f"{t.makespan:.0f}",
                f"{1e3 * elapsed / t.events:.1f}",
            ]
        )
    return rows


def run_latency_models():
    rows = []
    for healer_cls, name in (
        (ForgivingTreeHealer, "forgiving-tree"),
        (ForgivingGraphHealer, "forgiving-graph"),
    ):
        for latency in ("constant", "uniform", "heavy-tail"):
            spec = TransportSpec(
                mode="async", latency=latency, gap=0.1, barrier_every=16
            )
            result, _elapsed = _campaign(
                healer_cls, LATENCY_N, LATENCY_EVENTS, spec
            )
            t = result.transport
            pct = t.heal_latency_percentiles
            rows.append(
                [
                    name,
                    latency,
                    t.peak_in_flight_heals,
                    f"{pct['p50']:.2f}",
                    f"{pct['p90']:.2f}",
                    f"{pct['p99']:.2f}",
                    f"{pct['max']:.1f}",
                ]
            )
    return rows


def run_scale_sweep():
    rows = []
    for n in SCALE_SIZES:
        events = SCALE_EVENTS(n)
        spec = TransportSpec(
            mode="async", latency="uniform", gap=0.05, barrier_every=16
        )
        result, elapsed = _campaign(ForgivingTreeHealer, n, events, spec)
        t = result.transport
        rows.append(
            [
                n,
                t.events,
                t.peak_in_flight_heals,
                t.messages_delivered,
                t.barriers,
                f"{1e3 * elapsed / t.events:.1f}",
            ]
        )
    return rows


def run_overlap_makespan():
    """EXP-OVERLAP-MAKESPAN: serialize vs lease on overlap-heavy churn."""
    rows = []
    for healer_cls, name in (
        (ForgivingTreeHealer, "forgiving-tree"),
        (ForgivingGraphHealer, "forgiving-graph"),
    ):
        makespans = {}
        for overlap in ("serialize", "lease"):
            spec = TransportSpec(
                mode="async",
                overlap=overlap,
                latency="heavy-tail",
                gap=0.05,
                barrier_every=0,  # only the final barrier: pure makespan
            )
            result, _elapsed = _campaign(
                healer_cls,
                OVERLAP_N,
                OVERLAP_EVENTS,
                spec,
                adversary=OverlapChurnAdversary(
                    seed=3, p_overlap=0.75, p_coordinator=0.02
                ),
            )
            t = result.transport
            makespans[overlap] = t.makespan
            wait_pct = t.lease_wait_percentiles
            rows.append(
                [
                    name,
                    overlap,
                    f"{t.makespan:.1f}",
                    t.conflict_barriers,
                    t.lease_waits,
                    f"{wait_pct['p50']:.2f}",
                    f"{wait_pct['max']:.1f}",
                    t.total_escalations,
                    (
                        "-"
                        if overlap == "serialize"
                        else f"{makespans['serialize'] / t.makespan:.2f}x"
                    ),
                ]
            )
    return rows


def _dump_json(throughput_rows, latency_rows, scale_rows):
    dump_bench(
        "async",
        {
            "throughput": table(
                ["gap", "peak_inflight", "peak_queue", "p50",
                 "p99", "conflicts", "makespan", "ms_per_event"],
                throughput_rows,
            ),
            "latency_models": table(
                ["healer", "latency", "peak_inflight", "p50",
                 "p90", "p99", "max"],
                latency_rows,
            ),
            "scale": table(
                ["n", "events", "peak_inflight", "delivered",
                 "barriers", "ms_per_event"],
                scale_rows,
            ),
        },
    )


OVERLAP_HEADERS = [
    "healer", "overlap", "makespan", "conflicts", "lease waits",
    "wait p50", "wait max", "escalations", "speedup",
]


def _dump_overlap_json(overlap_rows):
    dump_bench(
        "overlap",
        {"overlap_makespan": table(OVERLAP_HEADERS, overlap_rows)},
        n=OVERLAP_N,
        events=OVERLAP_EVENTS,
    )


def _check(throughput_rows, latency_rows, scale_rows, overlap_rows):
    # Concurrency rises as the gap shrinks, and the smallest gap clears
    # the acceptance bar of >= 4 concurrent in-flight heals.
    assert throughput_rows[-1][1] >= throughput_rows[0][1]
    assert throughput_rows[-1][1] >= 4
    # Every latency-model campaign sustained concurrency and positive
    # heal latencies (the barriers inside already proved convergence).
    for row in latency_rows:
        assert row[2] >= 2
        assert float(row[3]) > 0
    for row in scale_rows:
        assert row[2] >= 4
    # The ISSUE's acceptance bar: on the overlap-heavy workload the
    # lease policy records a measurably lower makespan than serialize,
    # having actually interleaved intersecting heals (lease waits > 0).
    for serialize_row, lease_row in zip(overlap_rows[0::2], overlap_rows[1::2]):
        assert serialize_row[0] == lease_row[0]
        assert float(lease_row[2]) < float(serialize_row[2]), lease_row[0]
        assert lease_row[4] > 0
        assert serialize_row[3] > 0  # serialize really hit conflicts


def test_async_benchmarks(benchmark, capsys):
    throughput_rows = benchmark.pedantic(
        run_throughput_sweep, rounds=1, iterations=1
    )
    latency_rows = run_latency_models()
    scale_rows = run_scale_sweep()
    overlap_rows = run_overlap_makespan()
    _check(throughput_rows, latency_rows, scale_rows, overlap_rows)
    _dump_json(throughput_rows, latency_rows, scale_rows)
    _dump_overlap_json(overlap_rows)

    emit(
        capsys,
        report.banner(
            f"EXP-ASYNC-THROUGHPUT  scatter churn on random-tree-{THROUGHPUT_N}, "
            "uniform latency, concurrency vs inter-arrival gap"
        ),
    )
    emit(
        capsys,
        report.format_table(
            ["gap", "peak in-flight", "peak queue", "p50 lat", "p99 lat",
             "conflicts", "makespan", "ms/event"],
            throughput_rows,
        ),
    )
    emit(
        capsys,
        report.banner(
            f"EXP-ASYNC-LATENCY  link-latency models at n={LATENCY_N}"
        ),
    )
    emit(
        capsys,
        report.format_table(
            ["healer", "latency", "peak in-flight", "p50", "p90", "p99", "max"],
            latency_rows,
        ),
    )
    emit(capsys, report.banner("EXP-ASYNC-SCALE  kernel scaling"))
    emit(
        capsys,
        report.format_table(
            ["n", "events", "peak in-flight", "delivered", "barriers",
             "ms/event"],
            scale_rows,
        ),
    )
    emit(
        capsys,
        report.banner(
            f"EXP-OVERLAP-MAKESPAN  overlap-churn on random-tree-{OVERLAP_N}, "
            "heavy-tail latency, serialize vs region leases"
        ),
    )
    emit(capsys, report.format_table(OVERLAP_HEADERS, overlap_rows))


if __name__ == "__main__":
    # Standalone mode: PYTHONPATH=src python -m benchmarks.bench_async
    _throughput = run_throughput_sweep()
    _latency = run_latency_models()
    _scale = run_scale_sweep()
    _overlap = run_overlap_makespan()
    _check(_throughput, _latency, _scale, _overlap)
    for banner, rows, headers in (
        (
            "EXP-ASYNC-THROUGHPUT  concurrency vs inter-arrival gap",
            _throughput,
            ["gap", "peak in-flight", "peak queue", "p50 lat", "p99 lat",
             "conflicts", "makespan", "ms/event"],
        ),
        (
            f"EXP-ASYNC-LATENCY  link-latency models at n={LATENCY_N}",
            _latency,
            ["healer", "latency", "peak in-flight", "p50", "p90", "p99", "max"],
        ),
        (
            "EXP-ASYNC-SCALE  kernel scaling",
            _scale,
            ["n", "events", "peak in-flight", "delivered", "barriers",
             "ms/event"],
        ),
        (
            "EXP-OVERLAP-MAKESPAN  serialize vs region leases",
            _overlap,
            OVERLAP_HEADERS,
        ),
    ):
        print(report.banner(banner))
        print(report.format_table(headers, rows))
    _dump_json(_throughput, _latency, _scale)
    _dump_overlap_json(_overlap)
    print(f"\nwrote {OUT_PATH} and {OVERLAP_OUT_PATH}")

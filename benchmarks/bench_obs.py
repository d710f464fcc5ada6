"""EXP-OBS-OVERHEAD — the observability stack's cost, on and off.

Two measurements on the same seeded lease-mode churn campaign (the
workload every obs hook sits on: kernel deliveries, lease admission,
handoff transitions, quiesce barriers):

* **traced vs disabled** — wall µs/event with ``obs="full"`` (causal
  tracing + metrics + profiling + flight recorder) against ``obs=None``
  (every hook collapses to one attribute/None check), at n ∈ {100, 1000}.
* **the no-op hook itself** — a direct microbenchmark of the disabled
  guards (``tracer.enabled`` / ``profiler is None`` / ``metrics is not
  None``), scaled by the hooks executed per event, as a fraction of the
  disabled-mode per-event cost.  This is the ISSUE's acceptance bar:
  the disabled stack must cost **< 5%** — and being a deterministic
  count × a nanosecond-scale branch, the assertion is stable where a
  whole-campaign wall-clock diff at same-digit noise would flake.

**EXP-AUDIT-OVERHEAD** rides the same file: certificate checking
(``obs="audit"``) is one linear pass over the exported log at
quiescence, so its cost is measured directly — re-certification wall
against campaign wall on the same audited run — and must stay under
the same **< 5%** bar.  A linear scan of a few hundred records vs a
whole discrete-event campaign makes this assertion as stable as the
hook count.

Results go to ``benchmarks/out/BENCH_obs.json``.  Quick mode:
``CHURN_BENCH_QUICK=1``.
"""

import time

from repro.adversaries import ScatterChurnAdversary
from repro.baselines import ForgivingTreeHealer
from repro.graphs import generators
from repro.harness import report, run_churn_campaign
from repro.obs import NO_TRACE
from repro.simnet import TransportSpec

from benchmarks.conftest import QUICK, dump_bench, emit, table

SIZES = (100, 1000)
EVENTS = (lambda n: 40) if QUICK else (lambda n: max(80, n // 8))
SEED = 13

#: Disabled-mode guards executed per delivered message (the hot path):
#: the kernel's tracer check, profiler check and metrics check in
#: ``_deliver``, plus the sampler's tracer check.  Everything else
#: (per-heal, per-barrier) is amortized over many deliveries.
HOOKS_PER_DELIVERY = 4


def _campaign(n, obs):
    tree = generators.random_tree(n, seed=SEED)
    healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
    adversary = ScatterChurnAdversary(p_insert=0.25, seed=SEED)
    spec = TransportSpec(
        mode="async", overlap="lease", latency="uniform", gap=0.1,
        barrier_every=16,
    )
    t0 = time.perf_counter()
    result = run_churn_campaign(
        healer,
        adversary,
        events=EVENTS(n),
        metrics="none",
        seed=SEED,
        transport=spec,
        obs=obs,
    )
    return result, time.perf_counter() - t0


def run_overhead_sweep():
    rows = []
    for n in SIZES:
        base, base_s = _campaign(n, None)
        full, full_s = _campaign(n, "full")
        t = base.transport
        rows.append(
            [
                n,
                t.events,
                t.messages_delivered,
                f"{1e6 * base_s / t.events:.0f}",
                f"{1e6 * full_s / t.events:.0f}",
                f"{full_s / base_s:.2f}x",
                full.obs.trace_events,
            ]
        )
    return rows


def measure_hook_cost():
    """The disabled guards' cost per event, as a fraction of event cost.

    Times the exact branch the hot path takes when obs is off
    (``NO_TRACE.enabled`` plus two ``None`` checks) and scales it by the
    per-event delivery count of the measured campaign.
    """
    tracer, profiler, metrics = NO_TRACE, None, None
    reps = 200_000
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        if tracer.enabled:  # pragma: no cover - disabled
            pass
        if profiler is not None:  # pragma: no cover - disabled
            pass
        if metrics is not None:  # pragma: no cover - disabled
            pass
        if tracer.enabled:  # pragma: no cover - disabled
            pass
    hook_ns = (time.perf_counter_ns() - t0) / reps

    base, base_s = _campaign(SIZES[0], None)
    t = base.transport
    deliveries_per_event = t.messages_delivered / t.events
    event_ns = 1e9 * base_s / t.events
    # hook_ns already covers HOOKS_PER_DELIVERY guards (the loop body).
    overhead = (hook_ns * deliveries_per_event) / event_ns
    return {
        "hook_ns_per_delivery": round(hook_ns, 2),
        "deliveries_per_event": round(deliveries_per_event, 1),
        "event_us_disabled": round(event_ns / 1e3, 1),
        "disabled_overhead_fraction": round(overhead, 5),
    }


def run_audit_overhead():
    """EXP-AUDIT-OVERHEAD: certification wall vs campaign wall.

    The harness certifies once at quiescence; re-running
    ``audit_inputs.certify()`` here times exactly that pass in
    isolation, against the audited campaign's total wall."""
    rows = []
    for n in SIZES:
        result, campaign_s = _campaign(n, "audit")
        assert result.audit is not None and result.audit.ok
        certify_s = float("inf")
        for _ in range(3):  # best-of-3: the pass's cost, not OS noise
            t0 = time.perf_counter()
            result.audit_inputs.certify()
            certify_s = min(certify_s, time.perf_counter() - t0)
        rows.append(
            [
                n,
                result.transport.events,
                result.audit.records,
                len(result.audit.certificates),
                f"{1e3 * campaign_s:.1f}",
                f"{1e3 * certify_s:.2f}",
                round(certify_s / campaign_s, 4),
            ]
        )
    return rows


OVERHEAD_HEADERS = [
    "n", "events", "delivered", "us/event off", "us/event full",
    "ratio", "trace events",
]

AUDIT_HEADERS = [
    "n", "events", "log records", "heals", "campaign ms", "certify ms",
    "fraction",
]


def _check(rows, hook, audit_rows):
    for row in rows:
        assert row[6] > 0  # tracing really ran
    # The acceptance bar: the disabled stack costs < 5% of an event.
    assert hook["disabled_overhead_fraction"] < 0.05, hook
    for row in audit_rows:
        # Same bar for the auditor: one linear log scan per campaign.
        assert row[6] < 0.05, row


def test_obs_overhead(benchmark, capsys):
    rows = benchmark.pedantic(run_overhead_sweep, rounds=1, iterations=1)
    hook = measure_hook_cost()
    audit_rows = run_audit_overhead()
    _check(rows, hook, audit_rows)
    dump_bench(
        "obs",
        {
            "overhead": table(OVERHEAD_HEADERS, rows),
            "hook_cost": hook,
            "audit_overhead": table(AUDIT_HEADERS, audit_rows),
        },
    )
    emit(
        capsys,
        report.banner(
            "EXP-OBS-OVERHEAD  obs='full' vs obs=None on lease-mode churn"
        ),
    )
    emit(capsys, report.format_table(OVERHEAD_HEADERS, rows))
    emit(
        capsys,
        f"\ndisabled hooks: {hook['hook_ns_per_delivery']:.0f} ns × "
        f"{hook['deliveries_per_event']:.0f} deliveries/event = "
        f"{100 * hook['disabled_overhead_fraction']:.3f}% of a "
        f"{hook['event_us_disabled']:.0f} µs event  (bar: < 5%)",
    )
    emit(
        capsys,
        report.banner(
            "EXP-AUDIT-OVERHEAD  certificate pass vs campaign wall"
        ),
    )
    emit(capsys, report.format_table(AUDIT_HEADERS, audit_rows))


if __name__ == "__main__":
    # Standalone mode: PYTHONPATH=src python -m benchmarks.bench_obs
    _rows = run_overhead_sweep()
    _hook = measure_hook_cost()
    _audit = run_audit_overhead()
    _check(_rows, _hook, _audit)
    print(report.banner("EXP-OBS-OVERHEAD  obs='full' vs obs=None"))
    print(report.format_table(OVERHEAD_HEADERS, _rows))
    print(_hook)
    print(report.banner("EXP-AUDIT-OVERHEAD  certificate pass vs campaign wall"))
    print(report.format_table(AUDIT_HEADERS, _audit))
    print("wrote", dump_bench("obs", {
        "overhead": table(OVERHEAD_HEADERS, _rows),
        "hook_cost": _hook,
        "audit_overhead": table(AUDIT_HEADERS, _audit),
    }))

"""Tests for the observability substrate (repro.obs) and its wiring.

Covers the ISSUE-6 walls: the shared log-bucketed histogram is *the*
percentile implementation (pinned against the transport summary), the
metrics registry is O(1) and deterministic, the tracer produces
well-formed Perfetto-loadable span trees that are a byte-deterministic
function of the seed across every latency model and scheduler, the
flight recorder turns invariant failures into replayable JSONL windows,
and the harness ``obs=`` knob threads it all through a campaign whose
trace cross-checks bit-for-bit against the transport summary.
"""

import json
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversaries import RandomAdversary
from repro.adversaries.churn import RandomChurnAdversary, ScatterChurnAdversary
from repro.baselines.forgiving import ForgivingTreeHealer
from repro.fgraph.healer import ForgivingGraphHealer
from repro.graphs import generators
from repro.harness import run_campaign, run_churn_campaign
from repro.obs import (
    CONTROL_TRACK,
    NO_TRACE,
    OBS_MODES,
    FlightRecorder,
    LogHistogram,
    MetricsRegistry,
    ObsSpec,
    ObsState,
    PhaseProfiler,
    SpanError,
    Tracer,
    resolve_obs,
    validate_chrome_trace,
)
from repro.simnet import (
    LATENCY_CATALOG,
    SCHEDULER_CATALOG,
    TransportDivergence,
    TransportSpec,
    resolve_transport,
)
from repro.simnet.transport import TransportMirror, TransportSummary


def _tree_graph(n, seed):
    return {k: set(v) for k, v in generators.random_tree(n, seed).items()}


def _heal_spans(tracer):
    """The campaign's per-event heal spans (setup rounds excluded)."""
    return [
        s for s in tracer.spans.values()
        if s.cat == "heal" and not s.name.startswith("heal:round-")
    ]


# ----------------------------------------------------------------------
# the shared histogram
# ----------------------------------------------------------------------
class TestLogHistogram:
    def test_pinned_quantiles(self):
        # The repo's historical nearest-rank convention, pinned: these are
        # the exact numbers every summary in the repo must report.
        s = LogHistogram.from_values([1.0, 2.0, 3.0, 4.0]).summary()
        assert s == {"p50": 3.0, "p90": 4.0, "p99": 4.0,
                     "max": 4.0, "mean": 2.5}

    def test_empty_is_all_zero(self):
        s = LogHistogram().summary()
        assert s == {"p50": 0.0, "p90": 0.0, "p99": 0.0,
                     "max": 0.0, "mean": 0.0}

    def test_exact_extremes_and_mean(self):
        h = LogHistogram.from_values([0.5, 7.25, 100.0])
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx((0.5 + 7.25 + 100.0) / 3)
        assert len(h) == 3

    def test_zero_and_negative_bucket(self):
        h = LogHistogram.from_values([-1.0, 0.0, 2.0])
        assert h.count == 3 and h.min == -1.0 and h.max == 2.0
        # Non-positive values share the zero bucket; its representative
        # is the bucket mean.
        assert h.quantile(0.0) == -0.5
        assert h.n_buckets == 2

    def test_merge_equals_combined(self):
        rng = random.Random(3)
        a = [rng.expovariate(0.2) for _ in range(300)]
        b = [rng.uniform(0.0, 50.0) for _ in range(200)]
        left = LogHistogram.from_values(a)
        left.merge(LogHistogram.from_values(b))
        combined = LogHistogram.from_values(a + b)
        # mean is a streaming float sum: merged and sequential orders may
        # differ in the last ulp, everything else must be identical
        ls, cs = left.summary(), combined.summary()
        assert ls.pop("mean") == pytest.approx(cs.pop("mean"))
        assert ls == cs
        ld, cd = left.to_dict(), combined.to_dict()
        assert ld.pop("mean") == pytest.approx(cd.pop("mean"))
        assert ld == cd

    def test_merge_growth_mismatch_raises(self):
        with pytest.raises(ValueError, match="growth"):
            LogHistogram(growth=2.0).merge(LogHistogram())

    def test_bad_growth_raises(self):
        with pytest.raises(ValueError):
            LogHistogram(growth=1.0)

    def test_quantile_relative_error_bounded(self):
        # Interior quantiles are bucket means: within one bucket width
        # (growth - 1 ~ 9%) of the exact nearest-rank value.
        rng = random.Random(11)
        values = [rng.lognormvariate(1.0, 1.5) for _ in range(1000)]
        h = LogHistogram.from_values(values)
        exact = sorted(values)
        for q in (0.5, 0.9, 0.99):
            want = exact[round(q * (len(exact) - 1))]
            got = h.quantile(q)
            assert abs(got - want) / want <= 0.1

    def test_memory_is_bucket_bounded(self):
        rng = random.Random(7)
        h = LogHistogram()
        for _ in range(100_000):
            h.observe(rng.uniform(1.0, 1000.0))
        assert h.count == 100_000
        # ~8 buckets per octave x log2(1000) octaves, never 100k entries.
        assert h.n_buckets <= 8 * math.log2(1000.0) + 2

    def test_observe_nonpositive_count_ignored(self):
        h = LogHistogram()
        h.observe(5.0, n=0)
        h.observe(5.0, n=-3)
        assert h.count == 0

    def test_to_dict_is_jsonable(self):
        h = LogHistogram.from_values([0.0, 1.0, 2.0, 4.0])
        doc = json.loads(json.dumps(h.to_dict()))
        assert doc["count"] == 4
        assert doc["buckets"][-1] == ["zero", 1]


class TestSharedPercentiles:
    """Satellite (a): the transport summary reports *these* numbers."""

    def test_heal_latency_percentiles_are_the_histogram(self):
        vals = [3.7, 1.1, 9.4, 2.2, 2.2, 15.0]
        s = TransportSummary(
            mode="async", latency="uniform", scheduler="latency", seed=0,
            heal_latencies=list(vals),
        )
        assert s.heal_latency_percentiles == (
            LogHistogram.from_values(vals).summary()
        )
        assert s.heal_latency_hist.count == len(vals)

    def test_lease_wait_percentiles_are_the_histogram(self):
        vals = [0.0, 0.5, 4.0]
        s = TransportSummary(
            mode="async", latency="u", scheduler="l", seed=0,
            lease_wait_times=list(vals),
        )
        assert s.lease_wait_percentiles == (
            LogHistogram.from_values(vals).summary()
        )


# ----------------------------------------------------------------------
# the metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        reg.counter("ev").inc()
        reg.counter("ev").inc(4)
        assert reg.counter("ev").value == 5
        with pytest.raises(ValueError):
            reg.counter("ev").inc(-1)

    def test_gauge_tracks_peak(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3)
        g.set(9)
        g.set(2)
        assert g.value == 2.0 and g.peak == 9.0

    def test_cross_type_name_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="another type"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="another type"):
            reg.histogram("x")

    def test_snapshot_deterministic_and_jsonable(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.counter("a.count").inc(1)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(3.0)
        snap = reg.snapshot()
        assert json.dumps(snap) == json.dumps(reg.snapshot())
        assert snap["a.count"] == 1 and snap["b.count"] == 2
        assert snap["g"] == {"value": 7.0, "peak": 7.0}
        assert snap["h"]["count"] == 1
        # names come out sorted within each instrument kind
        assert list(snap)[:2] == ["a.count", "b.count"]

    def test_merge_folds_shards(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        a.gauge("g").set(10)
        b.gauge("g").set(2)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        a.merge(b)
        assert a.counter("n").value == 7
        assert a.gauge("g").value == 2.0 and a.gauge("g").peak == 10.0
        assert a.histogram("h").count == 2
        assert a.histogram("h").mean == 2.0

    def test_get_does_not_create(self):
        reg = MetricsRegistry()
        assert reg.get("missing") is None
        assert len(reg) == 0
        reg.counter("c")
        assert reg.get("c") is not None
        assert len(reg) == 1


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_lifecycle_and_args_merge(self):
        tr = Tracer()
        sid = tr.begin("heal:0", "heal", 1.0, (0, 0), args={"hid": 0})
        tr.end(sid, 3.5, args={"latency": 2.5})
        span = tr.spans[sid]
        assert span.t0 == 1.0 and span.t1 == 3.5
        assert span.args == {"hid": 0, "latency": 2.5}
        assert not tr.open_spans()
        tr.check_closed()  # no raise

    def test_double_close_raises(self):
        tr = Tracer()
        sid = tr.begin("s", "c", 0.0, (0, 0))
        tr.end(sid, 1.0)
        with pytest.raises(SpanError, match="already closed"):
            tr.end(sid, 2.0)

    def test_end_unknown_raises(self):
        with pytest.raises(SpanError, match="unknown span"):
            Tracer().end(99, 1.0)

    def test_close_before_open_raises(self):
        tr = Tracer()
        sid = tr.begin("s", "c", 5.0, (0, 0))
        with pytest.raises(SpanError, match="before opening"):
            tr.end(sid, 4.0)

    def test_unknown_parent_raises(self):
        with pytest.raises(SpanError, match="unknown parent"):
            Tracer().begin("layer-0", "layer", 0.0, (0, 0), parent=42)

    def test_check_closed_names_stuck_spans(self):
        tr = Tracer()
        tr.begin("heal:7", "heal", 0.0, (0, 7))
        with pytest.raises(SpanError, match="heal:7"):
            tr.check_closed()

    def test_span_children_index(self):
        tr = Tracer()
        root = tr.begin("heal:0", "heal", 0.0, (0, 0))
        kid_a = tr.begin("layer-0", "layer", 0.0, (0, 0), parent=root)
        kid_b = tr.begin("layer-1", "layer", 1.0, (0, 0), parent=root)
        for sid in (kid_a, kid_b, root):
            tr.end(sid, 2.0)
        tree = tr.span_children()
        assert tree[None] == [root]
        assert tree[root] == [kid_a, kid_b]

    def test_chrome_events_shape(self):
        tr = Tracer()
        tr.meta("thread_name", "heal 0", (0, 0))
        sid = tr.begin("heal:0", "heal", 1.5, (0, 0), args={"hid": 0})
        tr.instant("deliver:Msg", "msg", 2.0, (0, 0), args={"s": 1, "r": 2})
        tr.counter("in-flight", 2.0, {"heals": 1})
        tr.end(sid, 4.0)
        meta, b, inst, ctr, e = tr.chrome_events()
        assert meta == {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
                        "args": {"name": "heal 0"}}
        assert b["ph"] == "B" and b["ts"] == 1500.0  # virtual ms -> us
        assert b["args"] == {"hid": 0, "sid": sid}
        assert inst["ph"] == "i" and inst["s"] == "t"
        assert ctr["ph"] == "C" and ctr["args"] == {"heals": 1}
        assert e["ph"] == "E" and e["ts"] == 4000.0
        assert e["args"]["sid"] == sid

    def test_parent_exported_in_args(self):
        tr = Tracer()
        root = tr.begin("heal:0", "heal", 0.0, (0, 0))
        tr.begin("layer-0", "layer", 0.0, (0, 0), parent=root)
        events = tr.chrome_events()
        assert events[1]["args"]["parent"] == root

    def test_export_chrome_is_deterministic_and_valid(self, tmp_path):
        def build():
            tr = Tracer()
            sid = tr.begin("heal:0", "heal", 0.0, (0, 3), args={"hid": 3})
            tr.instant("grant", "control", 0.5, CONTROL_TRACK)
            tr.end(sid, 2.0)
            return tr

        a, b = build(), build()
        assert a.export_chrome() == b.export_chrome()
        path = str(tmp_path / "t.json")
        a.export_chrome(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(doc) == 3

    def test_export_jsonl(self, tmp_path):
        tr = Tracer()
        sid = tr.begin("s", "c", 0.0, (0, 0))
        tr.end(sid, 1.0)
        path = str(tmp_path / "t.jsonl")
        tr.export_jsonl(path)
        with open(path) as fh:
            lines = [json.loads(l) for l in fh]
        assert len(lines) == tr.n_records == 2
        assert lines[0]["ph"] == "B" and lines[1]["ph"] == "E"

    def test_null_tracer_is_inert(self):
        assert NO_TRACE.enabled is False
        assert NO_TRACE.begin("x", "c", 0.0, (0, 0)) == -1
        NO_TRACE.end(-1, 1.0)
        NO_TRACE.instant("x", "c", 0.0)
        NO_TRACE.counter("x", 0.0, {})
        NO_TRACE.meta("x", "y", (0, 0))
        NO_TRACE.check_closed()


class TestChromeValidation:
    def _doc(self, events):
        return {"traceEvents": events}

    def test_rejects_non_trace(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="not a list"):
            validate_chrome_trace({"traceEvents": {}})

    def test_rejects_bad_events(self):
        bad = [
            ([42], "not an object"),
            ([{"ph": "Z", "pid": 0, "tid": 0, "ts": 0}], "unknown phase"),
            ([{"ph": "B", "pid": "x", "tid": 0, "ts": 0, "name": "s"}],
             "pid/tid"),
            ([{"ph": "B", "pid": 0, "tid": 0, "name": "s"}], "ts"),
            ([{"ph": "B", "pid": 0, "tid": 0, "ts": 0}], "name"),
            ([{"ph": "i", "pid": 0, "tid": 0, "ts": 0, "name": "s",
               "args": 7}], "args"),
        ]
        for events, match in bad:
            with pytest.raises(ValueError, match=match):
                validate_chrome_trace(self._doc(events))

    def test_rejects_unbalanced_stacks(self):
        with pytest.raises(ValueError, match="E without matching B"):
            validate_chrome_trace(
                self._doc([{"ph": "E", "pid": 0, "tid": 0, "ts": 1}])
            )
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(
                self._doc(
                    [{"ph": "B", "pid": 0, "tid": 0, "ts": 0, "name": "s"}]
                )
            )
        with pytest.raises(ValueError, match="before its B"):
            validate_chrome_trace(
                self._doc([
                    {"ph": "B", "pid": 0, "tid": 0, "ts": 5, "name": "s"},
                    {"ph": "E", "pid": 0, "tid": 0, "ts": 4},
                ])
            )

    def test_accepts_interleaved_tracks(self):
        # B/E nesting is per (pid, tid): two tracks may interleave freely.
        n = validate_chrome_trace(self._doc([
            {"ph": "B", "pid": 0, "tid": 0, "ts": 0, "name": "a"},
            {"ph": "B", "pid": 0, "tid": 1, "ts": 1, "name": "b"},
            {"ph": "E", "pid": 0, "tid": 0, "ts": 2},
            {"ph": "E", "pid": 0, "tid": 1, "ts": 3},
        ]))
        assert n == 4


# ----------------------------------------------------------------------
# profiler and flight recorder
# ----------------------------------------------------------------------
class TestPhaseProfiler:
    def test_accumulates_per_phase(self):
        p = PhaseProfiler()
        p.add("deliver:Msg", 1000)
        p.add("deliver:Msg", 3000)
        p.add_virtual("deliver:Msg", 2.5)
        p.add_virtual("barrier", 1.0)  # virtual-only phase
        s = p.summary()
        assert s["deliver:Msg"]["calls"] == 2
        assert s["deliver:Msg"]["wall_s"] == pytest.approx(4e-6)
        assert s["deliver:Msg"]["us_per_call"] == pytest.approx(2.0)
        assert s["deliver:Msg"]["virtual"] == 2.5
        assert s["barrier"] == {"calls": 0, "wall_s": 0.0,
                                "us_per_call": 0.0, "virtual": 1.0}
        assert list(s) == sorted(s)
        assert len(p) == 2

    def test_phase_context_manager_times(self):
        p = PhaseProfiler()
        with p.phase("work"):
            sum(range(1000))
        s = p.summary()["work"]
        assert s["calls"] == 1 and s["wall_s"] > 0.0

    def test_top_ranks_by_wall(self):
        p = PhaseProfiler()
        p.add("cheap", 10)
        p.add("hot", 10_000_000)
        assert p.top(1)[0].startswith("hot:")


class TestFlightRecorder:
    def test_ring_evicts_oldest(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            assert rec.record("event", clock=float(i), eid=i) == i
        assert len(rec) == 4
        assert rec.recorded == 10
        assert rec.id_range == (6, 9)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_format(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        rec.record("event", clock=1.0, eid=0, what="delete-4")
        rec.record("barrier", clock=2.0, events=1)
        path = rec.dump(str(tmp_path / "flight.jsonl"))
        with open(path) as fh:
            header, *rows = [json.loads(l) for l in fh]
        assert header["first_id"] == 0 and header["last_id"] == 1
        assert header["recorded_total"] == 2 and header["evicted"] == 0
        assert rows[0] == {"id": 0, "kind": "event", "clock": 1.0,
                           "eid": 0, "what": "delete-4"}
        assert rows[1]["kind"] == "barrier"

    def test_bisection_note(self):
        rec = FlightRecorder(capacity=2)
        assert "empty" in rec.bisection_note("/tmp/x")
        rec.record("e")
        rec.record("e")
        rec.record("e")
        note = rec.bisection_note("/tmp/x")
        assert "events 1..2" in note and "/tmp/x" in note


# ----------------------------------------------------------------------
# the obs= knob
# ----------------------------------------------------------------------
class TestObsSpec:
    def test_mode_strings(self):
        assert resolve_obs(None) is None
        assert resolve_obs("none") is None
        assert resolve_obs("metrics") == ObsSpec()
        assert resolve_obs("trace").trace is True
        assert resolve_obs("profile").profile is True
        audit = resolve_obs("audit")
        assert audit.audit and audit.recorder > 0
        full = resolve_obs("full")
        assert full.trace and full.profile and full.audit
        assert full.recorder == 4096
        spec = ObsSpec(profile=True)
        assert resolve_obs(spec) is spec
        assert set(OBS_MODES) == {"none", "metrics", "trace", "profile",
                                  "audit", "full"}

    def test_bad_inputs_raise(self):
        with pytest.raises(ValueError, match="unknown obs"):
            resolve_obs("verbose")
        with pytest.raises(ValueError, match="capacity"):
            ObsSpec(recorder=-1)
        with pytest.raises(ValueError, match="trace_path"):
            ObsSpec(trace_path="x.json")

    def test_state_builds_only_whats_asked(self):
        state = ObsState(ObsSpec())
        assert state.tracer is NO_TRACE
        assert state.metrics is not None
        assert state.profiler is None and state.recorder is None
        summary = state.finish()
        assert summary.trace_events == 0 and summary.tracer is None
        assert summary.profile == {}

    def test_finish_validates_open_spans(self):
        state = ObsState(ObsSpec(trace=True))
        state.tracer.begin("heal:0", "heal", 0.0, (0, 0))
        with pytest.raises(SpanError):
            state.finish()


# ----------------------------------------------------------------------
# harness wiring
# ----------------------------------------------------------------------
class TestHarnessObs:
    def test_trace_requires_async_transport(self):
        healer = ForgivingTreeHealer(_tree_graph(12, 1))
        for transport in (None, "sync"):
            with pytest.raises(ValueError, match="async transport"):
                run_campaign(
                    healer, RandomAdversary(seed=0), rounds=2,
                    transport=transport, obs="trace",
                )

    def test_metrics_without_transport(self):
        healer = ForgivingTreeHealer(_tree_graph(30, 2))
        res = run_campaign(
            healer, RandomAdversary(seed=2), rounds=5, obs="metrics"
        )
        m = res.obs.metrics
        assert m["campaign.rounds"] == 5
        assert m["campaign.deletes"] == 5
        assert m["campaign.alive"]["value"] == 25.0
        assert m["campaign.messages"]["count"] == 5
        assert res.obs.trace_events == 0

    def test_obs_none_leaves_result_bare(self):
        healer = ForgivingTreeHealer(_tree_graph(12, 1))
        res = run_campaign(healer, RandomAdversary(seed=0), rounds=2)
        assert res.obs is None

    def test_full_campaign_populates_everything(self):
        healer = ForgivingTreeHealer(_tree_graph(40, 5))
        adv = RandomChurnAdversary(p_insert=0.3, seed=5)
        res = run_churn_campaign(
            healer, adv, events=12, seed=5,
            transport=TransportSpec(mode="async", overlap="lease"),
            obs="full",
        )
        o = res.obs
        assert o.trace_events > 0 and o.tracer is not None
        assert o.trace_path is None  # no export path requested
        assert o.recorder_events > 0
        # the FT setup round (will distribution) is a kernel heal too
        assert o.metrics["kernel.heals"] == res.transport.events + 1
        assert o.metrics["mirror.events"] == res.transport.events
        assert o.metrics["campaign.rounds"] == 12
        assert o.metrics["kernel.delivered"] >= (
            res.transport.messages_delivered
        )
        # the profiler saw both the oracle and the mirror's hot phases
        assert o.profile["mirror:barrier"]["calls"] >= 1
        assert any(p.startswith("deliver:") for p in o.profile)
        assert any(p.startswith("oracle:") for p in o.profile)


# ----------------------------------------------------------------------
# the acceptance wall: trace <-> summary cross-check, byte determinism
# ----------------------------------------------------------------------
def _traced(tmp_path, tag, healer_cls=ForgivingTreeHealer, seed=7,
            latency="heavy-tail", scheduler="latency"):
    healer = healer_cls(_tree_graph(60, seed))
    adv = ScatterChurnAdversary(p_insert=0.3, seed=seed)
    trace_path = str(tmp_path / f"trace-{tag}.json")
    res = run_churn_campaign(
        healer, adv, events=30, seed=seed, metrics="none",
        transport=TransportSpec(
            mode="async", overlap="lease", latency=latency,
            scheduler=scheduler, gap=0.1,
        ),
        obs=ObsSpec(trace=True, profile=True, recorder=2048,
                    trace_path=trace_path),
    )
    return res, trace_path


class TestTracedCampaignAcceptance:
    def test_trace_crosschecks_against_summary(self, tmp_path):
        res, trace_path = _traced(tmp_path, "a")
        t, o = res.transport, res.obs
        with open(trace_path) as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == o.trace_events > 0

        # One heal span per mirrored event, and the latency histogram
        # rebuilt from the spans' close args matches the transport
        # summary's percentiles bit for bit.  (Feed both sides sorted:
        # the streaming mean is order-sensitive at the last ulp, and the
        # trace holds heals in open order, the summary in quiesce order.)
        spans = _heal_spans(o.tracer)
        assert len(spans) == t.events == 30
        assert all(s.t1 is not None for s in spans)
        from_trace = LogHistogram.from_values(
            sorted(s.args["heal_latency"] for s in spans)
        ).summary()
        from_summary = LogHistogram.from_values(
            sorted(t.heal_latencies)
        ).summary()
        assert from_trace == from_summary
        # ... and the summary's own percentile property is that histogram
        assert set(from_summary) == set(t.heal_latency_percentiles)

        # lease-mode control marks made it onto the control track
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "handoff:granted" in names
        assert any(n and n.startswith("ft:") for n in names)

    def test_same_seed_same_bytes(self, tmp_path):
        _, path_a = _traced(tmp_path, "a")
        _, path_b = _traced(tmp_path, "b")
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()


class TestTraceDeterminism:
    """Same seed => byte-identical trace, across the whole matrix."""

    @pytest.mark.parametrize("latency", sorted(LATENCY_CATALOG))
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_CATALOG))
    def test_matrix(self, latency, scheduler):
        for healer_cls in (ForgivingTreeHealer, ForgivingGraphHealer):
            texts = []
            for _ in range(2):
                healer = healer_cls(_tree_graph(20, 4))
                adv = RandomChurnAdversary(p_insert=0.3, seed=4)
                res = run_churn_campaign(
                    healer, adv, events=6, seed=4, metrics="none",
                    transport=TransportSpec(
                        mode="async", latency=latency, scheduler=scheduler
                    ),
                    obs="trace",
                )
                texts.append(res.obs.tracer.export_chrome())
            assert texts[0] == texts[1], (healer_cls, latency, scheduler)


class TestSpanTreeFuzz:
    """Hypothesis: every traced campaign yields a well-formed span tree."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        p_insert=st.floats(min_value=0.0, max_value=0.6),
        latency=st.sampled_from(sorted(LATENCY_CATALOG)),
        scheduler=st.sampled_from(sorted(SCHEDULER_CATALOG)),
    )
    @settings(max_examples=12, deadline=None)
    def test_span_tree_well_formed(self, seed, p_insert, latency, scheduler):
        healer = ForgivingTreeHealer(_tree_graph(16, 1 + seed % 5))
        adv = RandomChurnAdversary(p_insert=p_insert, seed=seed)
        res = run_churn_campaign(
            healer, adv, events=5, seed=seed, metrics="none",
            transport=TransportSpec(
                mode="async", latency=latency, scheduler=scheduler
            ),
            obs="trace",
        )
        tracer = res.obs.tracer
        spans = tracer.spans
        assert not tracer.open_spans()
        for span in spans.values():
            assert span.t1 is not None and span.t1 >= span.t0
            if span.parent is not None:
                parent = spans[span.parent]
                assert parent.t0 <= span.t0
            if span.cat == "layer":
                assert spans[span.parent].cat == "heal"
                assert span.pid == spans[span.parent].pid
                assert span.tid == spans[span.parent].tid
        validate_chrome_trace(json.loads(tracer.export_chrome()))


# ----------------------------------------------------------------------
# the flight recorder on a real failure
# ----------------------------------------------------------------------
class TestFlightRecorderOnFailure:
    def test_divergence_dumps_replayable_window(self, tmp_path):
        state = ObsState(
            ObsSpec(recorder=64, recorder_dir=str(tmp_path))
        )
        healer = ForgivingGraphHealer(_tree_graph(12, 3))
        mirror = TransportMirror(
            healer, resolve_transport("async", seed=1), obs=state
        )
        mirror.apply(healer.delete(4))
        # sabotage the expected image: the barrier must blow up and the
        # failure must carry the flight-recorder window
        mirror._expected.add((997, 998))
        with pytest.raises(TransportDivergence) as ei:
            mirror.barrier()
        msg = str(ei.value)
        assert "flight recorder: events 0.." in msg
        path = msg.rsplit("dumped to ", 1)[1].strip()
        assert path.startswith(str(tmp_path))
        assert os.path.exists(path)
        with open(path) as fh:
            header, *rows = [json.loads(l) for l in fh]
        assert header["first_id"] == 0
        assert rows[0]["kind"] == "event"
        assert rows[0]["what"] == "delete-4"  # the sabotaged event itself

    def test_dump_is_idempotent_across_nested_failures(self, tmp_path):
        state = ObsState(ObsSpec(recorder=64, recorder_dir=str(tmp_path)))
        healer = ForgivingGraphHealer(_tree_graph(12, 3))
        mirror = TransportMirror(
            healer, resolve_transport("async", seed=1), obs=state
        )
        mirror.apply(healer.delete(4))
        mirror._expected.add((997, 998))
        paths = set()
        for _ in range(2):
            with pytest.raises(TransportDivergence) as ei:
                mirror.barrier()
            paths.add(str(ei.value).rsplit("dumped to ", 1)[1].strip())
        assert len(paths) == 1  # one dump file, cited consistently


class TestSloDottedPaths:
    """SloSpec.resolve's dotted-path contract on hostile window records.

    The soak service feeds whatever the window assembler produced;
    specs must *skip* (return None) — never raise, never coerce — when
    the path dead-ends: a missing key anywhere along it, a non-dict
    intermediate (including lists), or a non-numeric leaf.
    """

    def _spec(self, metric):
        from repro.obs import SloSpec

        return SloSpec("probe", metric, "<=", 10.0)

    def test_flat_and_nested_hits(self):
        assert self._spec("a").resolve({"a": 3}) == 3
        assert self._spec("a.b.c").resolve({"a": {"b": {"c": 2.5}}}) == 2.5

    def test_missing_keys_skip(self):
        assert self._spec("a").resolve({}) is None
        assert self._spec("a.b").resolve({"a": {}}) is None
        # A missing *intermediate* key, with a sibling present.
        assert self._spec("a.b.c").resolve({"a": {"x": {"c": 1}}}) is None

    def test_list_intermediates_and_leaves_skip(self):
        # Lists are not traversable (no integer indexing in paths) ...
        assert self._spec("a.b").resolve({"a": [{"b": 1}]}) is None
        # ... and a list *leaf* is not a number.
        assert self._spec("a").resolve({"a": [1, 2, 3]}) is None

    def test_non_numeric_leaves_skip(self):
        for leaf in ("97", None, {"v": 1}, object()):
            assert self._spec("a").resolve({"a": leaf}) is None

    def test_bool_leaf_is_numeric(self):
        # bool is an int subclass; the resolver passes it through and
        # the comparison treats it as 0/1.
        assert self._spec("a").resolve({"a": True}) is True

    def test_empty_segment_never_matches(self):
        assert self._spec("a..b").resolve({"a": {"": {"b": 1}}}) == 1
        assert self._spec("a..b").resolve({"a": {"b": 1}}) is None

    def test_watchdog_skips_unresolvable_without_alerting(self):
        from repro.obs import SloSpec, SloWatchdog

        watchdog = SloWatchdog(
            [
                SloSpec("strs", "metric.str", "<=", 0.0),
                SloSpec("lists", "metric.list", "<=", 0.0),
                SloSpec("gone", "metric.gone.deeper", "<=", 0.0),
            ]
        )
        record = {
            "window": 0,
            "events": 100,
            "metric": {"str": "breach!", "list": [99, 99]},
        }
        assert watchdog.evaluate(record) == []
        assert not watchdog.breached
        assert watchdog.windows_evaluated == 1

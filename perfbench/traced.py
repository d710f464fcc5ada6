"""The traced run: the campaign loop replayed by the benchmark, one span
per call into a layer.

:func:`traced_campaign` calls the same public functions, in the same
order, as ``repro.harness.run_churn_campaign``: per event
``next_event``, the healer's ``insert``/``insert_batch``/``delete``,
``TransportMirror.apply``, the diameter measurement
(``DynamicTreeMetrics.apply_report``, or ``is_connected`` plus
``diameter_double_sweep`` on ``healer.graph()``) and
``max_degree_increase``; after the loop ``TransportMirror.finish`` and
``AuditInputs.certify``.  Each call gets a span (name, start, end,
parent, event id) kept in memory; a layer's self time is its spans'
time minus their child spans'.  The spans are written out only when the
benchmark ends.

A span's layer is its name up to the last dot, named after the module
it calls into (``graphs.incremental.apply`` belongs to
``graphs.incremental``).  The ``setup``, ``loop`` and ``event`` spans
are the benchmark's own; their self time is the unattributed time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.audit import AuditInputs, HealDelta
from repro.audit.schema import normalize_edges
from repro.churn import Insert, InsertWave
from repro.core.errors import ReproError, SimulationOverError
from repro.faults import resolve_faults
from repro.graphs import DynamicTreeMetrics
from repro.graphs.adjacency import is_connected, max_degree
from repro.graphs.metrics import diameter_double_sweep
from repro.obs import ObsState, resolve_obs
from repro.simnet import TransportMirror, resolve_transport

from checks import Outcome, edge_digest, transport_fields

#: Spans that belong to the benchmark, not to a layer of the program.
HARNESS_SPANS = ("setup", "loop", "event")

class SpanLog:
    """In-memory span recorder.

    A span is ``[name, start ns, end ns, parent index (-1 = root), event
    id (-1 outside the event loop)]``; a parent is always recorded before
    its children.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.clock = time.perf_counter_ns

    def open(self, name: str, parent: int = -1, eid: int = -1) -> int:
        self.spans.append([name, self.clock(), 0, parent, eid])
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()

    def call(self, name: str, parent: int, eid: int, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        clock = self.clock
        t0 = clock()
        out = fn(*args, **kwargs)
        self.spans.append([name, t0, clock(), parent, eid])
        return out

    def self_times(self) -> List[int]:
        """Each span's duration minus its children's, in ns."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, eid) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "event": eid}
                ) + "\n")


def layer_of(name: str) -> str:
    """The layer a span is charged to (``harness`` for the benchmark's own)."""
    return "harness" if name in HARNESS_SPANS else name.rsplit(".", 1)[0]


@dataclass
class TracedRun:
    """A traced campaign: its outputs, its spans, and the loop span's index."""

    outcome: Outcome
    log: SpanLog
    loop: int

    @property
    def loop_s(self) -> float:
        _, start, end, _, _ = self.log.spans[self.loop]
        return (end - start) / 1e9

    def _inside_loop(self) -> List[bool]:
        """Which spans lie inside the loop span."""
        inside = [False] * len(self.log.spans)
        inside[self.loop] = True
        for i, (_, _, _, parent, _) in enumerate(self.log.spans):
            if parent >= 0 and inside[parent]:
                inside[i] = True
        return inside

    def sites(self, loop: bool = True) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, busy seconds)`` per timed call site, inside the
        loop (``loop=True``) or during set-up.

        Busy time is self time, so nested spans are never counted twice.
        """
        out: Dict[str, Tuple[int, float]] = {}
        spans = self.log.spans
        for i, (own, inside) in enumerate(
            zip(self.log.self_times(), self._inside_loop())
        ):
            if inside == loop:
                calls, busy = out.get(spans[i][0], (0, 0.0))
                out[spans[i][0]] = (calls + 1, busy + own / 1e9)
        return out

    def layer_shares(self) -> Dict[str, float]:
        """Self time of each layer inside the loop, over the loop wall.

        ``harness`` is the loop's unattributed share."""
        wall = self.loop_s
        shares: Dict[str, float] = {}
        for name, (_, busy) in self.sites().items():
            layer = layer_of(name)
            shares[layer] = shares.get(layer, 0.0) + busy / wall
        return shares


def _sweep(graph, seed: int) -> Tuple[bool, Optional[int]]:
    """The campaign's BFS path: connectivity, then the double sweep."""
    connected = is_connected(graph)
    if connected and len(graph) > 1:
        return connected, diameter_double_sweep(graph, seed=seed)
    return connected, None


def _mirror_spec(campaign: Dict[str, object], obs_state):
    """Resolve the transport knobs the way ``run_churn_campaign`` does."""
    spec = resolve_transport(campaign.get("transport"), seed=campaign["seed"])
    plan = resolve_faults(campaign.get("faults"))
    if plan is not None:
        spec = replace(spec, faults=plan)
    if (
        spec is not None
        and obs_state is not None
        and obs_state.spec.audit
        and spec.mode == "async"
        and not spec.record_log
    ):
        spec = replace(spec, record_log=True)
    return spec


def traced_campaign(wl) -> TracedRun:
    """Run workload ``wl``'s campaign as a traced loop (see module doc)."""
    log = SpanLog()
    call = log.call
    core = "fgraph" if wl.protocol == "fg" else "core"
    seed = wl.campaign["seed"]
    graph = wl.fresh_graph()
    adversary = wl.make_adversary()

    setup = log.open("setup")
    healer = call(f"{core}.build", setup, -1, wl.make_healer, graph)
    initial = call(f"{core}.graph", setup, -1, healer.graph)
    tracker: Optional[DynamicTreeMetrics] = None
    try:
        tracker = call("graphs.incremental.build", setup, -1,
                       DynamicTreeMetrics, initial)
        if tracker.n_chords:
            tracker = None
    except ReproError:
        tracker = None
    if len(initial) <= 1:
        d0 = 0
    elif tracker is not None:
        d0 = tracker.diameter
    else:
        d0 = call("graphs.metrics.initial", setup, -1,
                  diameter_double_sweep, initial, seed=seed)
    initial_max_degree = max_degree(initial)
    obs_spec = resolve_obs(wl.campaign.get("obs"))
    obs_state = ObsState(obs_spec) if obs_spec is not None else None
    spec = _mirror_spec(wl.campaign, obs_state)
    mirror = None
    if spec is not None:
        mirror = call("distributed.setup", setup, -1,
                      TransportMirror, healer, spec, obs=obs_state)
    auditing = mirror is not None and obs_state is not None and obs_state.spec.audit
    deltas: Optional[List[HealDelta]] = [] if auditing else None
    audit_initial = normalize_edges(initial) if auditing else frozenset()
    log.close(setup)

    adversary.reset()
    loop = log.open("loop")
    done = inserted = messages = 0
    peak_ddeg = peak_diam = peak_msgs = 0
    alive = len(initial)
    connected_all = True
    for eid in range(wl.events):
        if not healer.alive:
            break
        ev = log.open("event", loop, eid)
        try:
            event = call("adversaries.next_event", ev, eid,
                         adversary.next_event, healer)
            if isinstance(event, Insert):
                report = call(f"{core}.insert", ev, eid,
                              healer.insert, event.nid, event.attach_to)
            elif isinstance(event, InsertWave):
                report = call(f"{core}.insert_batch", ev, eid,
                              healer.insert_batch, event.joiners)
            else:
                report = call(f"{core}.delete", ev, eid, healer.delete, event.nid)
        except SimulationOverError:
            log.close(ev)
            break
        if mirror is not None:
            call("simnet.apply", ev, eid, mirror.apply, report)
        if deltas is not None:
            deltas.append(call("audit.delta", ev, eid, HealDelta.from_report, report))
        diameter = None
        if tracker is not None:
            try:
                call("graphs.incremental.apply", ev, eid, tracker.apply_report, report)
                alive = len(tracker)
                diameter = tracker.diameter if alive > 1 else None
                connected = True
            except ReproError:
                tracker = None  # the overlay stopped being a tree
        if tracker is None:
            current = call(f"{core}.graph", ev, eid, healer.graph)
            connected, diameter = call("graphs.metrics.sweep", ev, eid,
                                       _sweep, current, seed)
            alive = len(current)
        ddeg = call(f"{core}.max_degree_increase", ev, eid,
                    healer.max_degree_increase)
        done += 1
        if report.is_insertion:
            inserted += max(1, len(report.inserted_batch))
        messages += report.total_messages
        peak_ddeg = max(peak_ddeg, ddeg)
        peak_msgs = max(peak_msgs, report.max_messages_per_node)
        if diameter is not None:
            peak_diam = max(peak_diam, diameter)
        connected_all = connected_all and connected
        if mirror is not None and mirror.pending_crash is not None:
            raise ReproError("planned crashes are outside the traced loop")
        log.close(ev)
    summary = audit = None
    if mirror is not None:
        summary = call("simnet.finish", loop, -1, mirror.finish)
        if deltas is not None and summary.event_log is not None:
            inputs = AuditInputs(
                records=tuple(summary.event_log),
                heal_stats=tuple(summary.heal_stats or ()),
                deltas=tuple(deltas),
                initial_edges=audit_initial,
                protocol="fg" if "graph" in healer.name else "ft",
                fault_summary=summary.faults,
            )
            audit = call("audit.certify", loop, -1, inputs.certify)
    if obs_state is not None:
        obs_state.finish()
    log.close(loop)

    outcome = Outcome(
        events_done=done,
        n0=len(initial),
        final_alive=alive,
        initial_diameter=d0,
        initial_max_degree=initial_max_degree,
        inserted=inserted,
        peak_degree_increase=peak_ddeg,
        peak_diameter=peak_diam,
        peak_stretch=peak_diam / d0 if d0 else 1.0,
        msgs_per_node_peak=peak_msgs,
        messages_total=messages,
        stayed_connected=connected_all,
        edge_digest=edge_digest(healer.graph()),
        transport=transport_fields(summary),
        faults=summary.faults.to_dict() if summary and summary.faults else {},
        audit_ok=audit.ok if audit is not None else None,
        audit_records=audit.records if audit is not None else 0,
    )
    return TracedRun(outcome, log, loop)

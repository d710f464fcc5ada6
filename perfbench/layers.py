"""Per-layer metrics from a traced run.

Layers are named after the modules the traced loop calls into.  Each
timed call site reports ``calls`` and ``busy_s`` (self time); a layer's
``share`` is its self time over the traced loop wall; the ``_us``
metrics are mean self time per call.  Layers a workload never reaches
report 0.  The counters of ``simnet``, ``regions`` and ``faults`` come
from the traced run's ``TransportSummary`` counters (which equal the
untraced run's, by the parity check), and ``audit.records`` from its
``AuditReport``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = []


def _add(names, unit: str, better: str = "lower") -> None:
    PER_LAYER.extend((name, unit, better) for name in names.split())


def _sites(prefix: str, names: str) -> None:
    for site in names.split():
        _add(f"{prefix}.{site}.calls", "count")
        _add(f"{prefix}.{site}.busy_s", "s")


_add("adversaries.next_event_us", "us")
_add("adversaries.share", "ratio")
_sites("adversaries", "next_event")
_add("core.delete_us core.insert_us core.insert_batch_us", "us")
_add("core.share", "ratio")
_add("core.messages_per_event", "msgs/event")
_add("core.build_s", "s")
_sites("core", "delete insert insert_batch max_degree_increase")
_add("graphs.incremental.apply_us", "us")
_add("graphs.incremental.share", "ratio")
_add("graphs.incremental.build_s", "s")
_sites("graphs.incremental", "apply")
_add("graphs.metrics.sweep_us", "us")
_add("graphs.metrics.share", "ratio")
_sites("graphs.metrics", "sweep")
_add("fgraph.delete_us fgraph.insert_us", "us")
_add("fgraph.share", "ratio")
_add("fgraph.messages_per_event", "msgs/event")
_add("fgraph.build_s", "s")
_sites("fgraph", "delete insert graph max_degree_increase")
_add("distributed.setup_s", "s")
_add("simnet.apply_us", "us")
_add("simnet.share", "ratio")
_add("simnet.finish_s", "s")
_sites("simnet", "apply")
_add("simnet.messages_delivered simnet.barriers simnet.conflict_barriers "
     "simnet.peak_queue_depth", "count")
_add("simnet.peak_in_flight_heals", "count", "higher")
_add("simnet.makespan simnet.heal_latency_p50 simnet.heal_latency_p99", "vt")
_add("regions.lease_grants", "count", "higher")
_add("regions.lease_waits regions.escalations", "count")
_add("regions.grant_ratio", "ratio", "higher")
_add("regions.lease_wait_p99", "vt")
_add("faults.drops faults.retransmissions faults.duplicates "
     "faults.dup_suppressed", "count")
_add("faults.delivery_ratio", "ratio", "higher")
_add("audit.certify_s", "s")
_add("audit.records", "count")
_add("audit.share", "ratio")
_sites("audit", "delta")
_add("harness.unattributed_share trace.overhead", "ratio")


def per_layer(traced, untraced_loop_s: float) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric as ``name -> (value, unit)``."""
    sites = traced.sites()
    setup = traced.sites(loop=False)
    shares = traced.layer_shares()
    out = traced.outcome
    values: Dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}

    for site, (calls, busy) in sites.items():
        values[f"{site}.calls"] = calls
        values[f"{site}.busy_s"] = busy
        values[f"{site}_us"] = busy / calls * 1e6 if calls else 0.0
    for layer, share in shares.items():
        values[f"{layer}.share"] = share
    for site in ("core.build", "fgraph.build", "graphs.incremental.build",
                 "distributed.setup"):
        values[f"{site}_s"] = setup.get(site, (0, 0.0))[1]
    core = "fgraph" if "fgraph.build" in setup else "core"
    if out.events_done:
        values[f"{core}.messages_per_event"] = out.messages_total / out.events_done
    values["simnet.finish_s"] = sites.get("simnet.finish", (0, 0.0))[1]
    values["audit.certify_s"] = sites.get("audit.certify", (0, 0.0))[1]
    values["harness.unattributed_share"] = shares.get("harness", 0.0)
    values["trace.overhead"] = traced.loop_s / untraced_loop_s - 1.0

    t = out.transport
    if t:
        for key in ("messages_delivered", "barriers", "conflict_barriers",
                    "peak_queue_depth", "peak_in_flight_heals", "makespan",
                    "heal_latency_p50", "heal_latency_p99"):
            values[f"simnet.{key}"] = t[key]
        grants, waits = t["lease_grants"], t["lease_waits"]
        escalations = sum(t["escalations"].values())
        admitted = grants + waits + escalations
        values["regions.lease_grants"] = grants
        values["regions.lease_waits"] = waits
        values["regions.escalations"] = escalations
        values["regions.grant_ratio"] = grants / admitted if admitted else 0.0
        values["regions.lease_wait_p99"] = t["lease_wait_p99"]
    if out.faults:
        f = out.faults
        for key in ("drops", "retransmissions", "duplicates", "dup_suppressed"):
            values[f"faults.{key}"] = f[key]
        attempts = t["messages_delivered"] + f["drops"] + f["dead_drops"]
        values["faults.delivery_ratio"] = (
            t["messages_delivered"] / attempts if attempts else 0.0
        )
    values["audit.records"] = out.audit_records
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}

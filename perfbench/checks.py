"""Run outputs, the correctness gate, and the traced/untraced parity digest.

An :class:`Outcome` is everything a campaign produced that the benchmark
compares or checks.  The untraced run builds one from its
``CampaignResult``; the traced loop builds one from the values it
computed itself.  Parity means the two are equal field for field.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.harness.bounds import thm1_degree_bound, thm1_diameter_bound

#: TransportSummary fields compared by the parity check.
TRANSPORT_COUNTERS = (
    "events", "barriers", "conflict_barriers", "peak_in_flight_heals",
    "peak_queue_depth", "makespan", "messages_delivered", "peak_sub_rounds",
    "lease_grants", "lease_waits", "peak_deferred",
)


@dataclass
class Outcome:
    """What one campaign produced (modelled values only, no wall times)."""

    events_done: int
    n0: int
    final_alive: int
    initial_diameter: int
    initial_max_degree: int
    inserted: int
    peak_degree_increase: int
    peak_diameter: int
    peak_stretch: float
    msgs_per_node_peak: int
    messages_total: int
    stayed_connected: bool
    edge_digest: str
    transport: Dict[str, object] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)
    audit_ok: Optional[bool] = None
    audit_records: int = 0


def edge_digest(graph) -> str:
    """SHA-256 over the sorted edge list of an adjacency mapping."""
    edges = sorted((u, v) for u, vs in graph.items() for v in vs if u < v)
    h = hashlib.sha256()
    for u, v in edges:
        h.update(f"{u},{v};".encode())
    return h.hexdigest()


def transport_fields(summary) -> Dict[str, object]:
    """The TransportSummary counters the parity check compares."""
    if summary is None:
        return {}
    out: Dict[str, object] = {k: getattr(summary, k) for k in TRANSPORT_COUNTERS}
    out["escalations"] = dict(sorted(summary.escalations.items()))
    lat = summary.heal_latency_percentiles
    out["heal_latency_p50"] = lat["p50"]
    out["heal_latency_p99"] = lat["p99"]
    out["lease_wait_p99"] = summary.lease_wait_percentiles["p99"]
    return out


def outcome_from_result(result, healer) -> Outcome:
    """Build the untraced run's :class:`Outcome` from its CampaignResult
    (run with the default ``keep_rounds=True``, so every round is kept)."""
    summary = result.transport
    rounds = result.rounds
    return Outcome(
        events_done=len(rounds),
        n0=result.n0,
        final_alive=result.final_alive,
        initial_diameter=result.initial_diameter,
        initial_max_degree=result.initial_max_degree,
        inserted=sum(
            r.wave_size or 1 for r in rounds if r.event == "insert"
        ),
        peak_degree_increase=result.peak_degree_increase,
        peak_diameter=result.peak_diameter,
        peak_stretch=result.peak_stretch,
        msgs_per_node_peak=result.peak_messages_per_node,
        messages_total=sum(r.total_messages for r in rounds),
        stayed_connected=result.stayed_connected,
        edge_digest=edge_digest(healer.graph()),
        transport=transport_fields(summary),
        faults=summary.faults.to_dict() if summary and summary.faults else {},
        audit_ok=result.audit.ok if result.audit is not None else None,
        audit_records=result.audit.records if result.audit is not None else 0,
    )


def gate(outcome: Outcome, protocol: str, events: int) -> List[str]:
    """The correctness gate: every check a run's outputs must pass.

    Returns the failed checks as messages (empty when the run is correct).
    """
    bad: List[str] = []
    if outcome.events_done != events:
        bad.append(f"ran {outcome.events_done} of {events} events")
    if not outcome.stayed_connected:
        bad.append("overlay disconnected")
    if outcome.peak_degree_increase > thm1_degree_bound():
        bad.append(
            f"degree increase {outcome.peak_degree_increase} > "
            f"{thm1_degree_bound()}"
        )
    if protocol == "ft":
        bound = thm1_diameter_bound(
            outcome.initial_diameter, outcome.initial_max_degree
        )
        if outcome.peak_diameter > bound:
            bad.append(f"FT diameter {outcome.peak_diameter} > {bound}")
    else:
        # n counts the FG ideal graph's nodes: initial ones plus joiners.
        bound = 2 * math.log2(outcome.n0 + outcome.inserted) + 2
        if outcome.peak_stretch > bound:
            bad.append(f"FG stretch {outcome.peak_stretch:.3f} > {bound:.3f}")
    f = outcome.faults
    if f:
        if f["retransmissions"] != f["drops"]:
            bad.append(f"retransmissions {f['retransmissions']} != drops {f['drops']}")
        if f["dup_suppressed"] != f["duplicates"]:
            bad.append(
                f"dup_suppressed {f['dup_suppressed']} != duplicates {f['duplicates']}"
            )
    if outcome.audit_ok is False:
        bad.append("audit found violations")
    return bad


def mismatches(a: Outcome, b: Outcome) -> List[str]:
    """Fields on which two outcomes differ (parity / repeat determinism)."""
    da, db = asdict(a), asdict(b)
    return [k for k in da if da[k] != db[k]]

#!/usr/bin/env python3
"""The motivating scenario: a superpeer overlay melting down (Section 1).

The paper opens with the 2007 Skype outage — a cascading failure of the
network's "self-healing mechanisms".  This example builds a Skype-style
superpeer overlay (hubs + leaf peers), then kills superpeers one after
another, comparing three responses:

* **no repair** — the network fragments (counts the stranded peers);
* **surrogate healing** — stays connected but a surviving peer's degree
  explodes, making it the next natural victim (the cascade);
* **Forgiving Tree** — stays connected with degree increase <= 3 and the
  diameter within the log-∆ envelope.

Act two replays the full outage as *churn*: a synthetic trace of the 2007
event (join wave, mass drop-out, login storm) runs through the same three
healers via the trace-replay adversary — the Forgiving Tree absorbs the
storm end to end.

Act three brings in the 2009 algorithm: the **Forgiving Graph** healer
(weight-balanced reconstruction trees, `repro.fgraph`) rides the same
trace and is scored on the 2009 paper's metric — per-pair *stretch*
against the ideal graph.  The FT has no per-pair guarantee at all (its
theorem bounds only the diameter); the FG certifies every surviving
pair inside a `2·log2(n) + 2` envelope, and the measured worst pair
lands comfortably within it.

Act four drops the lock-step fiction: the same trace replays on the
**async transport** (`repro.simnet`) with heavy-tail link latencies —
drop-outs land while earlier heals are still exchanging messages, a
worst-case scheduler orders the deliveries, and every quiesce barrier
cross-validates the distributed image against the sequential engine.
The act reports the heal-latency percentiles: the p99/p50 gap is the
straggler tax the synchronous model never shows.

Run:  python examples/skype_outage.py
"""

from repro.adversaries import MaxDegreeAdversary, TraceReplayAdversary
from repro.baselines import (
    ForgivingGraphHealer,
    ForgivingTreeHealer,
    NoRepairHealer,
    SurrogateHealer,
)
from repro.churn import synthetic_skype_outage
from repro.graphs import generators, metrics
from repro.graphs.adjacency import connected_components
from repro.harness import churn_duel, run_campaign
from repro.harness.report import format_table


def replay_outage_trace() -> None:
    """Act two: the recorded outage (joins, drop-out wave, login storm)."""
    overlay, trace = synthetic_skype_outage()
    print(
        f"\nreplaying the synthetic outage trace: {trace.n_inserts} joins, "
        f"{trace.n_deletes} drop-outs over {len(trace)} events\n"
    )
    results = churn_duel(
        overlay,
        [NoRepairHealer, SurrogateHealer, ForgivingTreeHealer],
        lambda: TraceReplayAdversary(trace),
        events=len(trace),
    )
    rows = []
    for name in ("no-repair", "surrogate", "forgiving-tree"):
        res = results[name]
        rows.append(
            [
                name,
                res.final_alive,
                "yes" if res.stayed_connected else "NO",
                res.peak_degree_increase,
                res.peak_diameter if res.stayed_connected else "n/a (split)",
            ]
        )
    print(format_table(
        ["strategy", "final peers", "always connected", "peak +degree",
         "peak diameter"],
        rows,
    ))
    print(
        "\nunder real churn — joins included — the Forgiving Tree rides out"
        "\nthe whole storm: every join lands as a plain leaf, every drop-out"
        "\nheals locally, and no peer ever gains more than 3 edges."
    )


def forgiving_graph_act() -> None:
    """Act three: the 2009 healer on the same trace, scored on stretch."""
    import math

    from repro.harness import run_churn_campaign

    overlay, trace = synthetic_skype_outage()
    print(
        "\nact three — the Forgiving Graph (PODC 2009) on the same trace:"
        "\nweight-balanced reconstruction trees heal whole dead regions,"
        "\nbounding every surviving pair's *stretch*, not just the diameter.\n"
    )
    # One campaign per healer; each run yields both the metrics and the
    # final overlay.  Score the overlays against the same ideal graph
    # (all joins applied, drop-outs still routable) — the 2009 yardstick.
    campaigns = {}
    for make in (ForgivingTreeHealer, ForgivingGraphHealer):
        healer = make({k: set(v) for k, v in overlay.items()})
        res = run_churn_campaign(
            healer, TraceReplayAdversary(trace), events=len(trace),
            metrics="none",
        )
        campaigns[healer.name] = (res, healer)
    ideal = campaigns["forgiving-graph"][1].ideal_graph(include_dead=True)
    envelope = 2 * math.log2(len(ideal)) + 2
    rows = []
    for name in ("forgiving-tree", "forgiving-graph"):
        res, healer = campaigns[name]
        worst = metrics.max_stretch(ideal, healer.graph(), sample=300, seed=7)
        guaranteed = f"<= {envelope:.1f}" if name == "forgiving-graph" else "none"
        rows.append(
            [
                name,
                res.peak_degree_increase,
                "yes" if res.stayed_connected else "NO",
                f"{worst:.2f}",
                guaranteed,
            ]
        )
    print(format_table(
        ["strategy", "peak +degree", "always connected",
         "worst pair stretch", "per-pair guarantee"],
        rows,
    ))
    print(
        "\nsame storm, same degree bound — and only the Forgiving Graph"
        "\narrives with a certificate: every surviving pair stays within a"
        "\nlogarithmic factor of its ideal distance, on any graph, under"
        "\nany churn (docs/FORGIVING_GRAPH.md)."
    )


def async_act() -> None:
    """Act four: the outage trace on the async transport, heavy tails."""
    from repro.harness import run_churn_campaign
    from repro.simnet import TransportSpec

    overlay, trace = synthetic_skype_outage()
    print(
        "\nact four — the same outage, asynchronously: heals overlap in"
        "\nflight on the discrete-event simnet, links draw heavy-tail"
        "\nlatencies, and a worst-case scheduler orders the deliveries."
        "\nEvery quiesce barrier cross-validates the distributed image"
        "\nagainst the sequential engine node-for-node (docs/ASYNC.md).\n"
    )
    rows = []
    for make in (ForgivingTreeHealer, ForgivingGraphHealer):
        healer = make({k: set(v) for k, v in overlay.items()})
        res = run_churn_campaign(
            healer,
            TraceReplayAdversary(trace),
            events=len(trace),
            metrics="none",
            seed=7,
            transport=TransportSpec(
                mode="async",
                latency="heavy-tail",
                scheduler="adversarial",
                gap=0.1,
            ),
        )
        t = res.transport
        pct = t.heal_latency_percentiles
        rows.append(
            [
                healer.name,
                t.peak_in_flight_heals,
                t.conflict_barriers,
                f"{pct['p50']:.2f}",
                f"{pct['p90']:.2f}",
                f"{pct['p99']:.2f}",
                f"{pct['max']:.1f}",
            ]
        )
    print(format_table(
        ["strategy", "peak in-flight heals", "serialized conflicts",
         "p50 heal", "p90 heal", "p99 heal", "worst heal"],
        rows,
    ))
    print(
        "\nthe storm's drop-outs heal concurrently — and the final image"
        "\nstill matches the sequential engines exactly.  The p99/p50 gap"
        "\nis the straggler tax: one slow link stalls a whole repair, a"
        "\ncost the papers' synchronous rounds never surface."
    )


def main() -> None:
    hubs, leaves_per_hub = 8, 12
    overlay = generators.two_level_star(hubs, leaves_per_hub)
    n = len(overlay)
    d0 = metrics.diameter_exact(overlay)
    print(f"superpeer overlay: {hubs} hubs x {leaves_per_hub} peers "
          f"(n={n}, diameter={d0})\n")

    rounds = hubs + 1  # kill the backbone: every hub plus the center
    rows = []
    for make in (NoRepairHealer, SurrogateHealer, ForgivingTreeHealer):
        healer = make({k: set(v) for k, v in overlay.items()})
        result = run_campaign(
            healer, MaxDegreeAdversary(), rounds=rounds, metrics="none"
        )
        graph = healer.graph()
        comps = connected_components(graph)
        main_comp = max((len(c) for c in comps), default=0)
        stranded = len(graph) - main_comp
        diam = (
            metrics.diameter_exact(graph)
            if len(comps) == 1 and len(graph) > 1
            else None
        )
        rows.append(
            [
                healer.name,
                len(comps),
                stranded,
                result.peak_degree_increase,
                diam if diam is not None else "n/a (split)",
            ]
        )

    print(format_table(
        ["strategy", "components", "stranded peers", "peak +degree", "diameter"],
        rows,
    ))
    print(
        "\nthe Forgiving Tree keeps every surviving peer reachable with no"
        "\nhot-spot for the adversary to target next — the cascade never starts."
    )
    replay_outage_trace()
    forgiving_graph_act()
    async_act()


if __name__ == "__main__":
    main()

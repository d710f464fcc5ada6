"""Pinned campaign outputs.

Every committed table is read off :class:`~repro.harness.CampaignResult`
objects.  This module runs a fixed matrix of small campaigns — the
Delete and Repair game over three healers, four adversaries, four
``metrics=`` modes, two ``stop_fraction`` floors and two input graphs,
plus a few campaigns over a hostile async transport — and hashes what a
benchmark reads from each (every :class:`~repro.harness.RoundRecord`,
the peak and count properties, the adversary's name, and the fault and
audit tallies where there are any).  The digests in
``golden_campaigns.json`` pin those outputs byte for byte, so a refactor
of the campaign loop that moves any of them fails here, naming the
first configuration whose digest differs.

Regenerate only for an intended change of behaviour::

    PYTHONPATH=src python -m tests.test_golden_campaigns
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.adversaries import (
    CenterAdversary,
    MaxDegreeAdversary,
    MinDegreeAdversary,
    RandomAdversary,
    ScatterChurnAdversary,
)
from repro.baselines import ForgivingGraphHealer, ForgivingTreeHealer, SurrogateHealer
from repro.faults import CrashDuringHeal, FaultPlan
from repro.graphs import generators
from repro.harness import run_campaign, run_churn_campaign
from repro.simnet import TransportSpec

GOLDEN = Path(__file__).with_name("golden_campaigns.json")
N0 = 40

GRAPHS = {
    "tree": lambda: generators.random_tree(N0, seed=3),
    "pa": lambda: generators.preferential_attachment(N0, 2, seed=3),
}
HEALERS = {
    "ft": ForgivingTreeHealer,
    "fg": ForgivingGraphHealer,
    "surrogate": SurrogateHealer,
}
ADVERSARIES = {
    "random": lambda: RandomAdversary(seed=4),
    "max-degree": MaxDegreeAdversary,
    "min-degree": MinDegreeAdversary,
    "center": CenterAdversary,
}
METRICS = ("auto", "double-sweep", "exact", "none")
STOP_FRACTIONS = (0.0, 0.5)


def _fresh(graph_name):
    return {k: set(v) for k, v in GRAPHS[graph_name]().items()}


def _deletion_game(graph, healer, adversary, metrics, stop_fraction):
    return lambda: run_campaign(
        HEALERS[healer](_fresh(graph)),
        ADVERSARIES[adversary](),
        metrics=metrics,
        stop_fraction=stop_fraction,
        seed=2,
    )


def _hostile_deletion_game():
    """The deletion game mirrored onto a lossy async network whose
    coordinator crashes mid-heal (one extra ``"crash"`` round)."""
    return run_campaign(
        ForgivingTreeHealer(_fresh("tree")),
        RandomAdversary(seed=4),
        rounds=16,
        seed=5,
        transport=TransportSpec(mode="async", latency="uniform", gap=0.1),
        faults=FaultPlan(
            drop=0.05, dup=0.02, crashes=(CrashDuringHeal(event=5, layer=1),)
        ),
    )


def _hostile_churn(healer):
    """Drop, dup and a coordinator crash under a churn stream."""
    return lambda: run_churn_campaign(
        HEALERS[healer](_fresh("tree")),
        ScatterChurnAdversary(p_insert=0.2, seed=3),
        events=24,
        metrics="none",
        seed=11,
        transport=TransportSpec(
            mode="async", latency="uniform", gap=0.1, barrier_every=8
        ),
        faults=FaultPlan(
            drop=0.05, dup=0.02, crashes=(CrashDuringHeal(event=6, layer=1),)
        ),
    )


def _audited_lease_churn():
    """Overlapping heals admitted through region leases, audited."""
    return run_churn_campaign(
        ForgivingTreeHealer(_fresh("tree")),
        ScatterChurnAdversary(p_insert=0.3, seed=8),
        events=30,
        seed=8,
        transport="lease",
        obs="audit",
    )


#: Config name -> zero-argument campaign runner, in reporting order.
CONFIGS = {
    f"delete/{g}/{h}/{a}/{m}/{s}": _deletion_game(g, h, a, m, s)
    for g in GRAPHS
    for h in HEALERS
    for a in ADVERSARIES
    for m in METRICS
    for s in STOP_FRACTIONS
}
CONFIGS["delete/async-drop-dup-crash"] = _hostile_deletion_game
CONFIGS["churn/ft/async-drop-dup-crash"] = _hostile_churn("ft")
CONFIGS["churn/fg/async-drop-dup-crash"] = _hostile_churn("fg")
CONFIGS["churn/ft/lease-audit"] = _audited_lease_churn


def digest(result) -> str:
    """SHA-256 over everything a table reads from one campaign."""
    payload = {
        "rounds": [dataclasses.asdict(r) for r in result.rounds],
        "adversary_name": result.adversary_name,
        "peak_degree_increase": result.peak_degree_increase,
        "peak_diameter": result.peak_diameter,
        "peak_stretch": result.peak_stretch,
        "peak_messages_per_node": result.peak_messages_per_node,
        "n_inserts": result.n_inserts,
        "n_deletes": result.n_deletes,
        "final_alive": result.final_alive,
        "stayed_connected": result.stayed_connected,
        "faults": result.faults.to_dict() if result.faults is not None else None,
        "audit": result.audit.summary() if result.audit is not None else None,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_config_is_pinned(golden):
    assert list(golden) == list(CONFIGS)


def test_campaigns_match_golden(golden):
    for name, run in CONFIGS.items():
        assert digest(run()) == golden[name], f"first differing config: {name}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: digest(run()) for name, run in CONFIGS.items()}, indent=0)
        + "\n"
    )

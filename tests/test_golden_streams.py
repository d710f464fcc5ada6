"""Pinned adversary event streams.

Every committed baseline (stretch, churn ladder, soak, the benchmark's
workloads) is a function of the adversaries' seeded event streams.  This
module replays the first :data:`EVENTS` events of each seeded adversary
at two seeds against a fixed Forgiving Tree campaign and compares them
with ``golden_streams.json``, so any change to a stream — a different
draw order, a different sampling primitive, a different tie-break —
fails loudly here instead of silently moving a baseline.
"""

import json
from pathlib import Path

import pytest

from repro.adversaries import (
    GrowthThenMassacreAdversary,
    HostileChurnAdversary,
    OscillatingChurnAdversary,
    OverlapChurnAdversary,
    RandomAdversary,
    RandomChurnAdversary,
    ScatterChurnAdversary,
    WaveChurnAdversary,
)
from repro.baselines import ForgivingTreeHealer
from repro.churn import Delete, Insert, InsertWave
from repro.graphs import generators

GOLDEN = Path(__file__).with_name("golden_streams.json")
EVENTS = 200
SEEDS = (0, 7)
#: Initial overlay: a random tree of N0 nodes (graph seed fixed) — large
#: enough that the deletion-heavy streams never empty it in EVENTS rounds.
N0, GRAPH_SEED = 256, 5

#: Stream name -> adversary factory taking the seed.
STREAMS = {
    "random-churn": lambda s: RandomChurnAdversary(seed=s),
    "random-churn-hub": lambda s: RandomChurnAdversary(seed=s, attach="hub"),
    "wave-churn": lambda s: WaveChurnAdversary(seed=s),
    "wave-churn-leaf": lambda s: WaveChurnAdversary(seed=s, attach="leaf"),
    "oscillating-churn": lambda s: OscillatingChurnAdversary(seed=s),
    "scatter-churn": lambda s: ScatterChurnAdversary(seed=s),
    "overlap-churn": lambda s: OverlapChurnAdversary(seed=s),
    "hostile-churn": lambda s: HostileChurnAdversary(seed=s),
    "growth-then-massacre": lambda s: GrowthThenMassacreAdversary(
        growth=20, seed=s
    ),
    "random": lambda s: RandomAdversary(seed=s),
}


def encode(event) -> str:
    if isinstance(event, Delete):
        return f"d{event.nid}"
    if isinstance(event, Insert):
        return f"i{event.nid}>{event.attach_to}"
    assert isinstance(event, InsertWave)
    return "w" + ",".join(f"{n}>{a}" for n, a in event.joiners)


def record(name: str, seed: int) -> list:
    """The first EVENTS events of stream ``name`` at ``seed``, applied to
    the healer as they are drawn."""
    tree = generators.random_tree(N0, seed=GRAPH_SEED)
    healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
    adversary = STREAMS[name](seed)
    out = []
    for _ in range(EVENTS):
        if isinstance(adversary, RandomAdversary):
            event = Delete(adversary.choose(healer))
        else:
            event = adversary.next_event(healer)
        if isinstance(event, Delete):
            healer.delete(event.nid)
        elif isinstance(event, Insert):
            healer.insert(event.nid, event.attach_to)
        else:
            healer.insert_batch(event.joiners)
        out.append(encode(event))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_stream_is_pinned(golden):
    assert set(golden) == {f"{n}/{s}" for n in STREAMS for s in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_matches_golden(golden, name, seed):
    assert record(name, seed) == golden[f"{name}/{seed}"]

"""The benchmark's workloads: seeded inputs and the campaign each one runs.

A workload turns ``--seed`` into inputs (for ``replay-deep`` the whole
churn trace) before any timing starts.  The program under test receives
only those inputs, plus the adversary and campaign seeds derived here
from the workload seed.

The initial overlay is the same for every seed (:data:`GRAPH_SEED`);
the seed varies the churn.  The shape of a random overlay is not
concentrated and the costs follow it: the depth of a uniform random tree
sets the incremental tracker's cost, and the hubs of a preferential-
attachment graph set the Forgiving Graph's, so with an overlay per seed
``events_per_s`` on ``replay-deep`` differed by a third between seeds.

Sizes come in two scales: ``full`` is what the benchmark measures and
``tiny`` is what the smoke test runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.adversaries import (
    GrowthThenMassacreAdversary,
    RandomChurnAdversary,
    TraceReplayAdversary,
)
from repro.baselines import ForgivingGraphHealer, ForgivingTreeHealer
from repro.churn import ChurnTrace, Delete, Insert, InsertWave
from repro.graphs.generators import preferential_attachment, random_tree

#: (n0, events) per workload and scale.
SIZES: Dict[str, Dict[str, Tuple[int, int]]] = {
    "churn-default": {"full": (10_000, 6000), "tiny": (300, 80)},
    "replay-deep": {"full": (100_000, 12_000), "tiny": (2000, 200)},
    "async-hostile": {"full": (2000, 2400), "tiny": (150, 60)},
    "fg-massacre": {"full": (1000, 500), "tiny": (120, 60)},
}

#: The replay trace's batch joins: one wave of this many joiners ...
WAVE_SIZE = 16
#: ... closes every block of this many events.
WAVE_EVERY = 64
#: Seed of every workload's initial overlay, fixed across run seeds.
GRAPH_SEED = 0
#: Seed of ``async-hostile``'s churn stream, fixed across run seeds.
CHURN_SEED = 0
#: Growth phase of the massacre adversary, in joins, per scale.
FG_GROWTH = {"full": 100, "tiny": 20}


@dataclass
class Workload:
    """One workload's inputs and how to drive a campaign over them."""

    name: str
    #: ``"ft"`` (Forgiving Tree healer) or ``"fg"`` (Forgiving Graph).
    protocol: str
    graph: dict
    events: int
    make_adversary: Callable[[], object]
    #: Extra ``run_churn_campaign`` keyword arguments (default knobs
    #: otherwise); ``seed`` is always present.
    campaign: Dict[str, object]
    #: What the result record stamps as the workload's parameters.
    params: Dict[str, object]

    def fresh_graph(self) -> dict:
        """A private copy of the initial overlay (made before set-up timing)."""
        return {u: set(vs) for u, vs in self.graph.items()}

    def make_healer(self, graph: dict):
        """The workload's healer over ``graph`` (timed as set-up)."""
        if self.protocol == "fg":
            return ForgivingGraphHealer(graph)
        return ForgivingTreeHealer(graph)


def _seeds(name: str, seed: int) -> Tuple[int, int]:
    """Independent adversary and campaign seeds for one run."""
    rng = random.Random(f"{name}/{seed}")
    return rng.getrandbits(32), rng.getrandbits(32)


def replay_trace(n0: int, events: int, seed: int) -> ChurnTrace:
    """Uniform single inserts and deletes, half each, over ids ``0..n0-1``,
    with an :class:`InsertWave` of :data:`WAVE_SIZE` joiners closing every
    :data:`WAVE_EVERY` events.  Victims and attachment points are drawn
    uniformly from the nodes alive at that point of the trace."""
    rng = random.Random(seed)
    alive: List[int] = list(range(n0))
    where = {nid: i for i, nid in enumerate(alive)}
    next_id = n0
    out = []

    def join(nid: int) -> None:
        where[nid] = len(alive)
        alive.append(nid)

    for k in range(events):
        if k % WAVE_EVERY == WAVE_EVERY - 1:
            wave = []
            for _ in range(WAVE_SIZE):
                wave.append((next_id, alive[rng.randrange(len(alive))]))
                next_id += 1
            for nid, _ in wave:
                join(nid)
            out.append(InsertWave(tuple(wave)))
        elif len(alive) <= 1 or rng.random() < 0.5:
            out.append(Insert(next_id, alive[rng.randrange(len(alive))]))
            join(next_id)
            next_id += 1
        else:
            victim = alive[rng.randrange(len(alive))]
            i = where.pop(victim)
            last = alive.pop()
            if last != victim:
                alive[i] = last
                where[last] = i
            out.append(Delete(victim))
    return ChurnTrace(events=out, name=f"replay-deep-{seed}")


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """Generate workload ``name``'s inputs from ``seed``."""
    if name not in SIZES:
        raise KeyError(f"unknown workload {name!r} (one of {sorted(SIZES)})")
    n0, events = SIZES[name][scale]
    adv_seed, run_seed = _seeds(name, seed)
    params: Dict[str, object] = {
        "scale": scale, "n0": n0, "events": events,
        "graph_seed": GRAPH_SEED, "adversary_seed": adv_seed,
        "campaign_seed": run_seed,
    }
    campaign: Dict[str, object] = {"seed": run_seed}
    if name == "churn-default":
        graph = random_tree(n0, seed=GRAPH_SEED)
        return Workload(
            name, "ft", graph, events,
            lambda: RandomChurnAdversary(seed=adv_seed), campaign,
            {**params, "graph": "random_tree", "adversary": "random-churn"},
        )
    if name == "replay-deep":
        graph = random_tree(n0, seed=GRAPH_SEED)
        trace = replay_trace(n0, events, adv_seed)
        return Workload(
            name, "ft", graph, events,
            lambda: TraceReplayAdversary(trace), campaign,
            {**params, "graph": "random_tree", "adversary": "trace-replay",
             "wave_size": WAVE_SIZE, "wave_every": WAVE_EVERY},
        )
    if name == "async-hostile":
        # The churn stream is fixed too; the seed varies the network.
        adv_seed = params["adversary_seed"] = CHURN_SEED
        graph = random_tree(n0, seed=GRAPH_SEED)
        campaign.update(
            transport="lease", faults={"drop": 0.05, "dup": 0.02}, obs="audit"
        )
        return Workload(
            name, "ft", graph, events,
            lambda: RandomChurnAdversary(seed=adv_seed), campaign,
            {**params, "graph": "random_tree", "adversary": "random-churn",
             "transport": "lease", "faults": {"drop": 0.05, "dup": 0.02},
             "obs": "audit"},
        )
    graph = preferential_attachment(n0, 2, seed=GRAPH_SEED)
    growth = FG_GROWTH[scale]
    return Workload(
        name, "fg", graph, events,
        lambda: GrowthThenMassacreAdversary(growth=growth, seed=adv_seed),
        campaign,
        {**params, "graph": "preferential_attachment(m=2)",
         "adversary": "growth-then-massacre", "growth": growth},
    )

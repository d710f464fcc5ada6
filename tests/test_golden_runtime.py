"""Pinned distributed-runtime behaviour.

The Forgiving Tree and Forgiving Graph message-passing runtimes are
driven two ways: standalone (``delete``/``insert``/``insert_batch`` and
the ``inject_*`` halves, on the synchronous :class:`Network` and on the
discrete-event :class:`AsyncNetwork`) and through the campaign
:class:`TransportMirror` (sync, async and lease transports, reliable or
hostile).  This module runs a fixed matrix of both and hashes what each
run emits:

* standalone — every operation's ``RoundStats``/``HealStats`` tallies
  (per-node dicts in insertion order, so a change of send order shows),
  the overlay after each operation, ``integrity_violations()`` after a
  forced crash, and on the async kernel its event log and Chrome trace;
* mirror campaigns — the kernel event log and per-heal stats, each
  repair pass's violation list, the :class:`TransportSummary` and
  ``obs.deterministic()`` plus the exported trace, and the driver's
  per-round stats and final overlay.

The digests in ``golden_runtime.json`` pin all of it byte for byte, so
a refactor of the drivers, the kernel or the mirror that moves any
message, trace mark, counter or violation fails here, naming the first
configuration whose digest differs.

Regenerate only for an intended change of behaviour::

    PYTHONPATH=src python -m tests.test_golden_runtime
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.adversaries.churn import ChurnAdversary
from repro.baselines import ForgivingGraphHealer, ForgivingTreeHealer
from repro.churn import Delete, Insert, InsertWave
from repro.core.errors import SimulationOverError
from repro.distributed import DistributedForgivingTree
from repro.faults import CrashDuringHeal, FaultPlan
from repro.fgraph import DistributedForgivingGraph
from repro.graphs import generators
from repro.obs import ObsSpec, ObsState, Tracer
from repro.simnet import AsyncNetwork, TransportMirror, TransportSpec

GOLDEN = Path(__file__).with_name("golden_runtime.json")
N0 = 30
OPS = 24
EVENTS = 40


def _plain(obj):
    """JSON-able view that keeps dict insertion order (as pair lists)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _plain(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return [[_plain(k), _plain(v)] for k, v in obj.items()]
    if isinstance(obj, (set, frozenset)):
        return sorted(_plain(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


def _hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- standalone drivers ---------------------------------------------------
def _graph(protocol):
    if protocol == "ft":
        return generators.random_tree(N0, seed=3)
    return generators.preferential_attachment(N0, 2, seed=3)


def _driver(protocol, net):
    if protocol == "ft":
        return DistributedForgivingTree(_graph("ft"), network=net)
    return DistributedForgivingGraph(_graph("fg"), network=net)


def _inject(driver, net, kind, arg):
    """One event through the ``inject_*`` halves, then drained."""
    if isinstance(net, AsyncNetwork):
        net.open_heal(label=f"{kind}-inject")
    else:
        net.begin_round(driver.rounds + 1)
    if kind == "delete":
        driver.inject_delete(arg)
    else:
        driver.inject_insert_batch(arg)
    if isinstance(net, AsyncNetwork):
        net.close_injection()
        net.quiesce()
        return net.stats_history[-1]
    return net.run_round(driver.rounds)


def _standalone(protocol, transport):
    def run():
        tracer = None
        net = None
        if transport == "async":
            tracer = Tracer()
            net = AsyncNetwork(
                latency="uniform", seed=3, record_log=True, tracer=tracer
            )
        driver = _driver(protocol, net)
        net = driver.network
        rng = random.Random(7)
        next_id = N0
        rows = [_plain(driver.setup_stats)]
        for i in range(OPS):
            alive = sorted(driver.alive)
            r = rng.random()
            if r < 0.2:
                wave = [(next_id + k, rng.choice(alive)) for k in range(3)]
                next_id += 3
                op = ("wave", wave)
            elif r < 0.4:
                op = ("insert", (next_id, rng.choice(alive)))
                next_id += 1
            else:
                op = ("delete", rng.choice(alive))
            kind, arg = op
            if i % 3 == 2:
                stats = _inject(
                    driver, net, kind, [arg] if kind == "insert" else arg
                )
                driver._check_quiescent()
            elif kind == "wave":
                stats = driver.insert_batch(arg)
            elif kind == "insert":
                stats = driver.insert(*arg)
            else:
                stats = driver.delete(arg)
            rows.append([op, _plain(stats), sorted(driver.edges())])
        summary = [
            driver.rounds,
            len(driver),
            driver.max_degree_increase(),
            driver.peak_messages_per_node(),
            _plain(driver.last_stats()),
            sorted(driver.original_degree.items()),
            sorted(driver.degree(n) for n in driver.alive),
            sorted((n, sorted(s)) for n, s in driver.adjacency().items()),
        ]
        # Forced crash: a heal loses one participant mid-flight (silently,
        # no failure fan-out), leaving dangling pointers and frozen heals.
        victim = sorted(driver.alive)[len(driver) // 2]
        claims = sorted(net.nodes[victim].neighbor_claims())
        doomed = claims[-1] if claims else victim
        if isinstance(net, AsyncNetwork):
            hid = net.open_heal(label="crash")
            net.arm_crash(hid, 0, doomed)
            driver.inject_delete(victim)
            net.close_injection()
            net.quiesce()
        else:
            net.begin_round(driver.rounds + 1)
            driver.inject_delete(victim)
            if doomed != victim:
                net.nodes.pop(doomed)
            net.run_round(driver.rounds)
        crash = [victim, doomed, driver.integrity_violations()]
        payload = {"rows": rows, "summary": summary, "crash": crash}
        if isinstance(net, AsyncNetwork):
            payload["event_log"] = [rec.to_dict() for rec in net.event_log]
            payload["trace"] = tracer.export_chrome()
        return payload

    return run


# -- mirror campaigns -----------------------------------------------------
class _MixAdversary(ChurnAdversary):
    """Seeded deletes, single inserts and waves of three."""

    name = "golden-mix"

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self._rng = random.Random(seed)

    def next_event(self, healer):
        alive = healer.alive_order
        if not alive:
            raise SimulationOverError("network is empty")
        r = self._rng.random()
        if len(alive) <= 2 or r < 0.15:
            return InsertWave(
                tuple(
                    (self._fresh_id(healer), self._rng.choice(alive))
                    for _ in range(3)
                )
            )
        if r < 0.3:
            return Insert(self._fresh_id(healer), self._rng.choice(alive))
        return Delete(self._rng.choice(alive))

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)


FAULTS = {
    "none": None,
    "drop-dup": FaultPlan(drop=0.08, dup=0.05),
    "crash-coordinator": FaultPlan(
        drop=0.03, crashes=(CrashDuringHeal(event=7, layer=1),)
    ),
    "crash-participant": FaultPlan(
        dup=0.03,
        crashes=(CrashDuringHeal(event=9, layer=0, target="participant"),),
    ),
}


def _mirror_campaign(protocol, mode, faults):
    def run():
        graph = _graph(protocol)
        if protocol == "ft":
            healer = ForgivingTreeHealer(graph)
        else:
            healer = ForgivingGraphHealer(graph)
        if mode == "sync":
            spec = TransportSpec(mode="sync", seed=5, barrier_every=6)
            obs = ObsState(ObsSpec(profile=True, recorder=64))
        else:
            spec = TransportSpec(
                mode="async",
                seed=5,
                gap=0.1,
                barrier_every=6,
                overlap="lease" if mode == "lease" else "serialize",
                faults=FAULTS[faults],
                record_log=True,
            )
            obs = ObsState(ObsSpec(trace=True, profile=True, recorder=64))
        mirror = TransportMirror(healer, spec, obs=obs)
        adversary = _MixAdversary(seed=9)
        for _ in range(EVENTS):
            event = adversary.next_event(healer)
            if isinstance(event, Delete):
                report = healer.delete(event.nid)
            elif isinstance(event, Insert):
                report = healer.insert(event.nid, event.attach_to)
            else:
                report = healer.insert_batch(event.joiners)
            mirror.apply(report)
            if mirror.pending_crash is not None:
                mirror.recover_from_crash(healer.delete(mirror.pending_crash))
        summary = mirror.finish()
        result = obs.finish()
        return {
            "rounds": _plain(mirror.driver.network.stats_history),
            "edges": sorted(mirror.driver.edges()),
            "summary": _plain(summary),
            "repairs": [
                [rep.victim, _plain(rep.violations), _plain(rep.residual)]
                for rep in mirror.repairs
            ],
            "obs": result.deterministic(),
            "trace": result.tracer.export_chrome() if result.tracer else None,
        }

    return run


#: Config name -> zero-argument runner returning the payload to digest.
CONFIGS = {
    f"standalone/{p}/{t}": _standalone(p, t)
    for p in ("ft", "fg")
    for t in ("sync", "async")
}
for _p in ("ft", "fg"):
    CONFIGS[f"mirror/{_p}/sync/none"] = _mirror_campaign(_p, "sync", "none")
    for _m in ("async", "lease"):
        for _f in FAULTS:
            CONFIGS[f"mirror/{_p}/{_m}/{_f}"] = _mirror_campaign(_p, _m, _f)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_config_is_pinned(golden):
    assert list(golden) == list(CONFIGS)


def test_runtime_matches_golden(golden):
    for name, run in CONFIGS.items():
        assert _hash(run()) == golden[name], f"first differing config: {name}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: _hash(run()) for name, run in CONFIGS.items()}, indent=0)
        + "\n"
    )

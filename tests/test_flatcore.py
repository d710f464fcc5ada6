"""Object-vs-flat parity wall for the struct-of-arrays core.

The flat core (:class:`repro.FlatForgivingTree`) is a re-implementation of
the sequential engine on preallocated parallel arrays; the object engine
(:class:`repro.ForgivingTree`) stays the reference oracle.  The contract
is *structural identity*, not mere equivalence: over any churn script the
two engines must produce bit-identical heal reports (edge deltas, the
full ordered event log, per-node message tallies), the same image graph,
the same wills, and the same degree accounting.  Everything here drives
both engines with the same drawn events and asserts that contract.

Also covered: the free-list id recycling that keeps the arena bounded,
``from_parents`` O(n) construction, the healer over either engine
(``from_engine``) and its fast path (``fast_stats``), the harness's
streaming ``keep_rounds=False`` mode, and the benchmark table's numeric
coercion.
"""

import importlib.util
import os
import random

import pytest

from repro import FlatForgivingTree, ForgivingTree
from repro.adversaries import MaxDegreeAdversary, RandomChurnAdversary
from repro.baselines import ForgivingTreeHealer, NoRepairHealer
from repro.core import invariants
from repro.core.errors import (
    NodeNotFoundError,
    NotATreeError,
    SimulationOverError,
)
from repro.graphs import generators
from repro.graphs.adjacency import is_connected
from repro.graphs.incremental import DynamicTreeMetrics
from repro.harness import run_campaign, run_churn_campaign
from tests.conftest import wrap_engine


def _load_bench_conftest():
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "benchmarks", "conftest.py"
    )
    spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_key(rep):
    """A heal report reduced to comparable structure."""
    return (
        rep.deleted,
        rep.was_internal,
        sorted(rep.edges_added),
        sorted(rep.edges_removed),
        rep.events,
        rep.messages_per_node,
        rep.inserted,
        rep.attached_to,
        rep.inserted_batch,
    )


def assert_twins(obj, flat):
    """The two engines are structurally identical right now."""
    assert set(flat.alive) == obj.alive
    assert flat.adjacency() == obj.adjacency()
    assert flat.max_degree_increase() == obj.max_degree_increase()
    for nid in obj.alive:
        assert flat.degree(nid) == obj.degree(nid)
        assert flat.degree_increase(nid) == obj.degree_increase(nid)
        assert flat.state_of(nid) == obj.state_of(nid)
        assert flat.heir_of(nid) == obj.heir_of(nid)
        w_obj, w_flat = obj.will_of(nid), flat.will_of(nid)
        assert w_flat.heir == w_obj.heir
        assert w_flat.stand_ins == w_obj.stand_ins
        assert w_flat.internal_specs() == w_obj.internal_specs()
    assert flat.render() == obj.render()


def play_twins(n0, events, branching, will_mode, seed, check_every=1,
               p_insert=0.40, p_batch=0.12, drain=False):
    """Drive both engines with one shared drawn event stream."""
    tree = generators.random_tree(n0, seed=seed)
    obj = ForgivingTree(tree, branching=branching, will_mode=will_mode,
                        strict=True)
    flat = FlatForgivingTree(tree, branching=branching, will_mode=will_mode,
                             strict=True)
    rng = random.Random(seed * 31 + 7)
    next_id = max(tree) + 1
    for t in range(events):
        alive = sorted(obj.alive)
        if not alive:
            break
        roll = rng.random()
        if roll < p_batch and len(alive) > 2:
            wave = []
            for _ in range(rng.randint(2, 4)):
                wave.append((next_id, rng.choice(alive)))
                next_id += 1
            r_obj = obj.insert_batch(wave)
            r_flat = flat.insert_batch(wave)
        elif roll < p_batch + p_insert:
            attach = rng.choice(alive)
            r_obj = obj.insert(next_id, attach)
            r_flat = flat.insert(next_id, attach)
            next_id += 1
        else:
            victim = rng.choice(alive)
            r_obj = obj.delete(victim)
            r_flat = flat.delete(victim)
        assert report_key(r_flat) == report_key(r_obj), f"diverged at event {t}"
        if t % check_every == 0:
            assert_twins(obj, flat)
            invariants.check_full(obj)
            invariants.check_full(flat)
    if drain:
        while obj.alive:
            victim = rng.choice(sorted(obj.alive))
            r_obj = obj.delete(victim)
            r_flat = flat.delete(victim)
            assert report_key(r_flat) == report_key(r_obj)
            if obj.alive:
                assert_twins(obj, flat)
    return obj, flat


class TestStructuralIdentity:
    """Bit-identical behaviour over seeded mixed churn campaigns."""

    @pytest.mark.parametrize("branching", [2, 3, 5])
    @pytest.mark.parametrize("will_mode", ["splice", "rebuild"])
    def test_mixed_churn_parity(self, branching, will_mode):
        play_twins(24, 70, branching, will_mode, seed=branching * 100 + 1,
                   check_every=4)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_endgame_drain_parity(self, seed):
        # Churn down to the empty network: the late game exercises root
        # re-rooting, ready heirs and donor exhaustion.
        play_twins(16, 40, 2, "splice", seed=seed, check_every=5, drain=True)

    def test_deeper_campaign_parity(self):
        play_twins(60, 150, 2, "splice", seed=42, check_every=15)

    def test_delete_only_parity(self):
        play_twins(30, 60, 2, "rebuild", seed=5, check_every=6,
                   p_insert=0.0, p_batch=0.0)

    def test_empty_engine_raises(self):
        flat = FlatForgivingTree({0: set()})
        flat.delete(0)
        with pytest.raises(SimulationOverError):
            flat.delete(0)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: One drawn churn step: (kind, pick) — ``pick`` indexes the alive set
#: (victim or attachment point) modulo its size; kind < 2 inserts.
fuzz_steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=10**6)),
    min_size=1,
    max_size=40,
)


class TestFuzzedInterleavings:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50), script=fuzz_steps)
    def test_any_interleaving_is_identical(self, seed, script):
        tree = generators.random_tree(10, seed=seed)
        obj = ForgivingTree(tree, strict=True)
        flat = FlatForgivingTree(tree, strict=True)
        next_id = max(tree) + 1
        for kind, pick in script:
            alive = sorted(obj.alive)
            if not alive:
                break
            target = alive[pick % len(alive)]
            if kind < 2:
                r_obj = obj.insert(next_id, target)
                r_flat = flat.insert(next_id, target)
                next_id += 1
            else:
                r_obj = obj.delete(target)
                r_flat = flat.delete(target)
            assert report_key(r_flat) == report_key(r_obj)
            if obj.alive:
                assert set(flat.alive) == obj.alive
                assert flat.adjacency() == obj.adjacency()
                assert flat.max_degree_increase() == obj.max_degree_increase()
        if obj.alive:
            assert_twins(obj, flat)
            invariants.check_full(flat)


class TestFreeListRecycling:
    """Slot reuse keeps the arena bounded; identities never leak."""

    def test_arena_stays_bounded_under_steady_churn(self):
        tree = generators.random_tree(12, seed=3)
        flat = FlatForgivingTree(tree, strict=True)
        rng = random.Random(3)
        next_id = max(tree) + 1
        flat.delete(rng.choice(sorted(flat.alive)))
        capacity = len(flat._c.kind)
        for _ in range(120):
            flat.insert(next_id, rng.choice(sorted(flat.alive)))
            next_id += 1
            flat.delete(rng.choice(sorted(flat.alive)))
        # 120 insert+delete cycles recycle slots instead of growing the
        # arena: a leak would allocate ~2 slots per cycle.
        assert len(flat._c.kind) <= capacity + 16
        invariants.check_full(flat)

    def test_helper_ids_are_never_reused(self):
        tree = generators.random_tree(14, seed=9)
        flat = FlatForgivingTree(tree, strict=True)
        rng = random.Random(9)
        next_id = max(tree) + 1
        seen = set()
        for _ in range(30):
            alive = sorted(flat.alive)
            if len(alive) <= 2:
                break
            if rng.random() < 0.4:
                flat.insert(next_id, rng.choice(alive))
                next_id += 1
            else:
                flat.delete(rng.choice(alive))
            hids = [h.hid for h in flat.virtual_tree().helpers()]
            assert len(hids) == len(set(hids))
            # A freed helper identity never comes back: new helpers
            # always take fresh (higher) ids.
            fresh = set(hids) - seen
            if seen and fresh:
                assert min(fresh) > max(seen)
            seen |= set(hids)

    def test_slots_freed_in_one_event_not_reused_within_it(self):
        # Deleting an internal node both frees slots (the dead node's
        # will) and allocates slots (the new helpers).  The limbo
        # quarantine makes freed slots invisible until the next event —
        # otherwise slot-int equality could alias two distinct
        # within-event participants.  Observable contract: the event is
        # structurally identical to the object engine's, which uses
        # object identity and cannot alias.  An aliasing bug would make
        # the two engines diverge, so parity over internal deletions
        # (exercised heavily above) is the real test; here we pin the
        # mechanism directly.
        tree = generators.random_tree(20, seed=4)
        flat = FlatForgivingTree(tree, strict=True)
        internal = max(flat.alive, key=flat.degree)
        before = set(flat._c._free)
        flat.delete(internal)
        # Slots freed by this event sit in limbo, not on the free list
        # (the event may also have *consumed* free slots for new helpers,
        # but nothing freed this event may reappear there)...
        assert set(flat._c._free) <= before
        limbo = set(flat._c._limbo)
        assert limbo and not limbo & set(flat._c._free)
        # ...until the next event begins, which recycles them.
        survivor = sorted(flat.alive)[0]
        flat.insert(max(tree) + 1, survivor)
        assert limbo <= set(flat._c._free) | set(flat._c._limbo) | {
            flat._c.real(max(tree) + 1)
        }


class TestAliveView:
    def test_set_algebra_without_copies(self):
        tree = generators.random_tree(9, seed=1)
        flat = FlatForgivingTree(tree)
        view = flat.alive
        assert view == set(tree)
        assert len(view) == 9
        assert 0 in view and 99 not in view
        assert view & {0, 1, 99} == {0, 1}
        assert {0, 1} <= view
        assert sorted(view | {99}) == sorted(set(tree) | {99})
        flat.delete(3)
        assert 3 not in view  # live view, not a snapshot
        assert len(view) == 8


class TestFromParents:
    def _parents_of(self, tree, root=0):
        parents = [0] * len(tree)
        parents[root] = -1
        stack, seen = [root], {root}
        while stack:
            u = stack.pop()
            for v in tree[u]:
                if v not in seen:
                    seen.add(v)
                    parents[v] = u
                    stack.append(v)
        return parents

    def test_matches_adjacency_construction(self):
        tree = generators.random_tree(40, seed=6)
        parents = self._parents_of(tree)
        a = FlatForgivingTree(tree, root=0)
        b = FlatForgivingTree.from_parents(parents)
        assert b.adjacency() == a.adjacency()
        assert b.render() == a.render()
        b.check()

    def test_churn_after_from_parents_stays_identical(self):
        tree = generators.random_tree(25, seed=8)
        obj = ForgivingTree(tree, root=0, strict=True)
        flat = FlatForgivingTree.from_parents(self._parents_of(tree),
                                              strict=True)
        rng = random.Random(8)
        next_id = len(tree)
        for _ in range(50):
            alive = sorted(obj.alive)
            if len(alive) <= 1:
                break
            if rng.random() < 0.4:
                attach = rng.choice(alive)
                r_obj = obj.insert(next_id, attach)
                r_flat = flat.insert(next_id, attach)
                next_id += 1
            else:
                victim = rng.choice(alive)
                r_obj = obj.delete(victim)
                r_flat = flat.delete(victim)
            assert report_key(r_flat) == report_key(r_obj)
        assert_twins(obj, flat)

    def test_rejects_malformed_parent_arrays(self):
        with pytest.raises(NotATreeError):
            FlatForgivingTree.from_parents([])
        with pytest.raises(NotATreeError):
            FlatForgivingTree.from_parents([-1, -1, 0])  # two roots
        with pytest.raises(NotATreeError):
            FlatForgivingTree.from_parents([1, 0])  # no root
        with pytest.raises(NotATreeError):
            FlatForgivingTree.from_parents([-1, 2, 1])  # 1<->2 cycle
        with pytest.raises(NodeNotFoundError):
            FlatForgivingTree.from_parents([-1, 7])  # parent out of range

    def test_metrics_from_parents_matches_adjacency(self):
        tree = generators.random_tree(60, seed=10)
        parents = self._parents_of(tree)
        a = DynamicTreeMetrics(tree)
        b = DynamicTreeMetrics.from_parents(parents)
        assert b.root == a.root
        assert b.diameter == a.diameter
        assert all(b.height_of(v) == a.height_of(v) for v in tree)
        b.check()

    def test_metrics_from_parents_rejects_malformed(self):
        with pytest.raises(NotATreeError):
            DynamicTreeMetrics.from_parents([-1, -1])
        with pytest.raises(NotATreeError):
            DynamicTreeMetrics.from_parents([1, 0])
        with pytest.raises(NotATreeError):
            DynamicTreeMetrics.from_parents([-1, 2, 1])
        with pytest.raises(NodeNotFoundError):
            DynamicTreeMetrics.from_parents([-1, 9])


class TestHealerEngines:
    def test_cores_heal_identically_behind_the_healer(self):
        tree = generators.random_tree(30, seed=12)
        healers = {
            "flat": ForgivingTreeHealer({k: set(v) for k, v in tree.items()}),
            "object": wrap_engine(ForgivingTree, tree),
        }
        rng = random.Random(12)
        next_id = len(tree)
        for _ in range(40):
            alive = sorted(healers["flat"].alive)
            if len(alive) <= 1:
                break
            if rng.random() < 0.45:
                attach = rng.choice(alive)
                reports = [h.insert(next_id, attach)
                           for h in healers.values()]
                next_id += 1
            else:
                victim = rng.choice(alive)
                reports = [h.delete(victim) for h in healers.values()]
            assert report_key(reports[0]) == report_key(reports[1])
            assert healers["flat"].graph() == healers["object"].graph()

    @pytest.mark.parametrize("engine_cls", [FlatForgivingTree, ForgivingTree])
    def test_wrapped_healer_matches_constructed_on_non_tree_graph(
        self, engine_cls
    ):
        graph = generators.preferential_attachment(30, 2, seed=14)
        built = ForgivingTreeHealer({k: set(v) for k, v in graph.items()})
        wrapped = wrap_engine(engine_cls, graph)
        # The extras are original edges: nothing is heal-induced yet.
        assert built.max_degree_increase() == wrapped.max_degree_increase() == 0
        rng = random.Random(14)
        next_id = len(graph)
        for _ in range(40):
            alive = sorted(built.alive)
            if len(alive) <= 2:
                break
            if rng.random() < 0.35:
                attach = rng.choice(alive)
                reports = [h.insert(next_id, attach) for h in (built, wrapped)]
                next_id += 1
            else:
                victim = rng.choice(alive)
                reports = [h.delete(victim) for h in (built, wrapped)]
            assert report_key(reports[0]) == report_key(reports[1])
            assert built.graph() == wrapped.graph()
            for nid in built.alive:
                assert built.degree_increase(nid) == wrapped.degree_increase(nid)
            assert built.max_degree_increase() == wrapped.max_degree_increase()

    def test_fast_stats_agrees_with_the_graph(self):
        tree = generators.random_tree(40, seed=13)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        rng = random.Random(13)
        for _ in range(15):
            healer.delete(rng.choice(sorted(healer.alive)))
            connected, alive = healer.fast_stats()
            graph = healer.graph()
            assert connected is is_connected(graph)
            assert alive == len(graph) == len(healer.alive)


class TestHarnessStreaming:
    def _campaign(self, keep_rounds):
        tree = generators.random_tree(120, seed=21)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        adversary = RandomChurnAdversary(p_insert=0.5, seed=21)
        return run_churn_campaign(healer, adversary, events=80,
                                  metrics="auto", keep_rounds=keep_rounds)

    @staticmethod
    def _from_rounds(rounds):
        """The aggregate properties recomputed from the kept records."""
        return {
            "peak_degree_increase": max(r.max_degree_increase for r in rounds),
            "peak_diameter": max(
                (r.diameter for r in rounds if r.diameter is not None), default=0
            ),
            "stayed_connected": all(r.connected for r in rounds),
            "peak_messages_per_node": max(r.max_messages_per_node for r in rounds),
            "n_inserts": sum(r.event == "insert" for r in rounds),
            "n_deletes": sum(r.event == "delete" for r in rounds),
            "final_alive": rounds[-1].alive,
        }

    def test_fold_equals_rounds(self):
        kept, streamed = self._campaign(True), self._campaign(False)
        assert kept.rounds and not streamed.rounds
        assert streamed.series("alive") == []
        for prop, value in self._from_rounds(kept.rounds).items():
            assert getattr(kept, prop) == value, prop
            assert getattr(streamed, prop) == value, prop

    def test_fold_keeps_a_negative_peak_degree_increase(self):
        # Hub deletions with no repair shrink every surviving degree.
        def run(keep_rounds):
            return run_campaign(
                NoRepairHealer(generators.star(8)), MaxDegreeAdversary(),
                metrics="none", keep_rounds=keep_rounds,
            )

        kept, streamed = run(True), run(False)
        expected = self._from_rounds(kept.rounds)
        assert expected["peak_degree_increase"] < 0
        for prop, value in expected.items():
            assert getattr(streamed, prop) == value, prop

    def test_metrics_none_with_fast_stats_skips_nothing_observable(self):
        tree = generators.random_tree(60, seed=22)

        def run(metrics):
            healer = ForgivingTreeHealer(
                {k: set(v) for k, v in tree.items()}
            )
            adversary = RandomChurnAdversary(p_insert=0.5, seed=22)
            return run_churn_campaign(healer, adversary, events=40,
                                      metrics=metrics)

        fast, full = run("none"), run("auto")
        assert fast.stayed_connected == full.stayed_connected
        assert fast.final_alive == full.final_alive
        assert fast.peak_degree_increase == full.peak_degree_increase
        assert all(r.diameter is None for r in fast.rounds)


class TestBenchTableCoercion:
    def test_coerce_restores_numbers(self):
        bench = _load_bench_conftest()
        assert bench._coerce("126") == 126
        assert isinstance(bench._coerce("126"), int)
        assert bench._coerce("5.2x") == 5.2
        assert bench._coerce("97%") == 97
        assert bench._coerce("99.5%") == 99.5
        assert bench._coerce("forgiving-tree") == "forgiving-tree"
        assert bench._coerce("inf") == "inf"  # non-finite stays a string
        assert bench._coerce("nanx") == "nanx"
        assert bench._coerce(True) is True
        assert bench._coerce(3.5) == 3.5

    def test_table_payload_is_numeric(self):
        bench = _load_bench_conftest()
        payload = bench.table(["a", "b", "c"], [["12", "3.4x", "ok"]])
        assert payload["rows"] == [[12, 3.4, "ok"]]

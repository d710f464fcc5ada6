"""Tests for the churn subsystem: insertions, mixed campaigns, adversaries,
trace replay, and the sequential/distributed cross-check under churn."""

import random

import pytest

from repro import ForgivingTree
from repro.adversaries import (
    DeletionOnlyChurnAdversary,
    GrowthThenMassacreAdversary,
    MaxDegreeAdversary,
    OscillatingChurnAdversary,
    RandomChurnAdversary,
    TraceReplayAdversary,
    WaveChurnAdversary,
)
from repro.baselines import (
    BinaryTreeHealer,
    ForgivingTreeHealer,
    LineHealer,
    NoRepairHealer,
    SurrogateHealer,
)
from repro.churn import ChurnTrace, Delete, Insert, InsertWave, synthetic_skype_outage
from repro.core.errors import (
    DuplicateNodeError,
    NodeNotFoundError,
    ReproError,
    SimulationOverError,
)
from repro.core.events import LeafWillSent, NodeInserted, WillPortionSent
from repro.core.invariants import check_full
from repro.core.slot_tree import SlotTree
from repro.distributed import DistributedForgivingTree
from repro.graphs import generators
from repro.graphs.adjacency import is_connected
from repro.harness import churn_duel, run_churn_campaign


class TestSlotTreeAdd:
    def test_add_to_empty_becomes_heir(self):
        st = SlotTree([])
        delta = st.add(7)
        assert delta.became_heir
        assert st.heir == 7
        assert st.stand_ins == [7]
        st.check()

    def test_add_pairs_with_existing_leaf(self):
        st = SlotTree([3])
        delta = st.add(9)
        # The new stand-in simulates the fresh internal position itself.
        assert delta.paired_with == 3
        assert st.heir == 3  # heir-ness does not move
        assert st.has_internal(9)
        assert sorted(st.stand_ins) == [3, 9]
        st.check()

    def test_add_rejects_duplicate(self):
        st = SlotTree([1, 2])
        with pytest.raises(DuplicateNodeError):
            st.add(1)

    def test_touched_delta_is_constant(self):
        st = SlotTree(list(range(32)))
        delta = st.add(99)
        assert len(delta.touched) <= 4

    def test_depth_stays_logarithmic_under_growth(self):
        import math

        st = SlotTree([0, 1])
        for i in range(2, 130):
            st.add(i)
            st.check()
        assert st.depth() <= math.ceil(math.log2(len(st))) + 1

    def test_interleaved_add_remove_keeps_invariants(self):
        rng = random.Random(5)
        st = SlotTree([0, 1, 2, 3])
        nxt = 4
        for _ in range(200):
            if len(st) <= 1 or rng.random() < 0.55:
                st.add(nxt)
                nxt += 1
            else:
                st.remove(rng.choice(st.stand_ins))
            st.check()

    def test_generalized_branching_uses_spare_arity(self):
        st = SlotTree([1, 2, 3], branching=3)
        # root internal has 3 children; adding pairs at a shallowest leaf
        st.add(10)
        st.check()
        st2 = SlotTree([1, 2], branching=3)
        # root internal has 2 < 3 children: the new leaf fills the slot
        delta = st2.add(10)
        assert delta.paired_with is None
        assert not st2.has_internal(10)
        st2.check()


class TestForgivingTreeInsert:
    def test_insert_adds_leaf_edge(self):
        ft = ForgivingTree({0: [1, 2]}, strict=True)
        report = ft.insert(5, 1)
        assert report.is_insertion
        assert report.inserted == 5 and report.attached_to == 1
        assert (1, 5) in ft.edges()
        assert ft.degree(5) == 1
        assert 5 in ft.alive

    def test_insert_report_events(self):
        ft = ForgivingTree({0: [1]}, strict=True)
        report = ft.insert(2, 1)
        kinds = [type(e) for e in report.events]
        assert kinds[0] is NodeInserted
        assert WillPortionSent in kinds and LeafWillSent in kinds
        assert "inserted 2" in report.describe()

    def test_insert_updates_baseline_degrees(self):
        """The ideal-graph convention: demanded edges are not 'increase'."""
        ft = ForgivingTree({0: [1, 2]}, strict=True)
        for i, nid in enumerate(range(10, 18)):
            ft.insert(nid, 0)
            assert ft.degree_increase(0) == 0
            assert ft.degree_increase(nid) == 0
        assert ft.max_degree_increase() == 0

    def test_insert_rejects_reused_id_even_after_death(self):
        ft = ForgivingTree({0: [1, 2]}, strict=True)
        ft.delete(1)
        with pytest.raises(DuplicateNodeError):
            ft.insert(1, 0)
        with pytest.raises(DuplicateNodeError):
            ft.insert(0, 2)

    def test_insert_rejects_dead_attachment(self):
        ft = ForgivingTree({0: [1, 2]}, strict=True)
        ft.delete(2)
        with pytest.raises(NodeNotFoundError):
            ft.insert(9, 2)

    def test_insert_then_delete_round_trips(self):
        ft = ForgivingTree({0: [1, 2]}, strict=True)
        before = ft.edges()
        ft.insert(7, 2)
        ft.delete(7)
        assert ft.edges() == before

    def test_inserted_node_participates_in_healing(self):
        ft = ForgivingTree({0: [1, 2]}, strict=True)
        ft.insert(7, 1)
        ft.insert(8, 1)
        ft.delete(1)  # the internal attachment point dies
        assert is_connected(ft.adjacency())
        assert ft.max_degree_increase() <= 3

    def test_insert_onto_single_node(self):
        ft = ForgivingTree({0: [1]}, strict=True)
        ft.delete(1)
        ft.insert(5, 0)
        assert ft.edges() == {(0, 5)}

    def test_mixed_churn_keeps_all_invariants(self):
        rng = random.Random(11)
        ft = ForgivingTree(generators.random_tree(20, seed=11), strict=True)
        nxt = 100
        for _ in range(150):
            alive = sorted(ft.alive)
            if len(alive) <= 1 or rng.random() < 0.5:
                ft.insert(nxt, rng.choice(alive))
                nxt += 1
            else:
                ft.delete(rng.choice(alive))
            if len(ft) > 1:
                check_full(ft)
            assert ft.max_degree_increase() <= 3


class TestBaselineInserts:
    @pytest.mark.parametrize(
        "factory",
        [ForgivingTreeHealer, SurrogateHealer, LineHealer, BinaryTreeHealer, NoRepairHealer],
    )
    def test_every_healer_accepts_insertions(self, factory):
        healer = factory({0: {1, 2}, 1: {0}, 2: {0}})
        report = healer.insert(9, 0)
        assert report.is_insertion
        assert 9 in healer.alive
        assert healer.degree_increase(9) == 0
        assert healer.degree_increase(0) == 0
        with pytest.raises(DuplicateNodeError):
            healer.insert(9, 0)
        with pytest.raises(NodeNotFoundError):
            healer.insert(10, 77)


class TestChurnAdversaries:
    def _healer(self, n=20, seed=3):
        return ForgivingTreeHealer(
            {k: set(v) for k, v in generators.random_tree(n, seed=seed).items()}
        )

    def test_random_churn_emits_fresh_ids(self):
        adv = RandomChurnAdversary(p_insert=1.0, seed=0)
        healer = self._healer()
        seen = set(healer.alive)
        for _ in range(30):
            event = adv.next_event(healer)
            assert isinstance(event, Insert)
            assert event.nid not in seen
            assert event.attach_to in healer.alive
            seen.add(event.nid)
            healer.insert(event.nid, event.attach_to)

    def test_fresh_ids_skip_dead_max_id(self):
        """Regression: deleting the highest-id node before the first
        insert must not make the adversary re-issue that id."""
        healer = self._healer(n=10, seed=1)
        adv = RandomChurnAdversary(p_insert=1.0, seed=0)
        top = max(healer.alive)
        healer.delete(top)
        event = adv.next_event(healer)
        assert event.nid > top
        healer.insert(event.nid, event.attach_to)  # must not raise

    def test_random_churn_survives_deletion_heavy_streams(self):
        """The review's reproduction: seeds whose first coin-flips delete
        the max-id node (DuplicateNodeError before the fix)."""
        for seed in range(12):
            healer = self._healer(n=10, seed=1)
            result = run_churn_campaign(
                healer,
                RandomChurnAdversary(p_insert=0.5, seed=seed),
                events=40,
                metrics="none",
            )
            assert len(result.rounds) == 40

    def test_random_churn_is_deterministic_after_reset(self):
        adv = RandomChurnAdversary(p_insert=0.5, seed=7)
        healer = self._healer()
        first = [adv.next_event(healer) for _ in range(10)]
        adv.reset()
        second = [adv.next_event(healer) for _ in range(10)]
        assert first == second

    def test_growth_then_massacre_phases(self):
        adv = GrowthThenMassacreAdversary(growth=5, killer=MaxDegreeAdversary())
        healer = self._healer()
        for _ in range(5):
            event = adv.next_event(healer)
            assert isinstance(event, Insert)
            healer.insert(event.nid, event.attach_to)
        event = adv.next_event(healer)
        assert isinstance(event, Delete)

    def test_oscillating_alternates(self):
        adv = OscillatingChurnAdversary(period=3, seed=1)
        healer = self._healer()
        kinds = []
        for _ in range(6):
            event = adv.next_event(healer)
            kinds.append(type(event))
            if isinstance(event, Insert):
                healer.insert(event.nid, event.attach_to)
            else:
                healer.delete(event.nid)
        assert kinds[:3] == [Insert] * 3
        assert kinds[3:] == [Delete] * 3

    def test_deletion_only_adapter(self):
        adv = DeletionOnlyChurnAdversary(MaxDegreeAdversary())
        healer = self._healer()
        event = adv.next_event(healer)
        assert isinstance(event, Delete)
        assert "deletion-only" in adv.name

    def test_trace_replay_strictness(self):
        trace = ChurnTrace([Delete(0), Delete(0)])
        adv = TraceReplayAdversary(trace)
        healer = self._healer()
        healer.delete(adv.next_event(healer).nid)
        with pytest.raises(ReproError):
            adv.next_event(healer)  # 0 is already dead

    def test_trace_replay_exhaustion(self):
        adv = TraceReplayAdversary(ChurnTrace([Delete(0)]))
        healer = self._healer()
        adv.next_event(healer)
        with pytest.raises(SimulationOverError):
            adv.next_event(healer)

    @pytest.mark.parametrize(
        "cls",
        [
            RandomChurnAdversary,
            WaveChurnAdversary,
            OscillatingChurnAdversary,
            GrowthThenMassacreAdversary,
        ],
    )
    def test_unknown_attach_preference_rejected_at_construction(self, cls):
        with pytest.raises(ValueError, match="attachment preference"):
            cls(attach="hubb")
        for attach in ("random", "hub", "leaf"):
            assert cls(attach=attach).attach == attach


class TestChurnTraces:
    def test_round_trip_through_lines(self):
        trace = ChurnTrace([Insert(5, 2), Delete(1), Insert(6, 5)], name="t")
        again = ChurnTrace.from_lines(trace.to_lines())
        assert again.events == trace.events

    def test_save_and_load(self, tmp_path):
        trace = ChurnTrace([Insert(9, 0), Delete(9)])
        path = str(tmp_path / "trace.txt")
        trace.save(path)
        assert ChurnTrace.load(path).events == trace.events

    def test_rejects_malformed_line(self):
        with pytest.raises(ReproError):
            ChurnTrace.from_lines(["ins 1"])

    def test_validate_catches_reuse_and_dead_targets(self):
        with pytest.raises(ReproError):
            ChurnTrace([Insert(0, 0)]).validate([0, 1])  # id reuse
        with pytest.raises(ReproError):
            ChurnTrace([Insert(5, 9)]).validate([0, 1])  # dead attach
        with pytest.raises(ReproError):
            ChurnTrace([Delete(7)]).validate([0, 1])  # dead victim

    def test_synthetic_skype_outage_is_valid(self):
        overlay, trace = synthetic_skype_outage(hubs=4, leaves_per_hub=5)
        trace.validate(overlay)
        assert trace.n_inserts > 0 and trace.n_deletes > 0


class TestChurnCampaign:
    def test_records_both_event_kinds(self):
        tree = generators.random_tree(25, seed=2)
        result = run_churn_campaign(
            ForgivingTreeHealer({k: set(v) for k, v in tree.items()}),
            RandomChurnAdversary(p_insert=0.5, seed=4),
            events=80,
        )
        assert len(result.rounds) == 80
        assert result.n_inserts + result.n_deletes == 80
        assert result.n_inserts > 0 and result.n_deletes > 0
        insert_rounds = [r for r in result.rounds if r.event == "insert"]
        assert all(r.deleted == -1 and r.inserted is not None for r in insert_rounds)
        assert result.stayed_connected
        assert result.peak_degree_increase <= 3
        assert result.final_alive == result.n0 + result.net_growth

    def test_churn_duel_same_stream_all_healers(self):
        overlay, trace = synthetic_skype_outage(hubs=4, leaves_per_hub=6)
        results = churn_duel(
            overlay,
            [ForgivingTreeHealer, SurrogateHealer, NoRepairHealer],
            lambda: TraceReplayAdversary(trace),
            events=len(trace),
        )
        ftr = results["forgiving-tree"]
        assert ftr.stayed_connected
        assert ftr.peak_degree_increase <= 3
        # The baselines reproduce their signature failures under churn too.
        assert results["surrogate"].peak_degree_increase > 3 * 4
        assert not results["no-repair"].stayed_connected


class TestDistributedInsert:
    def test_insert_establishes_edge(self):
        dist = DistributedForgivingTree({0: [1, 2]})
        stats = dist.insert(5, 1)
        assert (1, 5) in dist.edges()
        assert stats.total_messages >= 3
        assert stats.sub_rounds <= 4

    def test_insert_rejects_reuse_and_dead_target(self):
        dist = DistributedForgivingTree({0: [1, 2]})
        dist.delete(2)
        with pytest.raises(DuplicateNodeError):
            dist.insert(2, 0)
        with pytest.raises(NodeNotFoundError):
            dist.insert(9, 2)

    def test_inserted_node_heals_like_any_other(self):
        dist = DistributedForgivingTree({0: [1, 2]})
        seq = ForgivingTree({0: [1, 2]}, strict=True)
        for nid, target in ((5, 1), (6, 1), (7, 5)):
            seq.insert(nid, target)
            dist.insert(nid, target)
        for victim in (1, 0, 5):
            seq.delete(victim)
            dist.delete(victim)
            assert seq.edges() == dist.edges()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_churn_cross_validation(self, seed):
        """Sequential and distributed runtimes agree edge-for-edge and
        message-for-message (on insertions) under random churn."""
        rng = random.Random(seed)
        n0 = rng.randint(2, 16)
        tree = generators.random_tree(n0, seed=rng.randint(0, 10**6))
        seq = ForgivingTree(tree, strict=True)
        dist = DistributedForgivingTree(tree)
        nxt = 1000
        for _ in range(60):
            alive = sorted(seq.alive)
            if len(alive) <= 1 or rng.random() < 0.5:
                target = rng.choice(alive)
                report = seq.insert(nxt, target)
                stats = dist.insert(nxt, target)
                assert report.messages_per_node == stats.sent
                nxt += 1
            else:
                victim = rng.choice(alive)
                seq.delete(victim)
                dist.delete(victim)
            assert seq.edges() == dist.edges()


class TestDistributedInsertBatch:
    def test_wave_of_one_equals_single_insert(self):
        tree = {0: [1, 2], 1: [3]}
        seq_single = ForgivingTree(tree, strict=True)
        r_single = seq_single.insert(9, 1)
        dist = DistributedForgivingTree(tree)
        stats = dist.insert_batch([(9, 1)])
        assert r_single.messages_per_node == stats.sent

    def test_batch_rejects_bad_waves(self):
        dist = DistributedForgivingTree({0: [1, 2]})
        with pytest.raises(ValueError):
            dist.insert_batch([])
        with pytest.raises(DuplicateNodeError):
            dist.insert_batch([(5, 0), (5, 1)])
        with pytest.raises(DuplicateNodeError):
            dist.insert_batch([(1, 0)])
        with pytest.raises(NodeNotFoundError):
            dist.insert_batch([(5, 0), (6, 5)])  # same-wave attachment
        with pytest.raises(NodeNotFoundError):
            dist.insert_batch([(5, 99)])
        assert dist.alive == {0, 1, 2}

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_message_parity_random_waves(self, seed):
        """Sequential and distributed runtimes agree edge-for-edge and
        message-for-message across random wave sizes mixed with single
        inserts and deletions (extends the per-insertion cross-check)."""
        rng = random.Random(seed)
        n0 = rng.randint(2, 16)
        tree = generators.random_tree(n0, seed=rng.randint(0, 10**6))
        seq = ForgivingTree(tree, strict=True)
        dist = DistributedForgivingTree(tree)
        nxt = 1000
        for _ in range(30):
            alive = sorted(seq.alive)
            roll = rng.random()
            if len(alive) <= 1 or roll < 0.4:
                wave = []
                for _ in range(rng.randint(1, 6)):
                    wave.append((nxt, rng.choice(alive)))
                    nxt += 1
                report = seq.insert_batch(wave)
                stats = dist.insert_batch(wave)
                assert report.messages_per_node == stats.sent
                assert report.inserted_batch == tuple(wave)
            elif roll < 0.65:
                target = rng.choice(alive)
                report = seq.insert(nxt, target)
                stats = dist.insert(nxt, target)
                assert report.messages_per_node == stats.sent
                nxt += 1
            else:
                victim = rng.choice(alive)
                seq.delete(victim)
                dist.delete(victim)
            assert seq.edges() == dist.edges()

    def test_wave_members_heal_like_any_other(self):
        tree = generators.random_tree(8, seed=3)
        seq = ForgivingTree(tree, strict=True)
        dist = DistributedForgivingTree(tree)
        wave = [(100 + i, i % 4) for i in range(8)]
        seq.insert_batch(wave)
        dist.insert_batch(wave)
        rng = random.Random(3)
        for _ in range(10):
            victim = rng.choice(sorted(seq.alive))
            seq.delete(victim)
            dist.delete(victim)
            assert seq.edges() == dist.edges()


class TestWaveChurnAdversary:
    def test_emits_waves_with_fresh_ids_and_live_targets(self):
        healer = ForgivingTreeHealer(
            {k: set(v) for k, v in generators.random_tree(15, seed=2).items()}
        )
        adv = WaveChurnAdversary(wave=4, p_wave=1.0, seed=0)
        seen = set(healer.alive)
        for _ in range(10):
            event = adv.next_event(healer)
            assert isinstance(event, InsertWave)
            assert len(event.joiners) == 4
            for nid, attach_to in event.joiners:
                assert nid not in seen
                assert attach_to in healer.alive
                seen.add(nid)
            healer.insert_batch(event.joiners)

    def test_deterministic_after_reset(self):
        healer = ForgivingTreeHealer(
            {k: set(v) for k, v in generators.random_tree(10, seed=1).items()}
        )
        adv = WaveChurnAdversary(wave=3, p_wave=0.5, seed=11)
        first = [adv.next_event(healer) for _ in range(8)]
        adv.reset()
        second = [adv.next_event(healer) for _ in range(8)]
        assert first == second

    def test_baseline_healers_accept_waves(self):
        for factory in (SurrogateHealer, LineHealer, BinaryTreeHealer, NoRepairHealer):
            healer = factory({0: {1, 2}, 1: {0}, 2: {0}})
            report = healer.insert_batch([(9, 0), (10, 2)])
            assert report.is_insertion and report.inserted_batch == ((9, 0), (10, 2))
            assert {9, 10} <= healer.alive
            assert healer.rounds == 1

    def test_baseline_wave_rejection_is_atomic(self):
        """A rejected wave must leave no partial state behind — the same
        atomicity the engines give (regression: the default healer used
        to apply earlier joiners before hitting the bad one)."""
        healer = LineHealer({0: {1}, 1: {0}})
        for bad_wave, exc in (
            ([(5, 0), (6, 99)], NodeNotFoundError),  # dead attach point
            ([(5, 0), (6, 5)], NodeNotFoundError),  # same-wave attachment
            ([(5, 0), (5, 1)], DuplicateNodeError),  # dup within wave
            ([(5, 0), (1, 0)], DuplicateNodeError),  # id reuse
            ([], ValueError),
        ):
            with pytest.raises(exc):
                healer.insert_batch(bad_wave)
            assert healer.alive == {0, 1}
            assert healer.rounds == 0


class TestAcceptanceCriterion:
    def test_mixed_campaign_100_nodes_200_events_both_runtimes(self):
        """The PR's acceptance bar: a random-churn campaign (n0=100,
        >= 200 events) through both the sequential engine and the
        distributed runtime with matching message accounting, connected
        every round, degree increase never above 3."""
        n0, events = 100, 220
        tree = generators.random_tree(n0, seed=42)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        dist = DistributedForgivingTree(tree)
        adversary = RandomChurnAdversary(p_insert=0.5, seed=42)
        adversary.reset()
        inserts = deletes = 0
        for _ in range(events):
            event = adversary.next_event(healer)
            if isinstance(event, Insert):
                report = healer.insert(event.nid, event.attach_to)
                stats = dist.insert(event.nid, event.attach_to)
                # message accounting matches node-for-node
                assert report.messages_per_node == stats.sent
                inserts += 1
            else:
                healer.delete(event.nid)
                dist.delete(event.nid)
                deletes += 1
            assert healer.engine.edges() == dist.edges()
            assert is_connected(healer.graph())
            assert healer.max_degree_increase() <= 3
            assert dist.max_degree_increase() <= 3
        assert inserts + deletes == events
        assert inserts > 50 and deletes > 50

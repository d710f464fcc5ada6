"""The healer's ``alive_order`` index equals ``sorted(alive)`` — always.

Every seeded adversary draws ``rng.choice(healer.alive_order)``, which
must pick exactly what the classic ``rng.choice(sorted(healer.alive))``
picked.  These tests drive every catalog healer through inserts,
deletes, waves, a crash-style out-of-stream deletion, a ``from_engine``
re-wrap and inserts below the largest id seen, and compare the index
with a fresh sort after every step.
"""

import random
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversaries import RandomChurnAdversary
from repro.baselines import ForgivingTreeHealer, healer_catalog
from repro.baselines.base import AliveOrder
from repro.faults import CrashDuringHeal, FaultPlan
from repro.graphs import generators
from repro.harness import run_churn_campaign
from repro.simnet import TransportSpec

HEALERS = {
    **healer_catalog(),
    "forgiving-tree-object": partial(ForgivingTreeHealer, core="object"),
}


def even_tree(n, seed):
    """A random tree on even ids only, so odd ids below the maximum stay
    fresh for below-max-id inserts."""
    tree = generators.random_tree(n, seed=seed)
    return {2 * u: {2 * v for v in vs} for u, vs in tree.items()}


def assert_in_step(healer):
    order = healer.alive_order
    expected = sorted(healer.alive)
    assert len(order) == len(expected)
    assert list(order) == expected
    assert [order[k] for k in range(len(order))] == expected
    if expected:
        assert order[-1] == expected[-1]
    for s in range(3):
        if expected:
            assert random.Random(s).choice(order) == random.Random(s).choice(
                expected
            )


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "wave", "crash", "rewrap", "low"]),
        st.integers(0, 10**6),
        st.integers(1, 4),
    ),
    max_size=30,
)


@pytest.mark.parametrize("name", sorted(HEALERS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, seed=st.integers(0, 50))
def test_alive_order_tracks_every_membership_change(name, ops, seed):
    healer = HEALERS[name](even_tree(12, seed))
    next_id = 2 * 12
    used_low = set()
    assert_in_step(healer)
    for kind, pick, size in ops:
        alive = sorted(healer.alive)
        if len(alive) <= 2 and kind in ("delete", "crash"):
            kind = "insert"
        if kind == "insert":
            healer.insert(next_id, alive[pick % len(alive)])
            next_id += 1
        elif kind == "delete":
            healer.delete(alive[pick % len(alive)])
        elif kind == "wave":
            wave = [(next_id + i, alive[(pick + 7 * i) % len(alive)])
                    for i in range(size)]
            next_id += size
            healer.insert_batch(wave)
        elif kind == "crash":
            # The harness's crash path: an extra oracle deletion, outside
            # the adversary's stream, of a victim's would-be coordinator.
            center = alive[pick % len(alive)]
            neighbors = sorted(healer.graph()[center]) or [center]
            healer.delete(neighbors[0])
        elif kind == "rewrap":
            if isinstance(healer, ForgivingTreeHealer):
                healer = ForgivingTreeHealer.from_engine(
                    healer.engine, extras=healer._extra
                )
        else:  # an insert below the largest id seen: the index rebuilds
            low = 2 * (pick % 12) + 1
            if low not in used_low:
                used_low.add(low)
                healer.insert(low, alive[pick % len(alive)])
        assert_in_step(healer)


@pytest.mark.parametrize("name", ["forgiving-tree", "forgiving-graph"])
def test_crash_campaign_keeps_the_index_in_step(name):
    """A real coordinator crash: the campaign deletes the crashed node as
    an extra oracle event, and the adversary keeps drawing from the index."""
    healer = HEALERS[name](even_tree(40, 3))
    spec = TransportSpec(
        mode="async", seed=5,
        faults=FaultPlan(crashes=(CrashDuringHeal(event=4, target="coordinator"),)),
    )
    result = run_churn_campaign(
        healer, RandomChurnAdversary(p_insert=0.3, seed=5), events=20,
        transport=spec, seed=5,
    )
    assert result.faults.crashes == 1
    assert_in_step(healer)


def test_index_is_built_lazily():
    healer = ForgivingTreeHealer(even_tree(10, 1))
    healer.delete(4)
    assert healer._order is None
    assert_in_step(healer)
    assert healer._order is not None


def test_empty_order_rejects_every_index():
    order = AliveOrder([])
    assert len(order) == 0 and list(order) == []
    with pytest.raises(IndexError):
        order[0]
    with pytest.raises(IndexError):
        random.Random(0).choice(order)
    order = AliveOrder([3, 9])
    order.discard(3)
    assert list(order) == [9] and order[0] == order[-1] == 9
    with pytest.raises(IndexError):
        order[1]
    assert not order.add(5) and order.add(11)
    assert list(order) == [9, 11]

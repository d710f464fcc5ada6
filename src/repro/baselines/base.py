"""The self-healing interface shared by the Forgiving Tree and baselines.

The paper's Delete and Repair Model (Model 2.1): an adversary deletes one
node per round; the Player responds by adding (and possibly dropping) edges.
A :class:`Healer` encapsulates one Player strategy.  All healers operate on
general connected graphs and expose the same success metrics so the harness
can compare them head-to-head:

* ``max_degree_increase()`` — Model 2.1 metric 1,
* the current :meth:`graph` for diameter stretch — metric 2,
* per-round :class:`~repro.core.events.HealReport` for communication.
"""

from __future__ import annotations

import abc
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import compress
from typing import Dict, Optional, Set

from ..core.errors import DuplicateNodeError, NodeNotFoundError, SimulationOverError
from ..core.events import HealReport, normalize_wave
from ..graphs.adjacency import Graph, copy as copy_graph, degrees


class AliveOrder(Sequence):
    """The alive ids ascending: ``len`` O(1), ``[k]`` (k-th smallest) O(log n).

    A Fenwick tree of live flags over every id seen since the build, ids
    ascending in an ``array('q')`` (a bisect finds an id's position).
    """

    __slots__ = ("_ids", "_live", "_tree", "_n")

    def __init__(self, alive):
        self._ids = array("q", sorted(alive))
        self._n = n = len(self._ids)
        self._live = bytearray(b"\x01") * n
        # 1-based and all live: node i counts the lowbit(i) ids it covers.
        self._tree = array("q", (i & -i for i in range(n + 1)))

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return compress(self._ids, self._live)

    def __getitem__(self, k: int) -> int:
        k += self._n if k < 0 else 0
        if not 0 <= k < self._n:
            raise IndexError("alive_order index out of range")
        tree, pos, step = self._tree, 0, 1 << (len(self._tree) - 1).bit_length()
        while step := step >> 1:  # descend to the last prefix of <= k live
            if pos + step < len(tree) and tree[pos + step] <= k:
                pos += step
                k -= tree[pos]
        return self._ids[pos]

    def discard(self, nid: int) -> None:
        pos = bisect_left(self._ids, nid)
        self._live[pos] = 0
        self._n -= 1
        while pos < len(self._tree) - 1:
            self._tree[pos + 1] -= 1
            pos |= pos + 1

    def add(self, nid: int) -> bool:
        """Append ``nid``; ``False`` if it is not above every id seen."""
        if self._ids and nid <= self._ids[-1]:
            return False
        self._ids.append(nid)
        self._live.append(1)
        self._n += 1
        i = len(self._ids)
        count, j = 1, i - 1  # plus the live ids node i covers below i
        while j > i - (i & -i):
            count += self._tree[j]
            j &= j - 1
        self._tree.append(count)
        return True


class Healer(abc.ABC):
    """A Player strategy in the Delete and Repair game."""

    #: short machine name used in benchmark tables
    name: str = "abstract"
    #: :attr:`alive_order`'s index, built on first read (a class default,
    #: so ``from_engine`` healers, made without ``__init__``, start unbuilt)
    _order: Optional[AliveOrder] = None

    def __init__(self, graph: Graph):
        self._initial = copy_graph(graph)
        self._original_degree = degrees(graph)
        self.rounds = 0

    # -- interface ------------------------------------------------------
    @abc.abstractmethod
    def delete(self, nid: int) -> HealReport:
        """Adversary deletes ``nid``; repair and report."""

    @abc.abstractmethod
    def insert(self, nid: int, attach_to: int) -> HealReport:
        """A new node ``nid`` joins attached to live ``attach_to``
        (churn model).  The demanded edge raises both endpoints'
        baseline degrees — the Forgiving Graph's *ideal graph*
        convention — so degree increase keeps measuring only
        heal-induced edges."""

    def insert_batch(self, joiners) -> HealReport:
        """A wave of ``(nid, attach_to)`` joiners lands in one round.

        Default implementation: validate the whole wave up front (so a
        rejected wave leaves no partial state — the same atomicity the
        engines give), then apply the inserts sequentially and merge the
        reports; the wave still counts as a single round.  Engines with
        will machinery override this to amortize the rebuild cost across
        the wave.  Wave semantics are shared by every healer: attachment
        points must be alive *before* the wave — a joiner may not attach
        to another joiner of the same wave — and ids are never reused.
        """
        wave = normalize_wave(
            joiners, known_ids=self._original_degree, alive=self.alive
        )
        reports = [self.insert(nid, attach_to) for nid, attach_to in wave]
        self.rounds -= len(wave) - 1  # one wave = one round
        merged_messages: Dict[int, int] = {}
        for r in reports:
            for n, c in r.messages_per_node.items():
                merged_messages[n] = merged_messages.get(n, 0) + c
        return HealReport(
            deleted=-1,
            was_internal=False,
            edges_added=frozenset().union(*(r.edges_added for r in reports)),
            edges_removed=frozenset(),
            events=tuple(e for r in reports for e in r.events),
            messages_per_node=merged_messages,
            inserted=wave[0][0] if len(wave) == 1 else None,
            attached_to=wave[0][1] if len(wave) == 1 else None,
            inserted_batch=tuple(wave),
        )

    @abc.abstractmethod
    def graph(self) -> Graph:
        """Current healed network (adjacency)."""

    @property
    @abc.abstractmethod
    def alive(self) -> Set[int]:
        """Surviving node ids."""

    @property
    def alive_order(self) -> AliveOrder:
        """:attr:`alive` ascending: ``rng.choice(healer.alive_order)`` draws
        exactly what ``rng.choice(sorted(healer.alive))`` draws, in O(log n)."""
        if self._order is None:
            self._order = AliveOrder(self.alive)
        return self._order

    def _joined(self, nid: int, attach_to: int) -> None:
        """Book a landed join: baseline degrees (see :meth:`insert`) and
        the :attr:`alive_order` index."""
        self._original_degree[nid] = 1
        self._original_degree[attach_to] += 1
        if self._order is not None and not self._order.add(nid):
            self._order = None  # below the largest id seen: rebuild on read

    # -- shared metrics ---------------------------------------------------
    @property
    def initial_graph(self) -> Graph:
        return copy_graph(self._initial)

    @property
    def known_ids(self) -> Set[int]:
        """Every id ever seen (initial or inserted, alive or dead).

        Ids are never reused, so fresh-id allocation must range above
        this set, not just above the currently alive one."""
        return set(self._original_degree)

    def original_degree(self, nid: int) -> int:
        return self._original_degree[nid]

    def degree_increase(self, nid: int) -> int:
        g = self.graph()
        if nid not in g:
            raise NodeNotFoundError(nid, "degree_increase")
        return len(g[nid]) - self._original_degree[nid]

    def max_degree_increase(self) -> int:
        g = self.graph()
        if not g:
            return 0
        return max(len(s) - self._original_degree[n] for n, s in g.items())

    def _pre_delete(self, nid: int) -> None:
        if not self.alive:
            raise SimulationOverError("all nodes already deleted")
        if nid not in self.alive:
            raise NodeNotFoundError(nid, "delete")
        if self._order is not None:
            self._order.discard(nid)
        self.rounds += 1

    def _pre_insert(self, nid: int, attach_to: int) -> None:
        if nid in self._original_degree:  # ids are never reused
            raise DuplicateNodeError(nid)
        if attach_to not in self.alive:
            raise NodeNotFoundError(attach_to, "insert attach point")
        self.rounds += 1


def edge_delta_report(
    deleted: int, before: Graph, after: Graph, was_internal: bool = False
) -> HealReport:
    """Build a HealReport from a before/after graph pair (baseline helper)."""
    from ..graphs.adjacency import edges

    b, a = edges(before), edges(after)
    return HealReport(
        deleted=deleted,
        was_internal=was_internal,
        edges_added=frozenset(a - b),
        edges_removed=frozenset(b - a),
    )

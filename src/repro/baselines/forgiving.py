"""The Forgiving Tree as a general-graph healer.

Wraps the core engine for arbitrary connected graphs, the setting of the
paper's Section 3: "we begin with a rooted spanning tree T, which without
loss of generality may as well be the entire network".  The healer maintains
the Forgiving Tree over a BFS spanning tree and keeps the surviving
*non-tree* edges of the original graph in the overlay (they can only help
the diameter and never hurt the degree bound, since they existed in G_0).

The healer runs the flat core,
:class:`~repro.core.flat_tree.FlatForgivingTree` — struct-of-arrays
storage with O(1) hot queries, what churn campaigns at n = 10k..1M run
on.  :meth:`ForgivingTreeHealer.from_engine` wraps any engine instead,
e.g. the readable per-node object reference
:class:`~repro.core.forgiving_tree.ForgivingTree` that the flat core is
differentially tested against; the two produce bit-identical
:class:`~repro.core.events.HealReport` streams.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..core.events import HealReport
from ..core.flat_tree import FlatForgivingTree
from ..core.forgiving_tree import WILL_SPLICE
from ..graphs.adjacency import Graph, require_connected
from ..graphs.spanning import bfs_tree, non_tree_edges
from .base import Healer


class ForgivingTreeHealer(Healer):
    """Forgiving Tree self-healing over a general connected graph.

    Parameters mirror :class:`~repro.core.forgiving_tree.ForgivingTree`;
    ``root`` selects the spanning-tree root (default: smallest id).
    """

    name = "forgiving-tree"

    def __init__(
        self,
        graph: Graph,
        root: Optional[int] = None,
        branching: int = 2,
        will_mode: str = WILL_SPLICE,
        strict: bool = False,
    ):
        super().__init__(graph)
        require_connected(graph)
        tree = bfs_tree(graph, root)
        self.engine = FlatForgivingTree(
            tree,
            root=root,
            branching=branching,
            will_mode=will_mode,
            strict=strict,
        )
        self._extra: Set[Tuple[int, int]] = non_tree_edges(graph, tree)
        # When the input was already a tree, the overlay *is* the engine's
        # image for the whole campaign — O(1) metric fast paths apply.
        self._pure_tree = not self._extra

    @classmethod
    def from_engine(
        cls,
        engine,
        extras: Set[Tuple[int, int]] = frozenset(),
    ) -> "ForgivingTreeHealer":
        """Wrap an existing engine — fresh or checkpoint-restored.

        The soak service's resume path: a
        :meth:`~repro.core.flat_tree.FlatForgivingTree.restore`'d engine
        (or a bulk ``from_parents`` build) becomes a catalog healer
        without re-running the BFS spanning-tree construction.  The
        healer's baseline degrees and round counter come from the engine
        (they survive checkpoints there), each ``extras`` edge adding one
        to both endpoints' baseline, as it does for a constructed healer
        over the same graph; ``initial_graph`` reflects the overlay at
        wrap time, which for a resumed campaign is the restore point, so
        stretch denominators must be carried by the caller (the soak
        manifest does).
        """
        self = cls.__new__(cls)
        adjacency = engine.adjacency()
        self._original_degree = dict(engine.original_degree)
        for u, v in extras:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
            self._original_degree[u] += 1
            self._original_degree[v] += 1
        self._initial = adjacency
        self.rounds = engine.rounds
        self.engine = engine
        self._extra = set(extras)
        self._pure_tree = not self._extra
        return self

    def delete(self, nid: int) -> HealReport:
        self._pre_delete(nid)
        report = self.engine.delete(nid)
        dropped = {e for e in self._extra if nid in e}
        self._extra -= dropped
        if dropped:
            report.edges_removed = frozenset(set(report.edges_removed) | dropped)
        return report

    def insert(self, nid: int, attach_to: int) -> HealReport:
        nid = int(nid)
        self._pre_insert(nid, attach_to)
        report = self.engine.insert(nid, attach_to)
        self._joined(nid, attach_to)
        return report

    def insert_batch(self, joiners) -> HealReport:
        """Batch wave via the engine: one will pass per attachment point."""
        wave = [(int(n), int(a)) for n, a in joiners]
        report = self.engine.insert_batch(wave)  # validates the wave itself
        for nid, attach_to in wave:
            self._joined(nid, attach_to)
        self.rounds += 1
        return report

    def graph(self) -> Graph:
        adjacency = self.engine.adjacency()
        for u, v in self._extra:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        return adjacency

    @property
    def alive(self) -> Set[int]:
        return self.engine.alive

    # Forgiving-tree specific introspection ------------------------------
    def tree_overlay(self) -> Graph:
        """The healed spanning-tree overlay only (no original extras)."""
        return self.engine.adjacency()

    def max_degree_increase(self) -> int:
        # On pure-tree inputs the merged overlay equals the engine image
        # and the healer's baseline degrees equal the engine's, so the
        # engine's maintained maximum (O(1) on the flat core) is the
        # answer.  With original non-tree extras the merged graph differs:
        # measure on it for honesty, as the base class does.
        if self._pure_tree:
            return self.engine.max_degree_increase()
        return super().max_degree_increase()

    def fast_stats(self) -> Tuple[bool, int]:
        """O(1) ``(connected, alive_count)`` without materializing the graph.

        The engine maintains a spanning tree of the survivors at all
        times, so the healed overlay is connected whenever anyone is
        alive — extras only ever add edges.  The harness's
        ``metrics="none"`` path uses this instead of a per-round BFS.
        """
        return True, len(self.engine.alive)

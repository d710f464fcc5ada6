"""The distributed Forgiving Tree (binary protocol).

Builds the per-node states from an initial tree, distributes the initial
wills and leaf wills as real messages (the O(1)-per-tree-edge setup cost),
and then heals deletions round by round, returning the network's
communication statistics.  All healing decisions are made inside
:class:`~repro.distributed.node.ProtocolNode` handlers from local state.

The round itself — membership checks, ``delete``/``insert_batch`` and
their ``inject_*`` halves, the quiescence and integrity checks, the
overlay views — is the shared :class:`~repro.distributed.driver.ProtocolDriver`;
this module supplies the Forgiving Tree's hooks: node construction and
the will-distribution setup phase, the ``Deleted`` fan-out, the
coalesced ``InsertRequest`` join handshake, and the pointers a node
holds (parent, will stand-ins, helper role, deposited leaf wills).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import NodeNotFoundError
from ..core.forgiving_tree import _as_adjacency, _check_is_tree
from ..core.slot_tree import SlotTree
from .driver import ProtocolDriver
from .messages import REAL, Deleted, InsertRequest
from .network import Network
from .node import ProtocolNode


class DistributedForgivingTree(ProtocolDriver):
    """Message-passing Forgiving Tree over an initial tree (binary case).

    The public surface mirrors the sequential engine where it matters for
    validation: ``alive``, ``delete``, ``edges``/``adjacency``,
    ``degree`` / ``max_degree_increase`` — plus the per-round
    :class:`~repro.distributed.network.RoundStats` (Theorem 1.3 metrics).
    """

    TRACE_PREFIX = "ft"

    def __init__(
        self, tree, root: Optional[int] = None, network: Optional[Network] = None
    ):
        adjacency = _as_adjacency(tree)
        _check_is_tree(adjacency)
        self.root_id = min(adjacency) if root is None else root
        if self.root_id not in adjacency:
            raise NodeNotFoundError(self.root_id, "root")
        super().__init__(adjacency, network)

    # ------------------------------------------------------------------
    def _build(self, adjacency: Mapping[int, Sequence[int]]) -> None:
        parent: Dict[int, Optional[int]] = {self.root_id: None}
        queue = deque([self.root_id])
        seen = {self.root_id}
        while queue:
            cur = queue.popleft()
            for nxt in sorted(adjacency[cur]):
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = cur
                    queue.append(nxt)
        children: Dict[int, List[int]] = {n: [] for n in adjacency}
        for n, p in parent.items():
            if p is not None:
                children[p].append(n)

        for nid in adjacency:
            node = ProtocolNode(nid)
            self.network.register(node)
        for nid in adjacency:
            node = self.network.nodes[nid]
            p = parent[nid]
            node.parent_ref = None if p is None else (p, REAL)
            kids = sorted(children[nid])
            node.will = SlotTree(kids, branching=2)
            node.slot_kind = {k: REAL for k in kids}

    def _setup_phase(self, adjacency: Mapping[int, Sequence[int]]) -> None:
        """Wills and leaf wills travel as counted messages."""
        for nid in adjacency:
            node = self.network.nodes[nid]
            node.refresh_portions()
            node._maybe_deposit_leaf_will()

    def _fanout(self, victim: int, claims: Sequence[int]) -> None:
        for neighbor in claims:
            self.network.send(
                Deleted(sender=victim, recipient=neighbor, victim=victim)
            )

    def _joiner(self, nid: int, attach_to: int) -> ProtocolNode:
        return ProtocolNode(nid)

    def _request_joins(self, wave: Sequence[Tuple[int, int]]) -> None:
        """One request per joiner; requests for the same attachment
        point are flagged so the adoptee coalesces its will-portion
        retransmissions into one pass for the whole wave
        (``InsertRequest.final``)."""
        groups: Dict[int, List[int]] = {}
        for nid, attach_to in wave:
            groups.setdefault(attach_to, []).append(nid)
        for attach_to, group in groups.items():
            for i, nid in enumerate(group):
                self.network.send(
                    InsertRequest(
                        sender=nid,
                        recipient=attach_to,
                        child_ref=(nid, REAL),
                        final=i == len(group) - 1,
                    )
                )

    def _node_refs(self, node: ProtocolNode) -> Iterator[Tuple[str, int]]:
        """Real-position, will stand-in, helper-role and deposited
        leaf-will references."""
        if node.parent_ref is not None:
            yield "parent_ref", node.parent_ref[0]
        for s in node.will.stand_ins:
            yield "will", s
        if node.role is not None:
            if node.role.hparent is not None:
                yield "role.hparent", node.role.hparent[0]
            for c in node.role.hchildren:
                yield "role.hchild", c[0]
        for holder in node.leaf_wills:
            yield "leaf_will", holder

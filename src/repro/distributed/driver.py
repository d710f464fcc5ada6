"""The round driver shared by the distributed runtimes.

Both message-passing runtimes — the Forgiving Tree's
(:class:`~repro.distributed.protocol.DistributedForgivingTree`) and the
Forgiving Graph's (:class:`~repro.fgraph.distributed.DistributedForgivingGraph`)
— play the same round on a :class:`~repro.distributed.network.Network`
(or the async kernel, :class:`~repro.simnet.AsyncNetwork`): a deletion
removes the victim and fans a failure notification out to every node
that claims it as a neighbor; a wave of joiners registers and sends its
join requests; the network then drains to quiescence and the round's
:class:`~repro.distributed.network.RoundStats` come back.
:class:`ProtocolDriver` is that round, written once: membership checks,
the ``delete``/``insert``/``insert_batch`` wrappers and their
``inject_*`` halves for the async transport, the quiescence check, the
integrity scan of the repair pass, the overlay views and the
Theorem 1.3 metrics.  It never tests which protocol it runs.

A protocol supplies only what differs:

* :attr:`TRACE_PREFIX` — the driver's trace marks (``ft``/``fg``);
* :attr:`MAX_SUB_ROUNDS` — the livelock guard of its default network;
* :meth:`_build` / :meth:`_setup_phase` — node construction, and the
  counted setup traffic of round 0 (none by default);
* :meth:`_fanout` — the failure notifications of a deletion;
* :meth:`_check_wave` — extra validation of a wave (none by default);
* :meth:`_joiner` / :meth:`_request_joins` — a joiner's initial state
  and the wave's join requests;
* :meth:`_node_refs` — the node ids a node's local state points at,
  which the integrity scan checks for dangling pointers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.errors import NodeNotFoundError, ProtocolError, SimulationOverError
from ..core.events import HealReport, normalize_wave
from .network import Network, RoundStats


class ProtocolDriver:
    """One distributed runtime's round driver (see module docstring)."""

    TRACE_PREFIX = ""
    MAX_SUB_ROUNDS = 64

    def __init__(self, graph: Mapping, network: Optional[Network] = None):
        # ``network`` plugs in an alternative transport (e.g. the
        # discrete-event :class:`repro.simnet.AsyncNetwork`); the node
        # protocols are transport-agnostic.  Must be empty.
        if network is not None and len(network):
            raise ProtocolError("provided network already has nodes")
        self.network = (
            Network(max_sub_rounds=self.MAX_SUB_ROUNDS) if network is None else network
        )
        self.original_degree: Dict[int, int] = {
            n: len(neigh) for n, neigh in graph.items()
        }
        self._ever: Set[int] = set(graph)  # ids may never be reused
        self.rounds = 0
        self._build(graph)
        # Round 0 is the setup round, so stats indexing lines up across
        # protocols (``stats_history[1:]`` are the churn rounds).
        self.network.begin_round(0)
        self._setup_phase(graph)
        self.setup_stats = self.network.run_round(0)

    # -- protocol hooks -----------------------------------------------------
    def _build(self, graph: Mapping) -> None:
        """Register one node per vertex, with its initial local state."""
        raise NotImplementedError

    def _setup_phase(self, graph: Mapping) -> None:
        """Send the setup round's counted messages (none by default)."""

    def _fanout(self, victim: int, claims: Sequence[int]) -> None:
        """Notify the victim's (sorted) claimed neighbors of its death."""
        raise NotImplementedError

    def _check_wave(self, wave: Sequence[Tuple[int, int]]) -> None:
        """Protocol-specific validation of a normalized wave."""

    def _joiner(self, nid: int, attach_to: int):
        """A joiner's fresh node, before registration."""
        raise NotImplementedError

    def _request_joins(self, wave: Sequence[Tuple[int, int]]) -> None:
        """Send the registered wave's join requests."""
        raise NotImplementedError

    def _node_refs(self, node) -> Iterator[Tuple[str, int]]:
        """``(where, node id)`` for every pointer in ``node``'s state."""
        raise NotImplementedError

    # -- membership ---------------------------------------------------------
    @property
    def alive(self) -> Set[int]:
        return set(self.network.nodes)

    def __len__(self) -> int:
        return len(self.network)

    def __contains__(self, nid: int) -> bool:
        return nid in self.network

    def check_delete(self, nid: int) -> None:
        """Validate a deletion without mutating anything."""
        if not self.network.nodes:
            raise SimulationOverError("all nodes already deleted")
        if nid not in self.network:
            raise NodeNotFoundError(nid, "delete")

    def heal_coordinator(self, nid: int) -> Optional[int]:
        """Who anchors the heal of ``nid``, from live local state.

        The smallest-id node claiming ``nid`` as a neighbor: the
        coordinator the Forgiving Graph's fan-out names.  The Forgiving
        Tree repair has no single coordinator (it is will-driven, every
        notified neighbor acts from its own portion), so the same rule
        defines its *handoff anchor* — deterministic and computable by
        every notified node without extra messages.  Under the
        region-lease overlap policy a delegated overlapping event queues
        on this node (``docs/LEASES.md``).  ``None`` for an isolated
        victim: nobody is notified, nothing to anchor.
        """
        if nid not in self.network:
            raise NodeNotFoundError(nid, "heal_coordinator")
        claims = self.network.nodes[nid].neighbor_claims()
        return min(claims) if claims else None

    # -- rounds -------------------------------------------------------------
    def delete(self, nid: int) -> RoundStats:
        """Adversary deletes ``nid``; its neighbors detect and heal."""
        self.check_delete(nid)
        self.network.begin_round(self.rounds + 1)
        self.inject_delete(nid)
        stats = self.network.run_round(self.rounds)
        self._check_quiescent()
        return stats

    def inject_delete(self, nid: int) -> None:
        """Remove the victim and send the failure fan-out *without*
        draining the network.  Async transports use this to overlap
        several heals (delegated events resume this way mid-flight
        under the region-lease policy); :meth:`delete` is the
        inject-then-drain wrapper.  The caller must have opened an
        accounting window."""
        self.check_delete(nid)
        self.rounds += 1
        victim = self.network.remove(nid)
        claims = sorted(victim.neighbor_claims())
        self.network.trace_instant(
            f"{self.TRACE_PREFIX}:delete", victim=nid, fanout=len(claims)
        )
        self._fanout(nid, claims)

    def insert(self, nid: int, attach_to: int) -> RoundStats:
        """A new node joins under live ``attach_to`` (a wave of one).
        Node ids are never reused, matching the sequential engines."""
        return self.insert_batch([(nid, attach_to)])

    def insert_batch(self, joiners) -> RoundStats:
        """A wave of nodes joins in one round (batch INSERT handshake).

        ``joiners`` is an ordered sequence of ``(nid, attach_to)``
        pairs with the sequential engines' wave semantics: attachment
        points must be alive before the wave (a joiner cannot attach to
        a same-wave joiner) and ids are never reused.  The per-node
        message tallies cross-check against the sequential engines'
        synthesized ones exactly.
        """
        wave = self._valid_wave(joiners)
        self.network.begin_round(self.rounds + 1)
        self._inject_wave(wave)
        stats = self.network.run_round(self.rounds)
        self._check_quiescent()
        return stats

    def inject_insert_batch(self, joiners) -> None:
        """Register a wave's joiners and send their requests *without*
        draining (the async-transport half of :meth:`insert_batch`).
        The caller must have opened an accounting window."""
        self._inject_wave(self._valid_wave(joiners))

    def apply_report(self, report: HealReport) -> RoundStats:
        """Play one oracle event as a whole round (inject and drain)."""
        if report.is_insertion:
            return self.insert_batch(report.joiners)
        return self.delete(report.deleted)

    def inject_report(self, report: HealReport) -> None:
        """Inject one oracle event inside an open heal (no drain)."""
        if report.is_insertion:
            self.inject_insert_batch(report.joiners)
        else:
            self.inject_delete(report.deleted)

    def _valid_wave(self, joiners) -> List[Tuple[int, int]]:
        wave = normalize_wave(joiners, known_ids=self._ever, alive=self.network)
        self._check_wave(wave)
        return wave

    def _inject_wave(self, wave: Sequence[Tuple[int, int]]) -> None:
        """The already-validated wave's registration + request fan-out.

        Validation stays in the callers, *before* any accounting window
        opens — a rejected wave must leave no partial state, and on the
        async transport an exception after ``begin_round`` would leave
        the injection context dangling."""
        self.rounds += 1
        self.network.trace_instant(
            f"{self.TRACE_PREFIX}:insert-wave", joiners=len(wave)
        )
        for nid, attach_to in wave:
            self.network.register(self._joiner(nid, attach_to))
            self._ever.add(nid)
            self.original_degree[nid] = 1
            self.original_degree[attach_to] += 1
        self._request_joins(wave)

    def _check_quiescent(self) -> None:
        for nid, node in self.network.nodes.items():
            if node.pending:
                raise ProtocolError(
                    f"node {nid} still awaiting {sorted(node.pending)}"
                )

    def integrity_violations(self) -> List[Tuple[str, int, str]]:
        """Corruption scan for the repair pass.

        Unlike :meth:`_check_quiescent` / ``image_edges`` (which *raise*
        at the first illegality), this tolerantly enumerates everything
        wrong with the current overlay: heals frozen halfway (pending
        obligations that will never clear because the messages died
        with a crashed sender) and dangling pointers — any reference in
        a node's local state (:meth:`_node_refs`) naming a node that no
        longer exists.  Returns ``(kind, node, detail)`` tuples in the
        :data:`repro.faults.VIOLATION_KINDS` taxonomy.
        """
        out: List[Tuple[str, int, str]] = []
        alive = self.network.nodes
        for nid, node in alive.items():
            if node.pending:
                out.append(
                    ("half-applied-heal", nid, f"awaiting {sorted(node.pending)}")
                )
            for where, ref in self._node_refs(node):
                if ref != nid and ref not in alive:
                    out.append(
                        ("dangling-pointer", nid, f"{where} names dead node {ref}")
                    )
        return out

    # -- overlay views ------------------------------------------------------
    def edges(self) -> Set[Tuple[int, int]]:
        """Current overlay from both endpoints' local state (validated)."""
        return self.network.image_edges()

    def adjacency(self) -> Dict[int, Set[int]]:
        adj: Dict[int, Set[int]] = {n: set() for n in self.network.nodes}
        for u, v in self.edges():
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, nid: int) -> int:
        return len(self.adjacency()[nid])

    def max_degree_increase(self) -> int:
        adj = self.adjacency()
        if not adj:
            return 0
        return max(len(s) - self.original_degree[n] for n, s in adj.items())

    # -- Theorem 1.3 metrics ------------------------------------------------
    def last_stats(self) -> RoundStats:
        return self.network.stats_history[-1]

    def peak_messages_per_node(self) -> int:
        return max(
            (
                max(s.max_sent_per_node, s.max_received_per_node)
                for s in self.network.stats_history[1:]  # skip setup
            ),
            default=0,
        )

"""Attack/heal campaign loop and time-series collection.

A *campaign* plays the churn game of the Forgiving Graph model: each
round an adversary emits an insertion, a batch join wave or a deletion
after seeing the healed graph, the healer applies it, and we record the
paper's success metrics (Model 2.1): max degree increase, diameter (and
stretch), connectivity, communication and alive-set growth.
:func:`run_churn_campaign` is the one loop.  The paper's Delete and
Repair game is that game with deletions only: :func:`run_campaign` lifts
a deletion :class:`~repro.adversaries.Adversary` into a churn stream and
runs it through the same loop.  ``metrics=`` is the one switch for the
per-round diameter measurement (:data:`METRICS_MODES`).  Campaigns power
every benchmark table.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..adversaries.base import Adversary
from ..adversaries.churn import ChurnAdversary, DeletionOnlyChurnAdversary
from ..audit.certify import AuditInputs, AuditReport
from ..audit.schema import HealDelta, normalize_edges
from ..baselines.base import Healer
from ..churn.events import Delete, Insert, InsertWave
from ..core.errors import NotATreeError, ReproError, SimulationOverError
from ..core.events import HealReport
from ..faults.plan import FaultInput, FaultSummary, resolve_faults
from ..graphs.adjacency import Graph, is_connected, max_degree
from ..graphs.incremental import DynamicTreeMetrics
from ..graphs.metrics import diameter_double_sweep, diameter_exact
from ..obs.spec import ObsInput, ObsState, ObsSummary, resolve_obs
from ..simnet.transport import (
    TRANSPORT_MODES,
    TransportInput,
    TransportMirror,
    TransportSummary,
    resolve_transport,
)


@dataclass
class RoundRecord:
    """Metrics after one churn event (deletion + heal, or insertion).

    ``deleted`` is ``-1`` on insertion rounds; ``inserted`` is ``None``
    on deletion rounds (and on batch waves); ``event`` names the kind
    either way — ``"crash"`` marks the extra oracle deletion a planned
    transport crash forced (the victim died silently in the distributed
    runtime; the oracle catches up so the repair pass has a target).
    ``wave_size`` is non-zero only for batch insert waves.
    ``stretch`` is ``diameter / initial_diameter`` when both are
    measurable (the paper's Model 2.1 metric 2, tracked per round).
    """

    round: int
    deleted: int
    alive: int
    max_degree_increase: int
    diameter: Optional[int]  # None when disconnected or when not measured
    connected: bool
    edges_added: int
    total_messages: int
    max_messages_per_node: int
    event: str = "delete"
    inserted: Optional[int] = None
    wave_size: int = 0
    stretch: Optional[float] = None


#: ``metrics=`` modes for the campaign runners.  ``"auto"`` uses the
#: incremental engine when the initial overlay is a tree and silently
#: degrades to the double sweep the first time a round's deltas
#: disconnect the overlay (e.g. the no-repair baseline);
#: ``"incremental"`` insists (raises instead of degrading);
#: ``"double-sweep"`` and ``"exact"`` force the per-round BFS paths;
#: ``"none"`` skips diameter entirely.
METRICS_MODES = ("auto", "incremental", "double-sweep", "exact", "none")


class _DiameterMeter:
    """Per-round connectivity + diameter measurement for campaigns.

    Wraps the mode resolution: incremental maintenance via
    :class:`DynamicTreeMetrics` (O(depth)/round) with BFS fallback.
    While the tracker is live, connectivity is implied by the maintained
    spanning-tree invariant — no per-round BFS at all.

    Measurement semantics: on tree overlays every mode agrees exactly.
    On overlays with heal chords (a Forgiving Tree deployment keeps
    short cycles), the incremental value is the tree-overlay diameter —
    an upper bracket on the exact diameter, the mirror of the double
    sweep's lower bracket; both brackets live inside the Theorem 1.2
    envelope.  ``seed`` threads the campaign's RNG seed into the double
    sweep's start-node choice so repeated runs are reproducible end to
    end.
    """

    def __init__(
        self,
        mode: str,
        initial: Graph,
        seed: int = 0,
        tracker: Optional[DynamicTreeMetrics] = None,
    ):
        if mode not in METRICS_MODES:
            raise ValueError(f"unknown metrics mode {mode!r} (one of {METRICS_MODES})")
        self.mode = mode
        self.seed = seed
        self.tracker: Optional[DynamicTreeMetrics] = None
        if tracker is not None:
            # Injected pre-built tracker (checkpoint resume): the overlay
            # may legitimately carry heal chords mid-campaign, so the
            # fresh-start "must be a tree" gate does not apply.
            if mode not in ("auto", "incremental"):
                raise ValueError(
                    f"metrics_tracker= requires an incremental mode, not {mode!r}"
                )
            self.tracker = tracker
            return
        if mode in ("auto", "incremental"):
            try:
                self.tracker = DynamicTreeMetrics(initial)
                if self.tracker.n_chords:
                    raise NotATreeError("initial overlay is not a tree")
            except ReproError:
                self.tracker = None
                if mode == "incremental":
                    raise
                self.mode = "double-sweep"

    def measure(self, report, graph_fn: Callable[[], Graph], fast_stats=None):
        """Return ``(connected, diameter, alive_count)`` for this round.

        ``graph_fn`` is only called when the incremental tracker is not
        (or no longer) usable — the measurement itself never materializes
        the graph on the fast path.  (The campaign loop's *degree* metric
        still does; see the runner docstrings.)

        ``fast_stats`` is the healer's O(1) ``(connected, alive_count)``
        capability (when it has one): with ``metrics="none"`` those two
        are the *only* values this round needs, so the graph is never
        materialized at all — the difference between O(1) and O(n) per
        event on the n = 10k..1M churn ladder.  Healers that maintain a
        spanning overlay report exactly what the BFS would.
        """
        if self.tracker is not None:
            try:
                self.tracker.apply_report(report)
                n = len(self.tracker)
                # n <= 1 yields None, matching the BFS paths below so the
                # recorded series is mode-independent.
                return True, (self.tracker.diameter if n > 1 else None), n
            except ReproError:
                # The overlay stopped being a tree (disconnection or a
                # cycle-keeping baseline): degrade to BFS permanently.
                self.tracker = None
                if self.mode == "incremental":
                    raise
                self.mode = "double-sweep"
        if self.mode == "none" and fast_stats is not None:
            connected, alive = fast_stats()
            return connected, None, alive
        graph = graph_fn()
        connected = is_connected(graph)
        diameter: Optional[int] = None
        if self.mode != "none" and connected and len(graph) > 1:
            # The double sweep is exact on trees (all Forgiving Tree
            # overlays); on baselines' general graphs it is a lower bound.
            diameter = (
                diameter_exact(graph)
                if self.mode == "exact"
                else diameter_double_sweep(graph, seed=self.seed)
            )
        return connected, diameter, len(graph)


@dataclass
class CampaignResult:
    """Everything a benchmark needs from one campaign.

    Every record is folded into O(1) aggregates as it lands
    (:meth:`fold`), and the peak/count properties read only those, so a
    campaign run with ``keep_rounds=False`` — which does not store the
    records — reports exactly what a kept-rounds run does; only
    :attr:`rounds` itself (and :meth:`series`) are then empty.
    """

    healer_name: str
    adversary_name: str
    n0: int
    initial_diameter: int
    initial_max_degree: int
    rounds: List[RoundRecord] = field(default_factory=list)
    #: What the transport mirror observed (``transport=`` campaigns only).
    transport: Optional[TransportSummary] = None
    #: What the observability stack saw (``obs=`` campaigns only):
    #: metrics snapshot, profile summary, trace export paths/handle.
    obs: Optional[ObsSummary] = None
    #: The guarantee auditor's verdict (``obs="audit"``/``"full"``
    #: campaigns only): per-heal certificates re-proved from the
    #: exported event log — see :mod:`repro.audit`.
    audit: Optional[AuditReport] = None
    #: The telemetry bundle the certificates ran over (kept for
    #: re-certification, e.g. the mutation self-test).
    audit_inputs: Optional[AuditInputs] = field(default=None, repr=False)
    # Streaming aggregates, folded per round.  The peak degree increase
    # starts unset: a no-repair baseline can shrink every degree, and
    # its peak is then negative.
    _peak_ddeg: Optional[int] = field(default=None, repr=False)
    _peak_diameter: int = field(default=0, repr=False)
    _peak_msgs: int = field(default=0, repr=False)
    _all_connected: bool = field(default=True, repr=False)
    _n_inserts: int = field(default=0, repr=False)
    _n_deletes: int = field(default=0, repr=False)
    _last_alive: Optional[int] = field(default=None, repr=False)

    def fold(self, record: RoundRecord) -> None:
        """Fold one round into the streaming aggregates (O(1) memory)."""
        if self._peak_ddeg is None or record.max_degree_increase > self._peak_ddeg:
            self._peak_ddeg = record.max_degree_increase
        if record.diameter is not None and record.diameter > self._peak_diameter:
            self._peak_diameter = record.diameter
        if record.max_messages_per_node > self._peak_msgs:
            self._peak_msgs = record.max_messages_per_node
        self._all_connected = self._all_connected and record.connected
        if record.event == "insert":
            self._n_inserts += 1
        elif record.event == "delete":
            self._n_deletes += 1
        self._last_alive = record.alive

    @property
    def peak_degree_increase(self) -> int:
        return self._peak_ddeg if self._peak_ddeg is not None else 0

    @property
    def peak_diameter(self) -> int:
        return self._peak_diameter

    @property
    def peak_stretch(self) -> float:
        if self.initial_diameter == 0:
            return 1.0
        return self.peak_diameter / self.initial_diameter

    @property
    def stayed_connected(self) -> bool:
        return self._all_connected

    @property
    def peak_messages_per_node(self) -> int:
        return self._peak_msgs

    # -- churn-campaign views ---------------------------------------------
    @property
    def n_inserts(self) -> int:
        return self._n_inserts

    @property
    def n_deletes(self) -> int:
        return self._n_deletes

    @property
    def final_alive(self) -> int:
        return self._last_alive if self._last_alive is not None else self.n0

    @property
    def net_growth(self) -> int:
        """Alive-set change over the whole campaign (can be negative)."""
        return self.final_alive - self.n0

    @property
    def faults(self) -> Optional[FaultSummary]:
        """Hostile-network tallies (``faults=`` campaigns only)."""
        return self.transport.faults if self.transport is not None else None

    def series(self, attr: str) -> List:
        """Extract one column as a list (for figure-style output).

        Empty under ``keep_rounds=False`` — streaming campaigns trade the
        per-round series for O(1) memory."""
        return [getattr(r, attr) for r in self.rounds]


def _initial_diameter(meter: _DiameterMeter, initial: Graph) -> int:
    """The campaign's baseline diameter, measured with its own instrument.

    ``diameter_exact`` here would be O(n·m) — at the n = 10k+ scale the
    incremental path exists for, that one startup call would cost more
    than every per-round measurement combined.  The stretch denominator
    therefore uses the same measurement the rounds use (and 0 when the
    campaign measures no diameters at all — stretch is then vacuous).
    """
    if len(initial) <= 1 or meter.mode == "none":
        return 0
    if meter.mode == "exact":
        return diameter_exact(initial)
    if meter.tracker is not None:
        return meter.tracker.diameter
    return diameter_double_sweep(initial, seed=meter.seed)


def _record_round(
    t: int,
    report: HealReport,
    healer: Healer,
    meter: _DiameterMeter,
    d0: int,
) -> RoundRecord:
    """One round's measurement and bookkeeping."""
    connected, diameter, alive = meter.measure(
        report, healer.graph, fast_stats=getattr(healer, "fast_stats", None)
    )
    return RoundRecord(
        round=t + 1,
        deleted=report.deleted,
        alive=alive,
        max_degree_increase=healer.max_degree_increase(),
        diameter=diameter,
        connected=connected,
        edges_added=len(report.edges_added),
        total_messages=report.total_messages,
        max_messages_per_node=report.max_messages_per_node,
        event="insert" if report.is_insertion else "delete",
        inserted=report.inserted,
        # A wave of one is indistinguishable from a single insert (the
        # engines route singles through the batch path), so only true
        # multi-joiner waves mark the record.
        wave_size=(
            len(report.inserted_batch) if len(report.inserted_batch) > 1 else 0
        ),
        stretch=(diameter / d0) if diameter is not None and d0 > 0 else None,
    )


def _make_mirror(
    healer: Healer,
    transport: TransportInput,
    seed: int,
    obs_state: Optional[ObsState] = None,
    faults: FaultInput = None,
) -> Optional[TransportMirror]:
    """Resolve the ``transport=`` knob into a live mirror (or None).

    ``faults`` folds a hostile-network plan into the transport spec; it
    needs a live async mirror to mean anything, so a plan without one
    raises rather than silently running a reliable campaign.
    """
    spec = resolve_transport(transport, seed=seed)
    plan = resolve_faults(faults)
    if plan is not None:
        if spec is None or spec.mode != "async":
            raise ValueError(
                "faults= needs an async transport "
                "(transport='async' or 'lease')"
            )
        spec = replace(spec, faults=plan)
    if spec is None:
        return None
    if (
        obs_state is not None
        and obs_state.spec.audit
        and spec.mode == "async"
        and not spec.record_log
    ):
        # The certificates are checked from the event log: auditing
        # forces the kernel to keep it.
        spec = replace(spec, record_log=True)
    return TransportMirror(healer, spec, obs=obs_state)


def _make_obs(obs: ObsInput, transport: TransportInput) -> Optional[ObsState]:
    """Resolve the ``obs=`` knob into live instruments (or None).

    Tracing rides the async kernel's virtual clock and auditing reads
    its event log, so ``obs="trace"``/``"audit"`` (or a spec with
    ``trace=True``/``audit=True``) require an async transport mirror —
    without one there is nothing to trace or audit and the knob raises
    rather than silently producing an empty file.
    """
    spec = resolve_obs(obs)
    if spec is None:
        return None
    if spec.trace or spec.audit:
        tspec = resolve_transport(transport)
        if tspec is None or tspec.mode != "async":
            raise ValueError(
                f"obs {'tracing' if spec.trace else 'auditing'} needs an "
                "async transport (transport='async' or 'lease')"
            )
    return ObsState(spec)


def _oracle_step(obs_state: Optional[ObsState], phase: str, fn, *args):
    """Run one oracle operation, timed when profiling is on."""
    if obs_state is None or obs_state.profiler is None:
        return fn(*args)
    t0 = time.perf_counter_ns()
    out = fn(*args)
    obs_state.profiler.add(phase, time.perf_counter_ns() - t0)
    return out


def _stream_round(registry, record: RoundRecord) -> None:
    """Fold one round's record into the streaming metrics (O(1) memory)."""
    registry.counter("campaign.rounds").inc()
    plural = "crashes" if record.event == "crash" else f"{record.event}s"
    registry.counter(f"campaign.{plural}").inc()
    registry.gauge("campaign.alive").set(record.alive)
    registry.histogram("campaign.messages").observe(record.total_messages)
    if record.diameter is not None:
        registry.gauge("campaign.diameter").set(record.diameter)


def _run_audit(
    result: CampaignResult,
    obs_state: Optional[ObsState],
    deltas: List[HealDelta],
    initial_edges: frozenset,
) -> None:
    """Re-prove the per-heal guarantees from the exported telemetry.

    Runs after the mirror has quiesced and summarized.  The auditor sees
    only what a real deployment could export — the kernel event log,
    per-heal tallies, the fault summary, and the oracle's
    :class:`HealDelta` edge summaries — never the oracle overlay itself.
    Violations arm the flight recorder (dumped under an ``audit`` label)
    before the caller's strictness check decides whether to raise.
    """
    summary = result.transport
    if summary is None or summary.event_log is None:
        return
    inputs = AuditInputs(
        records=tuple(summary.event_log),
        heal_stats=tuple(summary.heal_stats or ()),
        deltas=tuple(deltas),
        initial_edges=initial_edges,
        protocol="fg" if "graph" in result.healer_name else "ft",
        fault_summary=summary.faults,
    )
    report = inputs.certify()
    result.audit = report
    result.audit_inputs = inputs
    recorder = obs_state.recorder if obs_state is not None else None
    if recorder is not None and not report.ok:
        for violation in report.violations[:32]:
            recorder.record(
                "audit-violation",
                cert=violation.cert,
                heal=violation.heal,
                window=list(violation.window),
                detail=violation.detail,
            )
        path = None
        rng = recorder.id_range
        if obs_state.spec.recorder_dir is not None and rng is not None:
            path = os.path.join(
                obs_state.spec.recorder_dir, f"audit-{rng[0]}-{rng[1]}.jsonl"
            )
        recorder.dump(path, label="audit")


def run_churn_campaign(
    healer: Healer,
    adversary: ChurnAdversary,
    events: int,
    on_round: Optional[Callable[[RoundRecord, Healer], None]] = None,
    metrics: str = "auto",
    seed: int = 0,
    transport: TransportInput = None,
    obs: ObsInput = None,
    keep_rounds: bool = True,
    metrics_tracker: Optional[DynamicTreeMetrics] = None,
    faults: FaultInput = None,
) -> CampaignResult:
    """Play the churn game: a mixed insert/delete stream against one healer.

    Each round the adversary emits an :class:`~repro.churn.Insert`, an
    :class:`~repro.churn.InsertWave` (batch join, applied through
    :meth:`~repro.baselines.base.Healer.insert_batch`), or a
    :class:`~repro.churn.Delete` after seeing the healed graph; the healer
    applies it; the record tracks the usual success metrics plus alive-set
    growth and per-round stretch.  Stops early when the adversary runs out
    of events (:class:`SimulationOverError`) or the network empties.

    Parameters
    ----------
    events:
        Event budget: at most this many adversary events are played.
    on_round:
        Optional observer called after each round.
    metrics:
        One of :data:`METRICS_MODES`, the one switch for the per-round
        diameter measurement.  Churn campaigns default to ``"auto"``:
        the diameter is maintained incrementally in O(depth) per round —
        exact on tree overlays, the tree-overlay upper bracket when heals
        keep chords — which is cheap enough that per-round
        diameter/stretch stays on by default at n = 10k+.  Campaigns over
        non-tree inputs (or that disconnect) fall back to the BFS double
        sweep.  ``"none"`` measures no diameter at all.
    seed:
        Campaign seed threaded into the double sweep's start-node choice,
        making repeated runs reproducible end to end.
    transport:
        One of :data:`~repro.simnet.TRANSPORT_MODES` or a
        :class:`~repro.simnet.TransportSpec`.  ``"sync"``/``"async"``
        additionally mirror every event onto the matching *distributed*
        runtime — over the synchronous network, or the discrete-event
        async one with concurrent in-flight heals — cross-validating the
        healed images at every quiesce barrier; the observations land in
        :attr:`CampaignResult.transport`.  ``"lease"`` (shorthand for
        ``TransportSpec(mode="async", overlap="lease")``) additionally
        admits events whose heal footprints *intersect* in-flight
        repairs through the region-lease handoff protocol
        (:mod:`repro.regions`) instead of serializing them behind a
        global barrier; lease waits and escalations are reported in the
        summary.  Default: off.
    obs:
        One of :data:`~repro.obs.OBS_MODES` or an
        :class:`~repro.obs.ObsSpec` — attaches the observability stack
        (streaming metrics, causal tracing over the async kernel,
        per-phase profiling, a flight recorder, the guarantee auditor)
        and lands its summary in :attr:`CampaignResult.obs`.
        ``"trace"``/``"audit"``/``"full"`` require an async
        ``transport``.  Default: off (every hook is a no-op).
    keep_rounds:
        When ``False``, per-round records are only folded into the
        result's streaming aggregates, not stored — O(1) memory for
        million-event campaigns (the n = 10k..1M sustained-churn ladder
        runs this way); ``rounds``/``series()`` are then empty but every
        peak/count property reports the same values.
    metrics_tracker:
        A pre-built :class:`~repro.graphs.incremental.DynamicTreeMetrics`
        used instead of constructing one from the healer's graph — the
        checkpoint-resume path, where the restored overlay may already
        carry heal chords that the fresh-start tree gate would reject.
        The caller owns making the tracker match the healer's overlay
        (the soak service rebuilds it from the snapshot's
        ``parent_state``).
    faults:
        A :class:`~repro.faults.FaultPlan` (or kwargs mapping) turning
        the mirrored network hostile: seeded message loss absorbed by
        the timeout/retransmit layer, duplication cancelled by
        seen-windows, and planned crash-during-heal kills recovered by
        the self-stabilizing repair pass.  Needs an async ``transport``;
        the tallies land on :attr:`CampaignResult.faults`.  The oracle
        and adversary never see the faults (their streams are identical
        across fault plans) — except a planned crash, which the oracle
        absorbs as one extra ``event="crash"`` deletion round.
    """
    initial = healer.graph()
    n0 = len(initial)
    meter = _DiameterMeter(metrics, initial, seed, tracker=metrics_tracker)
    d0 = _initial_diameter(meter, initial)
    result = CampaignResult(
        healer_name=healer.name,
        adversary_name=adversary.name,
        n0=n0,
        initial_diameter=d0,
        initial_max_degree=max_degree(initial),
    )
    obs_state = _make_obs(obs, transport)
    mirror = _make_mirror(healer, transport, seed, obs_state, faults)
    auditing = mirror is not None and obs_state is not None and obs_state.spec.audit
    audit_deltas: Optional[List[HealDelta]] = [] if auditing else None
    audit_initial = normalize_edges(initial) if auditing else frozenset()
    adversary.reset()
    for t in range(events):
        if not healer.alive:
            break
        try:
            event = adversary.next_event(healer)
            if isinstance(event, Insert):
                report = _oracle_step(
                    obs_state,
                    "oracle:insert",
                    healer.insert,
                    event.nid,
                    event.attach_to,
                )
            elif isinstance(event, InsertWave):
                report = _oracle_step(
                    obs_state,
                    "oracle:insert",
                    healer.insert_batch,
                    event.joiners,
                )
            else:
                assert isinstance(event, Delete)
                report = _oracle_step(
                    obs_state, "oracle:delete", healer.delete, event.nid
                )
        except SimulationOverError:
            break
        for crashed in (False, True):
            if crashed:
                if mirror is None or mirror.pending_crash is None:
                    break
                # A planned crash fired in the mirror: the victim is dead
                # in the distributed runtime but still alive in the
                # oracle.  Apply the death to the oracle as an extra,
                # adversary-invisible deletion, hand its report to the
                # mirror's repair pass (reset-replay + node-for-node
                # re-validation), and record it as an ``event="crash"``
                # round so the incremental metrics tracker stays in step
                # with the oracle overlay.
                report = _oracle_step(
                    obs_state, "oracle:delete", healer.delete, mirror.pending_crash
                )
                mirror.recover_from_crash(report)
            elif mirror is not None:
                mirror.apply(report)
            if audit_deltas is not None:
                audit_deltas.append(HealDelta.from_report(report))
            record = _record_round(t, report, healer, meter, d0)
            if crashed:
                record.event = "crash"
            result.fold(record)
            if keep_rounds:
                result.rounds.append(record)
            if obs_state is not None and obs_state.metrics is not None:
                _stream_round(obs_state.metrics, record)
            if on_round is not None:
                on_round(record, healer)
    if mirror is not None:
        result.transport = mirror.finish()
        if audit_deltas is not None:
            _run_audit(result, obs_state, audit_deltas, audit_initial)
    if obs_state is not None:
        result.obs = obs_state.finish()
    if (
        result.audit is not None
        and not result.audit.ok
        and obs_state is not None
        and obs_state.spec.audit_strict
    ):
        result.audit.raise_on_violation()
    return result


def churn_duel(
    graph: Graph,
    healers: Sequence[Callable[[Graph], Healer]],
    adversary_factory: Callable[[], ChurnAdversary],
    events: int,
    metrics: str = "auto",
    seed: int = 0,
    transport: TransportInput = None,
) -> Dict[str, CampaignResult]:
    """Run the same churn stream against several healers on the same graph."""
    out: Dict[str, CampaignResult] = {}
    for factory in healers:
        healer = factory({k: set(v) for k, v in graph.items()})
        result = run_churn_campaign(
            healer,
            adversary_factory(),
            events=events,
            metrics=metrics,
            seed=seed,
            transport=transport,
        )
        out[result.healer_name] = result
    return out


class _DeletionGame(DeletionOnlyChurnAdversary):
    """The Delete and Repair game as a churn stream.

    The stream ends (:class:`SimulationOverError`) once no more than
    ``floor`` nodes survive, before the inner adversary is asked, so a
    seeded adversary's RNG is not drawn for a round that never happens.
    The campaign keeps the inner adversary's name.
    """

    def __init__(self, inner: Adversary, floor: int):
        super().__init__(inner)
        self.name = inner.name
        self.floor = floor

    def next_event(self, healer: Healer) -> Delete:
        if len(healer.alive) <= self.floor:
            raise SimulationOverError("deletion game floor reached")
        return super().next_event(healer)


def run_campaign(
    healer: Healer,
    adversary: Adversary,
    rounds: Optional[int] = None,
    stop_fraction: float = 0.0,
    on_round: Optional[Callable[[RoundRecord, Healer], None]] = None,
    metrics: str = "double-sweep",
    seed: int = 0,
    transport: TransportInput = None,
    obs: ObsInput = None,
    keep_rounds: bool = True,
    faults: FaultInput = None,
) -> CampaignResult:
    """Play the Delete and Repair game.

    The deletion adversary is lifted into a deletions-only churn stream
    and played through :func:`run_churn_campaign`, whose parameters
    (``on_round``, ``seed``, ``transport``, ``obs``, ``keep_rounds``,
    ``faults``) mean the same here.

    Parameters
    ----------
    rounds:
        Number of deletions (default: until one node remains).
    stop_fraction:
        Stop once fewer than this fraction of nodes survive.
    metrics:
        One of :data:`METRICS_MODES`, the one switch for the per-round
        diameter measurement.  The deletion game keeps its historical
        default, the double sweep (a lower bracket on cyclic healed
        overlays, exact on trees); ``"exact"`` forces all-pairs BFS,
        ``"none"`` measures no diameter, and ``"auto"`` or
        ``"incremental"`` opt into O(depth)-per-round maintenance.
    """
    n0 = len(healer.alive)
    return run_churn_campaign(
        healer,
        _DeletionGame(adversary, floor=max(1, int(stop_fraction * n0))),
        events=rounds if rounds is not None else n0 - 1,
        on_round=on_round,
        metrics=metrics,
        seed=seed,
        transport=transport,
        obs=obs,
        keep_rounds=keep_rounds,
        faults=faults,
    )


def duel(
    graph: Graph,
    healers: Sequence[Callable[[Graph], Healer]],
    adversary_factory: Callable[[], Adversary],
    rounds: Optional[int] = None,
    metrics: str = "double-sweep",
    seed: int = 0,
    transport: TransportInput = None,
) -> Dict[str, CampaignResult]:
    """Run the same attack against several healers on the same graph."""
    out: Dict[str, CampaignResult] = {}
    for factory in healers:
        healer = factory({k: set(v) for k, v in graph.items()})
        result = run_campaign(
            healer,
            adversary_factory(),
            rounds=rounds,
            metrics=metrics,
            seed=seed,
            transport=transport,
        )
        out[result.healer_name] = result
    return out

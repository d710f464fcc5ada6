"""Workload generation for long-horizon soaks: diurnal churn with acts.

The recorded-trace tooling (:mod:`repro.churn.traces`) replays *finite*
event lists; a 500k-event soak wants an **unbounded, deterministic
stream** shaped like a real P2P network's day — the setting the paper
opens with.  A :class:`TraceGenerator` produces that stream from a
:class:`GeneratorConfig` alone:

* **Diurnal arrivals** — joins are a non-homogeneous Poisson process
  whose rate swings sinusoidally over a virtual day
  (``base_rate * (1 + amplitude * sin)``), the classic login curve.
* **Heavy-tail sessions** — every node draws a bounded-Pareto lifetime
  at join; deaths pop off a time-ordered heap, so most sessions are
  short while a fat tail stays for the whole campaign (the observed
  P2P session-length shape).
* **Acts** — scheduled scenario beats generalizing the 2007 Skype
  outage trace (:func:`~repro.churn.traces.synthetic_skype_outage`):
  an :class:`Outage` kills a fraction of the network in a burst and
  floods rejoins behind it; a :class:`FlashCrowd` lands a join storm
  as :class:`~repro.churn.InsertWave` batches.

Determinism is the contract that makes checkpoints work: the stream is
a pure function of the config (the generator never looks at the healed
graph — it tracks its own alive set), so a resumed campaign rebuilds
the generator and :meth:`~TraceGenerator.skip`\\ s to the checkpoint's
event index to see *exactly* the events the killed run would have seen.
:class:`GeneratorChurnAdversary` adapts the stream to the harness's
:class:`~repro.adversaries.churn.ChurnAdversary` interface.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.errors import ReproError
from ..graphs.adjacency import Graph
from .events import ChurnEvent, Delete, Insert, InsertWave


@dataclass(frozen=True)
class FlashCrowd:
    """A join storm: ``joiners`` nodes land in waves of ``wave``.

    Triggered when the stream reaches event index ``at_event``; each
    wave is one :class:`~repro.churn.InsertWave` event (one amortized
    heal per attachment point), attachment points drawn uniformly from
    the survivors at emission time.
    """

    at_event: int
    joiners: int
    wave: int = 16

    def __post_init__(self) -> None:
        if self.joiners < 1 or self.wave < 1:
            raise ReproError("flash crowd needs joiners >= 1 and wave >= 1")


@dataclass(frozen=True)
class Outage:
    """A correlated failure: a burst of deletes, then a rejoin flood.

    ``fraction`` of the alive set (at trigger time) is killed in
    consecutive delete events; ``rejoin_fraction`` of the victims'
    count then rejoins as fresh nodes — the login storm that made the
    real 2007 outage self-sustaining.
    """

    at_event: int
    fraction: float = 0.3
    rejoin_fraction: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ReproError("outage fraction must be in (0, 1)")
        if not 0.0 <= self.rejoin_fraction <= 2.0:
            raise ReproError("rejoin fraction must be in [0, 2]")


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything a :class:`TraceGenerator` stream is a function of.

    Virtual time is measured in hours; ``base_rate`` is mean joins per
    hour at the diurnal midline — default None derives the *stationary*
    rate ``n0 / mean_lifetime``, so the population hovers around
    ``n0`` instead of collapsing toward an unrelated equilibrium
    (a soak's peak-RSS-stays-flat claim needs a stationary workload).
    Session lengths are bounded Pareto (``lifetime_shape`` alpha,
    support ``[lifetime_min, lifetime_max]`` hours).  ``min_alive`` is
    the survival floor: the generator forces joins rather than let the
    network shrink below it.
    """

    n0: int = 1000
    seed: int = 0
    base_rate: Optional[float] = None
    diurnal_amplitude: float = 0.6
    period_hours: float = 24.0
    lifetime_shape: float = 1.2
    lifetime_min: float = 0.05
    lifetime_max: float = 72.0
    min_alive: int = 8
    acts: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if self.n0 < 2:
            raise ReproError("generator needs n0 >= 2")
        if self.base_rate is not None and self.base_rate <= 0:
            raise ReproError("base_rate must be positive (or None)")
        if self.period_hours <= 0:
            raise ReproError("period_hours must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ReproError("diurnal amplitude must be in [0, 1)")
        if not 0 < self.lifetime_min < self.lifetime_max:
            raise ReproError("need 0 < lifetime_min < lifetime_max")
        if self.lifetime_shape <= 0:
            raise ReproError("lifetime shape must be positive")
        if self.min_alive < 2:
            raise ReproError("min_alive must be >= 2")
        for act in self.acts:
            if not isinstance(act, (FlashCrowd, Outage)):
                raise ReproError(f"unknown act {act!r}")

    def mean_lifetime(self) -> float:
        """E[session length] of the bounded-Pareto draw, in hours."""
        a, lo, hi = self.lifetime_shape, self.lifetime_min, self.lifetime_max
        if a == 1.0:
            return lo * hi / (hi - lo) * math.log(hi / lo)
        return (
            (lo ** a) / (1.0 - (lo / hi) ** a)
            * (a / (a - 1.0))
            * (lo ** (1.0 - a) - hi ** (1.0 - a))
        )

    def stationary_rate(self) -> float:
        """Joins/hour balancing deaths at population ``n0`` (Little's
        law: alive* = rate * mean session length)."""
        return self.n0 / self.mean_lifetime()


class TraceGenerator:
    """The deterministic event stream (module docstring).

    :meth:`build_initial` returns the starting random recursive tree;
    :meth:`next` yields churn events forever (the stream never runs
    dry: the survival floor forces joins).  The stream is a pure
    function of the config — :meth:`skip` fast-forwards a fresh
    generator to any event index, the resume primitive.
    """

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self.reset()

    def reset(self) -> None:
        cfg = self.config
        self._rng = random.Random(cfg.seed)
        self.t = 0.0
        self.emitted = 0
        self._next_id = cfg.n0
        # Alive set as swap-pop list + index map: O(1) insert, remove,
        # and uniform sample.  At n = 100k+, sorting the alive set per
        # join would dominate the whole soak.
        self._members: List[int] = list(range(cfg.n0))
        self._member_idx: Dict[int, int] = {
            nid: i for i, nid in enumerate(self._members)
        }
        self._deaths: List[Tuple[float, int]] = []
        self._pending: deque = deque()  # queued act steps, FIFO
        self._acts = sorted(
            self.config.acts, key=lambda a: (a.at_event, repr(a))
        )
        self._initial = self._build_tree()
        for nid in range(cfg.n0):
            self._schedule_death(nid)

    # -- alive-set bookkeeping --------------------------------------------
    @property
    def alive_count(self) -> int:
        return len(self._members)

    def _is_alive(self, nid: int) -> bool:
        return nid in self._member_idx

    def _add_alive(self, nid: int) -> None:
        self._member_idx[nid] = len(self._members)
        self._members.append(nid)

    def _remove_alive(self, nid: int) -> None:
        i = self._member_idx.pop(nid)
        last = self._members.pop()
        if last != nid:
            self._members[i] = last
            self._member_idx[last] = i

    # -- construction ------------------------------------------------------
    def _build_tree(self) -> Graph:
        """Random recursive tree over ``0..n0-1`` (node i attaches to a
        uniform earlier node) — the join process's own stationary shape."""
        graph: Dict[int, Set[int]] = {0: set()}
        for nid in range(1, self.config.n0):
            parent = self._rng.randrange(nid)
            graph[nid] = {parent}
            graph[parent].add(nid)
        return graph

    def build_initial(self) -> Graph:
        """The starting overlay (copy — callers mutate their graphs)."""
        return {k: set(v) for k, v in self._initial.items()}

    # -- the stochastic machinery -----------------------------------------
    def _rate(self) -> float:
        cfg = self.config
        base = (
            cfg.base_rate
            if cfg.base_rate is not None
            else cfg.stationary_rate()
        )
        swing = math.sin(2.0 * math.pi * self.t / cfg.period_hours)
        return base * (1.0 + cfg.diurnal_amplitude * swing)

    def _lifetime(self) -> float:
        """Bounded-Pareto session length (inverse-CDF draw)."""
        cfg = self.config
        a = cfg.lifetime_shape
        u = self._rng.random()
        ratio = (cfg.lifetime_min / cfg.lifetime_max) ** a
        return cfg.lifetime_min * (1.0 - u * (1.0 - ratio)) ** (-1.0 / a)

    def _schedule_death(self, nid: int) -> None:
        heapq.heappush(self._deaths, (self.t + self._lifetime(), nid))

    def _fresh_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def _attach_point(self) -> int:
        return self._members[self._rng.randrange(len(self._members))]

    def _join(self) -> Insert:
        attach = self._attach_point()
        nid = self._fresh_id()
        self._add_alive(nid)
        self._schedule_death(nid)
        return Insert(nid, attach)

    def _trigger_acts(self) -> None:
        while self._acts and self._acts[0].at_event <= self.emitted:
            act = self._acts.pop(0)
            if isinstance(act, Outage):
                alive = sorted(self._members)
                k = min(
                    int(len(alive) * act.fraction),
                    len(alive) - self.config.min_alive,
                )
                victims = self._rng.sample(alive, max(k, 0))
                self._pending.extend(("del", v) for v in victims)
                rejoins = int(len(victims) * act.rejoin_fraction)
                self._pending.extend(("ins",) for _ in range(rejoins))
            else:
                assert isinstance(act, FlashCrowd)
                left = act.joiners
                while left > 0:
                    size = min(act.wave, left)
                    self._pending.append(("wave", size))
                    left -= size

    def _pop_pending(self) -> Optional[ChurnEvent]:
        while self._pending:
            step = self._pending.popleft()
            if step[0] == "del":
                nid = step[1]
                if not self._is_alive(nid):
                    continue  # a scheduled death beat the outage to it
                self._remove_alive(nid)
                return Delete(nid)
            if step[0] == "ins":
                return self._join()
            assert step[0] == "wave"
            # Attach points all drawn before any joiner lands: a wave
            # joiner may not attach to a same-wave joiner.
            attaches = [self._attach_point() for _ in range(step[1])]
            joiners = []
            for attach in attaches:
                nid = self._fresh_id()
                joiners.append((nid, attach))
                self._add_alive(nid)
                self._schedule_death(nid)
            return InsertWave(tuple(joiners))
        return None

    # -- the stream --------------------------------------------------------
    def next(self) -> ChurnEvent:
        """The next event (never raises — the stream is unbounded)."""
        self._trigger_acts()
        event = self._pop_pending()
        if event is None:
            event = self._steady_state()
        self.emitted += 1
        return event

    def _steady_state(self) -> ChurnEvent:
        # Drop already-dead heap entries (killed early by an outage).
        while self._deaths and not self._is_alive(self._deaths[0][1]):
            heapq.heappop(self._deaths)
        gap = self._rng.expovariate(self._rate())
        next_death = self._deaths[0][0] if self._deaths else math.inf
        if (
            next_death <= self.t + gap
            and len(self._members) > self.config.min_alive
        ):
            when, nid = heapq.heappop(self._deaths)
            self.t = max(self.t, when)
            self._remove_alive(nid)
            return Delete(nid)
        self.t += gap
        return self._join()

    def skip(self, k: int) -> None:
        """Fast-forward ``k`` events (discarded) — the resume primitive.

        A fresh generator with the same config, skipped to event index
        ``e``, continues with exactly the events the original stream
        produced after ``e`` — no generator state ever needs
        serializing."""
        for _ in range(k):
            self.next()

    def __iter__(self):
        while True:
            yield self.next()


class GeneratorChurnAdversary:
    """:class:`TraceGenerator` as a harness adversary.

    The generator is omniscient-free: it never reads the healer (its
    own alive set is authoritative, and it built the initial overlay),
    which is exactly what makes the stream skippable on resume.
    ``reset()`` rewinds to the configured start — optionally to a
    checkpoint's event index via ``start_at``.
    """

    def __init__(self, generator: TraceGenerator, start_at: int = 0):
        self.generator = generator
        self.start_at = start_at
        self.name = "generator"

    def next_event(self, healer) -> ChurnEvent:
        return self.generator.next()

    def reset(self) -> None:
        self.generator.reset()
        if self.start_at:
            self.generator.skip(self.start_at)

"""Fault injection for the semi-distributed runtime.

The paper claims AGT-RAM survives the failure modes of "large
distributed computing systems"; this module makes that claim testable.
It provides the fault model the simulator consumes:

* :class:`FaultSchedule` — a seeded, fully materialized plan of agent
  crash/recover intervals, central-body crash rounds, and straggler
  rounds.  Scripted (pass the intervals) or stochastic
  (:meth:`FaultSchedule.random`); either way the schedule is pure data,
  so the same seed reproduces the same faults byte-for-byte.
* :class:`ChannelConfig` / :class:`FaultyChannel` — a lossy message
  channel that drops, delays past the round deadline, or duplicates
  traffic with configurable per-transmission probabilities.  The
  channel draws a fixed number of uniforms per transmission, so the
  loss pattern is a deterministic function of the seed alone.
* :class:`QuorumPolicy` — the bid deadline semantics: how many
  retransmissions an agent attempts per round, what fraction of
  expected bids the central body requires before proceeding, and how
  many consecutive stalled rounds are tolerated before the run is
  declared non-convergent.
* :class:`Checkpoint` / :class:`CheckpointStore` — the central body's
  crash-recovery state: a snapshot of the replica map (as the ordered
  allocation list) and round counter, taken every ``period`` commits.
* :class:`FaultPlan` — the user-facing bundle of all of the above, the
  single ``faults=`` argument of
  :class:`~repro.runtime.simulator.SemiDistributedSimulator`.
* :class:`FaultInjector` — the runtime engine built from a plan: it
  owns the channel RNG, performs the retry/backoff transmission loops,
  records every injected fault through :mod:`repro.obs.events`, and
  keeps the campaign summary counters.

Failure semantics (documented in ``docs/robustness.md``):

* **Bids are deadline-bound.**  A bid dropped or delayed past the
  deadline on its final retransmission is *lost for the round*; the
  central body proceeds with the quorum that arrived (graceful
  degradation) and the loser simply re-bids next round.
* **NN-update traffic is gossiped reliably.**  Drops cost retransmitted
  messages and bytes, never consistency — so every agent's view stays
  exact and the mechanism's equilibrium reasoning survives.
* **Data survives agent failure.**  A crashed agent stops bidding; the
  replicas (and primaries) it already hosts keep serving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.runtime.messages import BidMessage, Message, MessageLog
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "Delivery",
    "ChannelConfig",
    "FaultyChannel",
    "FaultSchedule",
    "QuorumPolicy",
    "Checkpoint",
    "CheckpointStore",
    "FaultPlan",
    "FaultInjector",
]


# -- lossy channel -----------------------------------------------------------


class Delivery(Enum):
    """Outcome of one transmission attempt through a faulty link."""

    DELIVERED = "delivered"
    DROPPED = "dropped"
    #: Delivered, but after the round deadline — lost for this round.
    DELAYED = "delayed"
    #: Delivered twice (network-level duplication).
    DUPLICATED = "duplicated"


@dataclass(frozen=True)
class ChannelConfig:
    """Per-transmission fault probabilities of the message channel."""

    drop: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "delay", "duplicate"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise ConfigurationError(
                    f"channel {name} probability must be in [0, 1); got {p}"
                )

    @property
    def lossless(self) -> bool:
        return self.drop == 0.0 and self.delay == 0.0 and self.duplicate == 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "drop": self.drop,
            "delay": self.delay,
            "duplicate": self.duplicate,
        }


class FaultyChannel:
    """Seeded lossy link: decides the fate of each transmission.

    Exactly three uniform draws per :meth:`transmit` call regardless of
    outcome, so the realized loss pattern depends only on the seed and
    the (deterministic) transmission order — never on which branch an
    earlier transmission took.
    """

    def __init__(self, config: ChannelConfig, seed: SeedLike = 0):
        self.config = config
        self._rng = as_generator(seed)
        self.stats: dict[str, int] = {
            "delivered": 0,
            "dropped": 0,
            "delayed": 0,
            "duplicated": 0,
        }

    def transmit(self) -> Delivery:
        u = self._rng.random(3)
        if u[0] < self.config.drop:
            outcome = Delivery.DROPPED
        elif u[1] < self.config.delay:
            outcome = Delivery.DELAYED
        elif u[2] < self.config.duplicate:
            outcome = Delivery.DUPLICATED
        else:
            outcome = Delivery.DELIVERED
        self.stats[outcome.value] += 1
        return outcome


# -- fault schedule ----------------------------------------------------------


def _normalize_intervals(
    intervals: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    out = []
    for start, end in intervals:
        start, end = int(start), int(end)
        if start < 0 or end <= start:
            raise ConfigurationError(
                f"crash interval [{start}, {end}) is malformed"
            )
        out.append((start, end))
    return tuple(sorted(out))


#: Rounds of crash-start uniforms :func:`_skip_quiet` draws at once.
_CRASH_BLOCK = 256

#: Blocks pay only where one is expected to cover at least this many
#: rounds: a block costs about 4 µs (a state save, an array draw, an
#: argmax) and a crash in it 3 µs more (a rewind, a redraw), against
#: 0.6 µs per round for a scalar draw.
_CRASH_SKIP_MIN = 20


def _skip_quiet(
    rng: np.random.Generator, crash_rate: float, rnd: int, horizon: int
) -> int:
    """The first round from ``rnd`` on whose crash-start uniform falls
    below ``crash_rate``, or ``horizon`` if none does.

    Draws the uniforms of the rounds before it a block at a time and
    leaves that round's own uniform undrawn: at a hit it rewinds the
    block and redraws up to the hit only.  So the generator ends where
    one scalar draw per skipped round would leave it.
    """
    bits = rng.bit_generator
    while rnd < horizon:
        state = bits.state
        block = rng.random(min(_CRASH_BLOCK, horizon - rnd))
        hit = int((block < crash_rate).argmax())
        if block[hit] < crash_rate:
            bits.state = state
            rng.random(hit)
            return rnd + hit
        rnd += len(block)
    return horizon


@dataclass(frozen=True)
class FaultSchedule:
    """A fully materialized plan of when what fails.

    Attributes
    ----------
    agent_crashes:
        Per-agent half-open ``[start, end)`` protocol-round intervals
        during which the agent's process is down: it computes no bids
        and receives no traffic, but its hosted replicas keep serving.
    central_crashes:
        Protocol rounds at whose start the acting central body crashes,
        triggering the §7 election plus checkpoint recovery.
    stragglers:
        ``(round, agent)`` pairs whose bid computation overruns the
        round deadline — the bid is sent but arrives too late to count.
    """

    agent_crashes: Mapping[int, tuple[tuple[int, int], ...]] = field(
        default_factory=dict
    )
    central_crashes: frozenset[int] = frozenset()
    stragglers: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "agent_crashes",
            {
                int(a): _normalize_intervals(ivals)
                for a, ivals in dict(self.agent_crashes).items()
            },
        )
        object.__setattr__(
            self, "central_crashes", frozenset(int(r) for r in self.central_crashes)
        )
        object.__setattr__(
            self,
            "stragglers",
            frozenset((int(r), int(a)) for r, a in self.stragglers),
        )

    @classmethod
    def null(cls) -> "FaultSchedule":
        """The empty schedule: nothing ever fails."""
        return cls()

    @property
    def is_null(self) -> bool:
        return (
            not self.agent_crashes
            and not self.central_crashes
            and not self.stragglers
        )

    def agent_down(self, agent: int, rnd: int) -> bool:
        """Is ``agent`` crashed during protocol round ``rnd``?"""
        for start, end in self.agent_crashes.get(agent, ()):
            if start <= rnd < end:
                return True
        return False

    def is_straggler(self, rnd: int, agent: int) -> bool:
        return (rnd, agent) in self.stragglers

    @cached_property
    def _crash_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every crash interval as ``(agent, start, end)`` columns."""
        rows = [
            (a, start, end)
            for a, ivals in self.agent_crashes.items()
            for start, end in ivals
        ]
        cols = np.array(rows, dtype=np.int64).reshape(-1, 3)
        return cols[:, 0], cols[:, 1], cols[:, 2]

    @cached_property
    def _stragglers_by_round(self) -> dict[int, np.ndarray]:
        by_round: dict[int, list[int]] = {}
        for rnd, agent in self.stragglers:
            by_round.setdefault(rnd, []).append(agent)
        return {r: np.array(a, dtype=np.int64) for r, a in by_round.items()}

    def down_mask(self, rnd: int, n_agents: int) -> np.ndarray:
        """(n_agents,) bool: :meth:`agent_down` of every agent at ``rnd``."""
        agents, starts, ends = self._crash_columns
        mask = np.zeros(n_agents, dtype=bool)
        live = (agents >= 0) & (agents < n_agents)
        hit = agents[(starts <= rnd) & (rnd < ends) & live]
        mask[hit] = True
        return mask

    def straggler_mask(self, rnd: int, n_agents: int) -> np.ndarray:
        """(n_agents,) bool: :meth:`is_straggler` of every agent at ``rnd``."""
        mask = np.zeros(n_agents, dtype=bool)
        agents = self._stragglers_by_round.get(rnd)
        if agents is not None:
            mask[agents[(agents >= 0) & (agents < n_agents)]] = True
        return mask

    def central_crashes_at(self, rnd: int) -> bool:
        return rnd in self.central_crashes

    @classmethod
    def random(
        cls,
        *,
        n_agents: int,
        horizon: int,
        seed: SeedLike = 0,
        crash_rate: float = 0.0,
        mean_outage: float = 3.0,
        straggler_rate: float = 0.0,
        central_crash_rate: float = 0.0,
        central_crashes: Sequence[int] = (),
    ) -> "FaultSchedule":
        """Sample a stochastic schedule, reproducible from ``seed``.

        Each agent independently starts an outage with probability
        ``crash_rate`` per up-round; outage lengths are geometric with
        mean ``mean_outage`` rounds.  Stragglers are Bernoulli per
        (round, agent).  Central crashes combine the explicit
        ``central_crashes`` rounds with a Bernoulli ``central_crash_rate``
        per round.  Sampling order is fixed (agents then rounds), so the
        schedule is a pure function of the arguments.  Each Bernoulli
        plane is drawn as one array (the same stream as one uniform per
        cell), even at rate 0, so every plane consumes a fixed number of
        draws whatever the rates.
        """
        if n_agents < 1 or horizon < 0:
            raise ConfigurationError("need n_agents >= 1 and horizon >= 0")
        for name, p in (
            ("crash_rate", crash_rate),
            ("straggler_rate", straggler_rate),
            ("central_crash_rate", central_crash_rate),
        ):
            if not (0.0 <= p < 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1); got {p}")
        if mean_outage < 1.0:
            raise ConfigurationError("mean_outage must be >= 1 round")
        rng = as_generator(seed)
        # One crash-start uniform per up-round.  Where crashes are rare,
        # each quiet stretch is drawn in blocks first.
        skip = horizon >= _CRASH_SKIP_MIN and crash_rate <= 1 / _CRASH_SKIP_MIN
        crashes: dict[int, list[tuple[int, int]]] = {}
        for agent in range(n_agents):
            rnd = 0
            while rnd < horizon:
                if skip:
                    rnd = _skip_quiet(rng, crash_rate, rnd, horizon)
                    if rnd == horizon:
                        break
                if rng.random() < crash_rate:
                    length = 1 + int(rng.geometric(1.0 / mean_outage))
                    crashes.setdefault(agent, []).append((rnd, rnd + length))
                    rnd += length
                rnd += 1
        # Agent-major: cell ``agent * horizon + rnd``.
        hit = np.flatnonzero(rng.random(n_agents * horizon) < straggler_rate)
        late_agents, late_rounds = np.divmod(hit, max(horizon, 1))
        stragglers = set(zip(late_rounds.tolist(), late_agents.tolist()))
        central = set(int(r) for r in central_crashes)
        central.update(
            np.flatnonzero(rng.random(horizon) < central_crash_rate).tolist()
        )
        return cls(
            agent_crashes={a: tuple(iv) for a, iv in crashes.items()},
            central_crashes=frozenset(central),
            stragglers=frozenset(stragglers),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (part of the simulator's ``fault_summary``)."""
        return {
            "agent_crashes": {
                str(a): [list(iv) for iv in ivals]
                for a, ivals in sorted(self.agent_crashes.items())
            },
            "central_crashes": sorted(self.central_crashes),
            "stragglers": sorted([r, a] for r, a in self.stragglers),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultSchedule":
        return cls(
            agent_crashes={
                int(a): tuple(tuple(iv) for iv in ivals)
                for a, ivals in dict(d.get("agent_crashes", {})).items()
            },
            central_crashes=frozenset(d.get("central_crashes", ())),
            stragglers=frozenset(
                (int(r), int(a)) for r, a in d.get("stragglers", ())
            ),
        )


# -- quorum / deadline policy ------------------------------------------------


@dataclass(frozen=True)
class QuorumPolicy:
    """Bid-deadline semantics of a round under faults.

    Attributes
    ----------
    quorum:
        Minimum fraction of the round's *expected* bids (one per live,
        bidding agent) that must arrive before the deadline for the
        central body to arbitrate.  Below quorum the round stalls and is
        retried — nobody wins on a nearly-blind view.
    max_retries:
        Retransmissions (with backoff) each agent attempts within the
        round deadline after a drop or delay; ``0`` means a single send.
    max_stalled_rounds:
        Consecutive stalled rounds (quorum misses / total blackouts /
        full-crash rounds) tolerated before the run raises
        :class:`~repro.errors.ConvergenceError`.
    """

    quorum: float = 0.5
    max_retries: int = 2
    max_stalled_rounds: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.quorum <= 1.0):
            raise ConfigurationError(
                f"quorum must be in (0, 1]; got {self.quorum}"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.max_stalled_rounds < 1:
            raise ConfigurationError("max_stalled_rounds must be >= 1")

    def required(self, expected: int) -> int:
        """Bids needed for quorum out of ``expected`` (at least 1)."""
        if expected <= 0:
            return 0
        return max(1, math.ceil(expected * self.quorum - 1e-9))


# -- checkpointing -----------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """The central body's durable state at one commit boundary.

    ``round`` is the protocol round of the snapshot; ``allocations`` the
    ordered ``(server, object)`` commit list — the replica map modulo
    primaries, which are static public knowledge.
    """

    round: int = -1
    allocations: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "allocations",
            tuple((int(s), int(o)) for s, o in self.allocations),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "round": self.round,
            "allocations": [list(a) for a in self.allocations],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Checkpoint":
        return cls(
            round=int(d.get("round", -1)),
            allocations=tuple(
                (int(s), int(o)) for s, o in d.get("allocations", ())
            ),
        )


class CheckpointStore:
    """Periodic snapshots of the central body's allocation history.

    ``period`` counts *commits* between snapshots; ``0`` disables
    checkpointing entirely (recovery then replays the full history from
    the agents' state-sync reports).
    """

    def __init__(self, period: int = 8):
        if period < 0:
            raise ConfigurationError("checkpoint period must be >= 0")
        self.period = period
        self.allocations: list[tuple[int, int]] = []
        self.latest: Optional[Checkpoint] = None
        self.taken = 0

    def commit(self, server: int, obj: int, rnd: int) -> bool:
        """Record one allocation; returns True when it triggered a
        checkpoint snapshot."""
        self.allocations.append((int(server), int(obj)))
        if self.period and len(self.allocations) % self.period == 0:
            self.latest = Checkpoint(
                round=rnd, allocations=tuple(self.allocations)
            )
            self.taken += 1
            return True
        return False

    def restore(self) -> Checkpoint:
        """The newest snapshot (empty when none was ever taken)."""
        return self.latest if self.latest is not None else Checkpoint()

    @property
    def lost_since_checkpoint(self) -> int:
        """Commits that a crash right now would have to re-learn."""
        return len(self.allocations) - len(self.restore().allocations)


# -- the user-facing bundle --------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """Everything the simulator needs to run one chaos scenario."""

    schedule: FaultSchedule = field(default_factory=FaultSchedule.null)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    quorum: QuorumPolicy = field(default_factory=QuorumPolicy)
    #: Commits between central checkpoints (0 disables).
    checkpoint_period: int = 8
    #: Seeds the channel RNG; the schedule carries its own realization.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.checkpoint_period < 0:
            raise ConfigurationError("checkpoint_period must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return {
            "schedule": self.schedule.to_dict(),
            "channel": self.channel.to_dict(),
            "quorum": {
                "quorum": self.quorum.quorum,
                "max_retries": self.quorum.max_retries,
                "max_stalled_rounds": self.quorum.max_stalled_rounds,
            },
            "checkpoint_period": self.checkpoint_period,
            "seed": self.seed,
        }


# -- runtime engine ----------------------------------------------------------

#: Safety cap on reliable-gossip retransmissions (NN traffic); far above
#: anything a valid ``drop < 1`` configuration needs.
_RELIABLE_CAP = 64


class FaultInjector:
    """Executes one :class:`FaultPlan` against a simulator run.

    Owns the lossy channel, the checkpoint store, and the campaign
    summary counters; every injected fault is emitted through the active
    event sink (:mod:`repro.obs.events`) so the audit and the exporters
    can see it.
    """

    def __init__(self, plan: FaultPlan, n_agents: int):
        self.plan = plan
        self.schedule = plan.schedule
        self.quorum = plan.quorum
        self.channel = FaultyChannel(plan.channel, seed=plan.seed)
        self.checkpoints = CheckpointStore(plan.checkpoint_period)
        self.summary: dict[str, int] = {
            "bid_attempts": 0,
            "bids_lost": 0,
            "drops": 0,
            "delays": 0,
            "duplicates": 0,
            "stragglers": 0,
            "timeouts": 0,
            "stalled_rounds": 0,
            "agent_crashes": 0,
            "agent_recoveries": 0,
            "central_crashes": 0,
            "checkpoints": 0,
            "recoveries": 0,
        }

    # -- event helpers -----------------------------------------------------

    @staticmethod
    def _emit(event: ev.Event) -> None:
        sink = ev.current()
        if sink.enabled:
            sink.emit(event)

    def _fault(self, *, rnd: int, kind: str, agent: int, target: str = "",
               detail: str = "") -> None:
        self._emit(
            ev.FaultEvent(
                t=ev.now(), round=rnd, kind=kind, agent=agent,
                target=target, detail=detail,
            )
        )

    # -- transmission ------------------------------------------------------

    def send_bid(
        self,
        *,
        rnd: int,
        sender: int,
        receiver: int,
        obj: int,
        value: float,
        log: MessageLog,
    ) -> list[BidMessage]:
        """Transmit one bid under the deadline/retry policy.

        Returns the copies that arrived at the central body before the
        deadline: ``[]`` (lost for the round), one message, or two (a
        network duplicate — the central's dedup path).  Every attempt is
        recorded in ``log`` and every fault in the event stream.
        """
        if self.schedule.is_straggler(rnd, sender):
            log.record(
                BidMessage(sender=sender, receiver=receiver, obj=obj,
                           value=value, seq=0)
            )
            self.summary["bid_attempts"] += 1
            self.summary["stragglers"] += 1
            self.summary["bids_lost"] += 1
            self._fault(rnd=rnd, kind="straggler", agent=sender, target="bid")
            return []
        for attempt in range(self.quorum.max_retries + 1):
            msg = BidMessage(sender=sender, receiver=receiver, obj=obj,
                             value=value, seq=attempt)
            log.record(msg)
            self.summary["bid_attempts"] += 1
            outcome = self.channel.transmit()
            if outcome is Delivery.DELIVERED:
                return [msg]
            if outcome is Delivery.DUPLICATED:
                log.record(msg)  # the wire carried it twice
                self.summary["duplicates"] += 1
                self._fault(rnd=rnd, kind="duplicate", agent=sender,
                            target="bid", detail=f"attempt {attempt}")
                return [msg, msg]
            kind = "drop" if outcome is Delivery.DROPPED else "delay"
            self.summary["drops" if kind == "drop" else "delays"] += 1
            self._fault(rnd=rnd, kind=kind, agent=sender, target="bid",
                        detail=f"attempt {attempt}")
        self.summary["bids_lost"] += 1
        return []

    def send_reliable(
        self,
        make_msg: Callable[[], Message],
        *,
        rnd: int,
        agent: int,
        target: str,
        log: MessageLog,
    ) -> int:
        """Gossip one NN-update/resync message until it gets through.

        Returns the number of transmissions it took.  Reliability is the
        point: views never diverge, faults only cost traffic.
        """
        attempts = 0
        while True:
            msg = make_msg()
            log.record(msg)
            attempts += 1
            outcome = self.channel.transmit()
            if outcome is Delivery.DELIVERED:
                return attempts
            if outcome is Delivery.DUPLICATED:
                log.record(msg)
                self.summary["duplicates"] += 1
                self._fault(rnd=rnd, kind="duplicate", agent=agent,
                            target=target)
                return attempts + 1
            kind = "drop" if outcome is Delivery.DROPPED else "delay"
            self.summary["drops" if kind == "drop" else "delays"] += 1
            self._fault(rnd=rnd, kind=kind, agent=agent, target=target)
            if attempts > _RELIABLE_CAP:  # pragma: no cover - safety net
                return attempts

    def summary_dict(self) -> dict[str, Any]:
        """JSON-safe campaign summary (plan + realized fault counts)."""
        return {
            "plan": self.plan.to_dict(),
            "injected": dict(self.summary),
            "channel": dict(self.channel.stats),
            "checkpoints_taken": self.checkpoints.taken,
        }

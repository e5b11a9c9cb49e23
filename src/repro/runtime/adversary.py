"""Byzantine-agent injection and the hardened trust boundary.

PR 4's :mod:`repro.runtime.faults` models *crash/omission* faults —
agents that stop, links that lose.  This module models the other half
of the threat matrix: agents that **lie**.  Second-price payments make
truth-telling a dominant strategy for *rational* agents (PAPER.md
§4–5), but the protocol machinery itself must survive irrational,
malformed, and colluding traffic for that incentive property to mean
anything in deployment (Tanaka et al.'s faithfulness argument).  Two
halves, both seeded and deterministic:

**Attack** — :class:`AdversaryPlan` scripts per-agent Byzantine
behaviour (composable with a :class:`~repro.runtime.faults.FaultPlan`;
the adversary corrupts bids *before* the lossy channel touches them):

* ``inflate`` / ``deflate`` — mis-scaled CoR reports (the per-bid
  application of :class:`~repro.core.strategies.TopInflation` /
  :class:`~repro.core.strategies.UnderProjection`);
* ``infeasible`` — bids for objects the sender already hosts;
* ``overclaim`` — bids for objects exceeding the sender's residual
  capacity;
* ``garbage`` — malformed wire fields (NaN/inf values, out-of-range
  object ids, absurd sequence numbers);
* ``equivocate`` — conflicting payloads presented as retransmissions
  of one bid;
* ``collude`` — a seeded ring that props up the second price: the
  ring member with the best true valuation bids honestly while its
  ring-mates report just below it, inflating the payment the winner
  extracts from the mechanism.

:class:`AdversaryInjector` executes a plan, emitting a ground-truth
:class:`~repro.obs.events.AdversaryEvent` for every bid it actually
alters — which is what lets a campaign score detection
precision/recall.

**Defence** — :class:`TrustBoundary` bundles the three hardening
layers every central puts in front of its decision:

* :class:`MessageValidator` — schema / range / feasibility /
  sequence-sanity checks over every delivered bid; rejects with a
  typed :class:`~repro.obs.events.ValidationEvent` instead of
  crashing;
* :class:`ManipulationDetector` — in-loop recomputation of each
  delivered bid against the central body's own benefit oracle
  (extending :mod:`repro.obs.audit` from offline to online), flagging
  deviations as :class:`~repro.obs.events.ManipulationEvent`;
* :class:`QuarantineManager` (configured by :class:`QuarantinePolicy`)
  — strike-based exclusion with rejoin probation and eventual
  expulsion, so the mechanism degrades gracefully: a quarantined
  agent's traffic keeps being served (its primaries and existing
  replicas stay), it just stops acquiring replicas.

The checks run once, on a round's bids as :class:`BidColumns`
(``screen_columns`` / ``inspect_columns``, which the sharded central
calls); ``screen`` and ``inspect`` take :class:`BidMessage` lists and
are thin adapters over the same code.

Determinism contract: a null plan leaves the run byte-identical to the
honest path (validator and detector see exact truthful values and emit
nothing), and the same seed reproduces the same campaign log
byte-for-byte under the logical event clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.core.agents import Bid
from repro.core.strategies import TopInflation, UnderProjection
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.runtime.messages import BidMessage
from repro.utils.rng import as_generator

__all__ = [
    "BEHAVIORS",
    "BidColumns",
    "AdversarySpec",
    "AdversaryPlan",
    "AdversaryInjector",
    "MessageValidator",
    "ManipulationDetector",
    "QuarantinePolicy",
    "QuarantineManager",
    "TrustBoundary",
]

#: The scripted Byzantine behaviours, in canonical order.
BEHAVIORS = (
    "inflate",
    "deflate",
    "infeasible",
    "overclaim",
    "garbage",
    "equivocate",
    "collude",
)

#: Booster bids sit this fraction below the ring leader's bid — close
#: enough to set (and inflate) the second price, never enough to win.
_COLLUSION_MARGIN = 1e-6


# -- the attack plan ---------------------------------------------------------


@dataclass(frozen=True)
class AdversarySpec:
    """One agent's scripted misbehaviour.

    Attributes
    ----------
    behavior:
        One of :data:`BEHAVIORS`.
    factor:
        Scale for ``inflate`` (> 1; deflation uses its reciprocal).
    activity:
        Per-round probability the agent misbehaves (1.0 = every round;
        on inactive rounds it bids honestly).
    ring:
        Collusion ring id (``collude`` only; members with the same id
        coordinate).
    """

    behavior: str
    factor: float = 2.0
    activity: float = 1.0
    ring: int = -1

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIORS:
            raise ConfigurationError(
                f"unknown adversary behavior {self.behavior!r}; expected "
                f"one of {BEHAVIORS}"
            )
        if self.factor <= 1.0:
            raise ConfigurationError(
                f"adversary factor must be > 1, got {self.factor}"
            )
        if not (0.0 < self.activity <= 1.0):
            raise ConfigurationError(
                f"adversary activity must be in (0, 1], got {self.activity}"
            )
        if self.behavior == "collude" and self.ring < 0:
            raise ConfigurationError("collude behavior requires a ring id >= 0")

    def to_dict(self) -> dict[str, Any]:
        return {
            "behavior": self.behavior,
            "factor": self.factor,
            "activity": self.activity,
            "ring": self.ring,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AdversarySpec":
        return cls(
            behavior=str(d["behavior"]),
            factor=float(d.get("factor", 2.0)),
            activity=float(d.get("activity", 1.0)),
            ring=int(d.get("ring", -1)),
        )


@dataclass(frozen=True)
class AdversaryPlan:
    """Who misbehaves and how — pure data, reproducible from its seed.

    ``agents`` maps agent id to its :class:`AdversarySpec`; agents not
    listed are honest.  ``seed`` drives the injector's per-round
    activity draws and garbage-variant choices.  ``window`` optionally
    bounds the attack to the half-open round interval ``[start, end)``:
    outside it every scripted agent bids honestly (and consumes no
    injector randomness), so runtimes may treat the adversary as
    dormant — re-enabling optimizations like regional quiescence — once
    the window has passed.  ``None`` means the attack never ends.
    """

    agents: Mapping[int, AdversarySpec] = field(default_factory=dict)
    seed: int = 0
    window: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "agents",
            {int(a): spec for a, spec in dict(self.agents).items()},
        )
        for a in self.agents:
            if a < 0:
                raise ConfigurationError(f"adversary agent id {a} is negative")
        if self.window is not None:
            start, end = self.window
            if start < 0 or end < start:
                raise ConfigurationError(
                    f"adversary window must satisfy 0 <= start <= end, "
                    f"got {self.window}"
                )
            object.__setattr__(self, "window", (int(start), int(end)))

    def active_at(self, rnd: int) -> bool:
        """Is the attack armed during protocol round ``rnd``?"""
        if self.window is None:
            return True
        return self.window[0] <= rnd < self.window[1]

    def over_by(self, rnd: int) -> bool:
        """Has the attack window permanently ended at round ``rnd``?"""
        return self.window is not None and rnd >= self.window[1]

    @classmethod
    def null(cls) -> "AdversaryPlan":
        """The empty plan: every agent is honest."""
        return cls()

    @property
    def is_null(self) -> bool:
        return not self.agents

    @classmethod
    def random(
        cls,
        *,
        n_agents: int,
        fraction: float,
        behaviors: Sequence[str] = BEHAVIORS,
        factor: float = 2.0,
        activity: float = 1.0,
        seed: int = 0,
        window: Optional[tuple[int, int]] = None,
    ) -> "AdversaryPlan":
        """Sample a plan: ``round(fraction * n_agents)`` adversaries,
        behaviours drawn round-robin-uniformly from ``behaviors``.

        Colluders are grouped into one ring per plan.  Sampling order
        is fixed, so the plan is a pure function of the arguments.
        """
        if n_agents < 1:
            raise ConfigurationError("need n_agents >= 1")
        if not (0.0 <= fraction <= 1.0):
            raise ConfigurationError(
                f"adversary fraction must be in [0, 1], got {fraction}"
            )
        behaviors = tuple(behaviors)
        for b in behaviors:
            if b not in BEHAVIORS:
                raise ConfigurationError(f"unknown adversary behavior {b!r}")
        if not behaviors:
            raise ConfigurationError("need at least one behavior")
        k = int(round(fraction * n_agents))
        rng = as_generator(seed)
        chosen = sorted(rng.choice(n_agents, size=min(k, n_agents),
                                   replace=False).tolist())
        agents: dict[int, AdversarySpec] = {}
        for idx, agent in enumerate(chosen):
            behavior = behaviors[idx % len(behaviors)]
            agents[int(agent)] = AdversarySpec(
                behavior=behavior,
                factor=factor,
                activity=activity,
                ring=0 if behavior == "collude" else -1,
            )
        # A ring of one cannot collude; fold singletons into inflation.
        ring_members = [a for a, s in agents.items() if s.behavior == "collude"]
        if len(ring_members) == 1:
            a = ring_members[0]
            agents[a] = AdversarySpec(
                behavior="inflate", factor=factor, activity=activity
            )
        return cls(agents=agents, seed=int(seed), window=window)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (the artifact the adversary CLI writes)."""
        out: dict[str, Any] = {
            "agents": {
                str(a): spec.to_dict() for a, spec in sorted(self.agents.items())
            },
            "seed": self.seed,
        }
        if self.window is not None:
            out["window"] = list(self.window)
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AdversaryPlan":
        window = d.get("window")
        return cls(
            agents={
                int(a): AdversarySpec.from_dict(spec)
                for a, spec in dict(d.get("agents", {})).items()
            },
            seed=int(d.get("seed", 0)),
            window=None if window is None else (int(window[0]), int(window[1])),
        )


# -- the attack engine -------------------------------------------------------


class AdversaryInjector:
    """Executes one :class:`AdversaryPlan` against a simulator run.

    :meth:`corrupt_round` maps the round's honest bids to the payloads
    actually transmitted, emitting a ground-truth
    :class:`~repro.obs.events.AdversaryEvent` per altered bid and
    tallying the campaign summary.  Identity transforms (an inactive
    round, a zero-valued bid that scaling cannot change) are *not*
    recorded — ground truth counts observable manipulations only.
    """

    def __init__(self, plan: AdversaryPlan, n_agents: int):
        for a in plan.agents:
            if a >= n_agents:
                raise ConfigurationError(
                    f"adversary agent {a} out of range for {n_agents} agents"
                )
        self.plan = plan
        #: (n_agents,) bool: the plan's scripted agents.
        self.scripted = np.zeros(n_agents, dtype=bool)
        self.scripted[list(plan.agents)] = True
        self._rng = as_generator(plan.seed)
        self.summary: dict[str, int] = {b: 0 for b in BEHAVIORS}
        self.summary["injected_bids"] = 0

    def dormant(self, rnd: int, expelled: "set[int] | frozenset[int]" = frozenset()) -> bool:
        """Can the run treat the adversary as permanently inert at
        ``rnd``?  True once the plan's activity window has ended, or
        once every scripted agent has been permanently expelled —
        either way no future round can carry a corrupted bid, so
        honest-path optimizations (regional quiescence) are safe again.
        """
        if self.plan.over_by(rnd):
            return True
        agents = self.plan.agents
        return bool(agents) and set(agents) <= set(expelled)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _emit(event: ev.Event) -> None:
        sink = ev.current()
        if sink.enabled:
            sink.emit(event)

    def _record(
        self, rnd: int, agent: int, behavior: str, obj: int, value: float,
        detail: str = "",
    ) -> None:
        self.summary[behavior] += 1
        self.summary["injected_bids"] += 1
        self._emit(
            ev.AdversaryEvent(
                t=ev.now(), round=rnd, agent=agent, behavior=behavior,
                obj=obj, value=value, detail=detail,
            )
        )

    def _scaled(self, spec: AdversarySpec, value: float, up: bool) -> float:
        strategy = (
            TopInflation(spec.factor) if up else UnderProjection(1.0 / spec.factor)
        )
        return float(strategy.report(np.array([value]))[0])

    # -- the per-round transform -------------------------------------------

    def corrupt_round(
        self,
        rnd: int,
        bids: Mapping[int, Bid],
        state: ReplicationState,
        instance: DRPInstance,
    ) -> dict[int, list[tuple[int, float]]]:
        """Transform one round's honest bids into wire payloads.

        Returns ``{agent: [(obj, value), ...]}`` for every agent in
        ``bids`` — a single honest entry for well-behaved agents, altered
        or multiplied entries for scripted ones.  Only scripted agents'
        bids matter, so a caller may pass just those (the sharded
        central does): the result and the draws are the same.  Draw
        order is fixed (sorted agents), so the realization is a pure
        function of the plan seed and the (deterministic) bid sequence.
        """
        out: dict[int, list[tuple[int, float]]] = {
            a: [(b.obj, b.value)] for a, b in bids.items()
        }
        if not self.plan.active_at(rnd):
            # Outside the activity window every scripted agent bids
            # honestly and no injector randomness is consumed, so the
            # realization inside the window is independent of how much
            # honest play surrounds it.
            return out
        specs = {
            a: s for a, s in self.plan.agents.items()
            if a in bids
            and (s.activity >= 1.0 or self._rng.random() < s.activity)
        }
        rings: dict[int, list[int]] = {}
        for agent in sorted(specs):
            spec = specs[agent]
            if spec.behavior == "collude":
                rings.setdefault(spec.ring, []).append(agent)
                continue
            honest = bids[agent]
            obj, value = honest.obj, honest.value
            if spec.behavior in ("inflate", "deflate"):
                sent = self._scaled(spec, value, up=spec.behavior == "inflate")
                # A shift inside the detector tolerance is economically
                # null and undetectable by construction — skip it rather
                # than count an unfindable "injection" against recall.
                if not math.isclose(
                    sent, value,
                    rel_tol=DETECTOR_REL_TOL, abs_tol=DETECTOR_REL_TOL,
                ):
                    out[agent] = [(obj, sent)]
                    self._record(rnd, agent, spec.behavior, obj, sent)
            elif spec.behavior == "infeasible":
                hosted = np.nonzero(state.x[agent])[0]
                if len(hosted):
                    bad = int(hosted[0])
                    sent = abs(value) * spec.factor + 1.0
                    out[agent] = [(bad, sent)]
                    self._record(rnd, agent, "infeasible", bad, sent,
                                 detail="already hosted")
            elif spec.behavior == "overclaim":
                too_big = np.nonzero(
                    instance.sizes > state.residual[agent]
                )[0]
                if len(too_big):
                    bad = int(too_big[np.argmax(instance.sizes[too_big])])
                    sent = abs(value) * spec.factor + 1.0
                    out[agent] = [(bad, sent)]
                    self._record(rnd, agent, "overclaim", bad, sent,
                                 detail="exceeds residual")
            elif spec.behavior == "garbage":
                variant = int(self._rng.integers(0, 3))
                if variant == 0:
                    bad_obj, sent = obj, float("nan")
                elif variant == 1:
                    bad_obj, sent = obj, float("inf")
                else:
                    bad_obj, sent = instance.n_objects + 7, abs(value) + 1.0
                out[agent] = [(bad_obj, sent)]
                self._record(rnd, agent, "garbage", bad_obj, sent,
                             detail=f"variant {variant}")
            elif spec.behavior == "equivocate":
                if math.isfinite(value) and value != 0.0:
                    hi = self._scaled(spec, value, up=True)
                    lo = self._scaled(spec, value, up=False)
                    out[agent] = [(obj, hi), (obj, lo)]
                    self._record(rnd, agent, "equivocate", obj, hi,
                                 detail=f"second payload {lo}")
        # Collusion rings: the member with the best true valuation bids
        # honestly; the others report just below it, propping up the
        # second price the leader is paid.
        for members in rings.values():
            if len(members) < 2:
                continue
            leader = max(members, key=lambda a: (bids[a].value, -a))
            target = bids[leader].value
            if not math.isfinite(target) or target <= 0.0:
                continue
            for booster in members:
                if booster == leader:
                    continue  # the leader's bid is honest this round
                boost = target * (1.0 - _COLLUSION_MARGIN)
                if not math.isclose(
                    boost, bids[booster].value,
                    rel_tol=DETECTOR_REL_TOL, abs_tol=DETECTOR_REL_TOL,
                ):
                    out[booster] = [(bids[booster].obj, boost)]
                    self._record(rnd, booster, "collude", bids[booster].obj,
                                 boost, detail=f"boosting agent {leader}")
        return out

    def summary_dict(self) -> dict[str, Any]:
        return {"plan": self.plan.to_dict(), "injected": dict(self.summary)}


# -- the defence: bids as columns ------------------------------------------


@dataclass(slots=True)
class BidColumns:
    """One round's delivered bids as columns, in arrival order: int64
    ``agent`` / ``obj`` / ``seq`` and float64 ``value``."""

    agent: np.ndarray
    obj: np.ndarray
    value: np.ndarray
    seq: np.ndarray

    @classmethod
    def from_messages(cls, bids: Sequence[BidMessage]) -> "BidColumns":
        n = len(bids)
        return cls(
            agent=np.fromiter((b.sender for b in bids), np.int64, n),
            obj=np.fromiter((b.obj for b in bids), np.int64, n),
            value=np.fromiter((b.value for b in bids), np.float64, n),
            seq=np.fromiter((b.seq for b in bids), np.int64, n),
        )

    def __len__(self) -> int:
        return len(self.agent)

    def take(self, idx: np.ndarray) -> "BidColumns":
        return BidColumns(
            self.agent[idx], self.obj[idx], self.value[idx], self.seq[idx]
        )


def _isclose(
    a: np.ndarray, b: np.ndarray, rel_tol: float, abs_tol: float
) -> np.ndarray:
    """:func:`math.isclose` element by element.  (``np.isclose`` is a
    different test: asymmetric, with the tolerances added.)"""
    close = a == b
    if close.all():
        return close
    with np.errstate(invalid="ignore"):
        diff = np.abs(b - a)
        near = (
            (diff <= np.abs(rel_tol * b))
            | (diff <= np.abs(rel_tol * a))
            | (diff <= abs_tol)
        )
    return close | (np.isfinite(a) & np.isfinite(b) & near)


def _cells(oracle: Any, agents: np.ndarray, objs: np.ndarray) -> np.ndarray:
    """The oracle's valuation of each ``(agent, obj)`` cell: a raw
    (M, N) matrix, a view with a ``values_at`` column lookup, or an
    engine with the single-cell ``value_at``."""
    if isinstance(oracle, np.ndarray):
        return oracle[agents, objs].astype(np.float64)
    values_at = getattr(oracle, "values_at", None)
    if values_at is not None:
        return values_at(agents, objs)
    return np.array(
        [oracle.value_at(a, k) for a, k in zip(agents.tolist(), objs.tolist())],
        dtype=np.float64,
    )


# -- the defence: validator --------------------------------------------------

#: A bid's first failed check, in the order the checks run (0 passes),
#: and the rejection kind each one reports.
_SCHEMA_OBJ, _SCHEMA_VALUE, _SCHEMA_SEQ, _HOSTED, _OVERCLAIM = 1, 2, 3, 4, 5
_KIND = {
    _SCHEMA_OBJ: "schema",
    _SCHEMA_VALUE: "schema",
    _SCHEMA_SEQ: "schema",
    _HOSTED: "feasibility",
    _OVERCLAIM: "overclaim",
}


class MessageValidator:
    """Schema / range / feasibility screening in front of the central.

    Everything the validator checks is public knowledge under Axiom 2
    — object sizes, capacities, and the replica map the OMAX broadcasts
    rebuild — so the central body can run it without learning any
    agent's private read/write data.  Rejections are typed
    :class:`~repro.obs.events.ValidationEvent` records, never crashes;
    a rejected bid simply does not participate in the round.
    """

    def __init__(self, instance: DRPInstance, *, max_seq: int = 64):
        self.instance = instance
        self.max_seq = max_seq
        self.rejections = 0

    def screen(
        self,
        bids: list[BidMessage],
        state: ReplicationState,
        rnd: int,
    ) -> tuple[list[BidMessage], list[ev.ValidationEvent]]:
        """:meth:`screen_columns` over a message list: the accepted
        messages, in order, and the rejections."""
        accepted, events = self.screen_columns(
            BidColumns.from_messages(bids), state, rnd
        )
        return [b for b, ok in zip(bids, accepted.tolist()) if ok], events

    def screen_columns(
        self, bids: BidColumns, state: ReplicationState, rnd: int
    ) -> tuple[np.ndarray, list[ev.ValidationEvent]]:
        """Split a round's delivered bids into (accepted mask, rejections).

        Checks run per bid in this order: sender in range (every bid
        from an unknown sender is rejected), then object id, value and
        sequence number, then — on a sender's first surviving payload —
        feasibility (already hosted) and capacity (overclaim); a later
        payload that differs from the first is equivocation.  A sender's
        first rejection voids *all* its copies, since the central cannot
        know which payload the agent meant and honoring either would
        reward the lie.  Exact duplicates (retransmissions) pass through
        untouched — the central body's idempotent dedup handles them.
        Rejections come out in bid order, one per voided sender plus one
        per unknown-sender bid.  Senders with a single payload are
        screened as masks; only multi-payload senders walk their copies.
        """
        n, n_objects = self.instance.n_servers, self.instance.n_objects
        agent, obj, value, seq = bids.agent, bids.obj, bids.value, bids.seq
        # A negative id wraps to a huge unsigned one: one compare checks
        # both ends of a range.
        known = agent.astype(np.uint64) < n
        obj_ok = obj.astype(np.uint64) < n_objects
        wellformed = (
            known & obj_ok & np.isfinite(value)
            & (seq.astype(np.uint64) <= self.max_seq)
        )
        residual = state.residual
        if wellformed.all():
            infeasible = state.x.take(agent * n_objects + obj) | (
                self.instance.sizes.take(obj) > residual.take(agent)
            )
            repeated = np.bincount(agent, minlength=n).take(agent) > 1
            if not (infeasible | repeated).any():
                return wellformed, []

        a = np.where(known, agent, 0)
        o = np.where(obj_ok, obj, 0)
        fault = np.where(self.instance.sizes[o] > residual[a], _OVERCLAIM, 0)
        fault[state.x[a, o].astype(bool)] = _HOSTED
        fault[seq.astype(np.uint64) > self.max_seq] = _SCHEMA_SEQ
        fault[~np.isfinite(value)] = _SCHEMA_VALUE
        fault[~obj_ok] = _SCHEMA_OBJ
        multi = known & (np.bincount(a[known], minlength=n)[a] > 1)
        bad = known & ~multi & (fault > 0)

        rejected = np.zeros(n, dtype=bool)
        rejected[agent[bad]] = True
        # (position, kind code or name, prior payload) per rejection.
        found: list[tuple[int, Any, Any]] = [
            (p, "unknown_sender", None) for p in np.flatnonzero(~known).tolist()
        ]
        found.extend(
            (p, f, None)
            for p, f in zip(np.flatnonzero(bad).tolist(), fault[bad].tolist())
        )
        agents, objs, values = agent.tolist(), obj.tolist(), value.tolist()
        seen: dict[int, tuple[int, float]] = {}
        for p in np.flatnonzero(multi).tolist():
            sender, f = agents[p], int(fault[p])
            if rejected[sender]:
                continue
            content = (objs[p], values[p])
            prior = seen.get(sender)
            if f in (_SCHEMA_OBJ, _SCHEMA_VALUE, _SCHEMA_SEQ):
                found.append((p, f, None))
            elif prior is not None and prior != content:
                found.append((p, "equivocation", prior))
            elif f:  # a repeat of a payload that passed has no fault
                found.append((p, f, None))
            else:
                seen[sender] = content
                continue
            rejected[sender] = True

        sizes = self.instance.sizes
        events: list[ev.ValidationEvent] = []
        for p, f, prior in sorted(found):
            sender, k, v = agents[p], objs[p], values[p]
            if f == "unknown_sender":
                detail = f"sender {sender} out of range"
            elif f == "equivocation":
                detail = f"conflicts with earlier payload {prior}"
            elif f == _SCHEMA_OBJ:
                detail = f"object id {k} out of range"
            elif f == _SCHEMA_VALUE:
                detail = f"non-finite value {v}"
            elif f == _SCHEMA_SEQ:
                detail = f"sequence number {int(seq[p])} out of range"
            elif f == _HOSTED:
                detail = f"sender already hosts object {k}"
            else:
                detail = (
                    f"object {k} (size {int(sizes[k])}) exceeds "
                    f"residual {int(residual[sender])}"
                )
            kind = f if isinstance(f, str) else _KIND[f]
            events.append(
                ev.ValidationEvent(
                    t=ev.now(), round=rnd, agent=sender, kind=kind,
                    obj=k, value=v, detail=detail,
                )
            )
        self.rejections += len(events)
        return known & ~rejected[a], events


# -- the defence: online detector --------------------------------------------

#: Relative tolerance of the misreport check; honest reports match the
#: oracle exactly, so anything beyond float noise is a lie.
DETECTOR_REL_TOL = 1e-6


class ManipulationDetector:
    """Online cross-check of delivered bids against the benefit oracle.

    The offline audit (:mod:`repro.obs.audit`) re-verifies winner and
    payment *after* the run; this detector closes the loop *during*
    it: every delivered, validator-accepted bid is recomputed from the
    central body's own copy of the valuation oracle and flagged when
    the report deviates beyond :data:`DETECTOR_REL_TOL`.  (In the
    reproduction the oracle is the shared
    :class:`~repro.drp.benefit.BenefitEngine` valuation — exactly the
    view the agents bid from, so honest bids match to the bit and
    false positives are structurally impossible.)  That holds on both
    centrals because each hands the detector the view its bids came
    from: the flat simulator screens before the round commits, and the
    sharded central, whose regions commit one after another on a
    shared state, screens every region on the island's round-start
    view, which keeps each committed object's pre-commit NN column
    until the round ends.
    """

    def __init__(self, rel_tol: float = DETECTOR_REL_TOL):
        if rel_tol <= 0:
            raise ConfigurationError("detector rel_tol must be > 0")
        self.rel_tol = rel_tol
        self.flags = 0

    def inspect(
        self,
        bids: list[BidMessage],
        oracle: "np.ndarray | Any",
        rnd: int,
    ) -> list[ev.ManipulationEvent]:
        """:meth:`inspect_columns` over a message list."""
        return self.inspect_columns(BidColumns.from_messages(bids), oracle, rnd)

    def inspect_columns(
        self, bids: BidColumns, oracle: "np.ndarray | Any", rnd: int
    ) -> list[ev.ManipulationEvent]:
        """Flag accepted bids whose value mismatches the recomputation.

        Each sender's first copy is checked (retransmitted copies carry
        the same payload).  ``oracle`` is the valuation view at bid time
        (before this round's commit mutates it): a raw (M, N) matrix, a
        view with a ``values_at(agents, objs)`` column lookup, or a
        benefit engine exposing ``value_at`` — the delta engine never
        materializes the full matrix, so the detector asks for cells.
        A non-finite recomputation (the validator's feasibility screen
        should have caught it) is flagged as ``infeasible_value``
        rather than crashing.
        """
        agents = bids.agent
        if not len(agents):
            return []
        if len(agents) > 1 and not (agents[1:] > agents[:-1]).all():
            # Repeated (or unordered) senders: each one's first copy.
            bids = bids.take(np.sort(np.unique(agents, return_index=True)[1]))
            agents = bids.agent
        objs, reported = bids.obj, bids.value
        true = _cells(oracle, agents, objs)
        finite = np.isfinite(true)
        flag = ~(finite & _isclose(reported, true, self.rel_tol, self.rel_tol))
        hits = flag.nonzero()[0]
        if not len(hits):
            return []
        self.flags += len(hits)
        return [
            ev.ManipulationEvent(
                t=ev.now(), round=rnd, agent=a,
                kind="misreport" if fin else "infeasible_value",
                obj=k, reported=v, recomputed=tv,
            )
            for a, k, v, tv, fin in zip(
                agents[hits].tolist(), objs[hits].tolist(),
                reported[hits].tolist(), true[hits].tolist(),
                finite[hits].tolist(),
            )
        ]


# -- the defence: quarantine -------------------------------------------------


@dataclass(frozen=True)
class QuarantinePolicy:
    """Strike-based exclusion with rejoin probation.

    Attributes
    ----------
    strikes:
        Flagged rounds before an agent is quarantined.
    probation:
        Rounds a quarantined agent sits out before rejoining.
    max_quarantines:
        Quarantines tolerated before the agent is expelled for the
        rest of the run (its replicas and primaries keep serving).
    """

    strikes: int = 3
    probation: int = 20
    max_quarantines: int = 3

    def __post_init__(self) -> None:
        if self.strikes < 1:
            raise ConfigurationError("quarantine strikes must be >= 1")
        if self.probation < 1:
            raise ConfigurationError("quarantine probation must be >= 1 round")
        if self.max_quarantines < 1:
            raise ConfigurationError("max_quarantines must be >= 1")

    def to_dict(self) -> dict[str, int]:
        return {
            "strikes": self.strikes,
            "probation": self.probation,
            "max_quarantines": self.max_quarantines,
        }


class QuarantineManager:
    """Tracks strikes and standing; emits quarantine lifecycle events."""

    def __init__(self, policy: QuarantinePolicy):
        self.policy = policy
        self.strikes: dict[int, int] = {}
        self.quarantined_until: dict[int, int] = {}
        self.times_quarantined: dict[int, int] = {}
        self.expelled: set[int] = set()
        self.ever_quarantined: set[int] = set()

    @staticmethod
    def _emit(event: ev.Event) -> None:
        sink = ev.current()
        if sink.enabled:
            sink.emit(event)

    @property
    def quarantined(self) -> set[int]:
        return set(self.quarantined_until)

    def releases_due(self, rnd: int) -> list[int]:
        """Release agents whose probation ends at ``rnd``; returns them."""
        due = sorted(
            a for a, until in self.quarantined_until.items() if rnd >= until
        )
        for agent in due:
            del self.quarantined_until[agent]
            self.strikes[agent] = 0
            self._emit(
                ev.QuarantineEvent(
                    t=ev.now(), round=rnd, agent=agent, action="release",
                    strikes=0, until_round=-1,
                )
            )
        return due

    def strike(self, agent: int, rnd: int) -> None:
        """One strike; quarantines or expels when thresholds trip."""
        if agent in self.expelled or agent in self.quarantined_until:
            return
        self.strikes[agent] = self.strikes.get(agent, 0) + 1
        if self.strikes[agent] < self.policy.strikes:
            return
        times = self.times_quarantined.get(agent, 0) + 1
        self.times_quarantined[agent] = times
        self.ever_quarantined.add(agent)
        if times >= self.policy.max_quarantines:
            self.expelled.add(agent)
            self._emit(
                ev.QuarantineEvent(
                    t=ev.now(), round=rnd, agent=agent, action="expel",
                    strikes=self.strikes[agent], until_round=-1,
                )
            )
            return
        until = rnd + 1 + self.policy.probation
        self.quarantined_until[agent] = until
        self._emit(
            ev.QuarantineEvent(
                t=ev.now(), round=rnd, agent=agent, action="quarantine",
                strikes=self.strikes[agent], until_round=until,
            )
        )


# -- the bundle the simulator consumes ---------------------------------------


class TrustBoundary:
    """Validator + detector + quarantine, wired for one simulator run.

    The simulator calls, per round:

    1. :meth:`filter_bidders` — drop quarantined/expelled agents from
       the bid sweep (their traffic is served without new replicas)
       and process due releases;
    2. :meth:`screen` — validate delivered bids, emit the rejection
       events, and run the online detector over the survivors;
    3. strikes accrue per offending agent per round; quarantine and
       expulsion transitions are emitted as they trip.
    """

    def __init__(
        self,
        instance: DRPInstance,
        policy: Optional[QuarantinePolicy] = None,
    ):
        self.validator = MessageValidator(instance)
        self.detector = ManipulationDetector()
        self.quarantine = QuarantineManager(policy or QuarantinePolicy())
        #: Consecutive no-commit rounds attributable to rejections; a
        #: safety valve against a validator/adversary livelock.
        self.rejected_stalls = 0

    @staticmethod
    def _emit_all(events: Sequence[ev.Event]) -> None:
        sink = ev.current()
        if sink.enabled:
            for event in events:
                sink.emit(event)

    @property
    def excluded(self) -> set[int]:
        """Agents currently barred from bidding."""
        return self.quarantine.quarantined | self.quarantine.expelled

    def filter_bidders(self, ordered: list[int], rnd: int) -> list[int]:
        """Process due releases, then drop excluded agents."""
        self.quarantine.releases_due(rnd)
        excluded = self.excluded
        if not excluded:
            return ordered
        return [a for a in ordered if a not in excluded]

    def screen(
        self, bids: list[BidMessage], state: ReplicationState,
        oracle: "np.ndarray | Any", rnd: int,
    ) -> tuple[list[BidMessage], bool]:
        """:meth:`screen_columns` over a message list: the accepted
        messages, in order, and ``offended``."""
        accepted, offended = self.screen_columns(
            BidColumns.from_messages(bids), state, oracle, rnd
        )
        return [b for b, ok in zip(bids, accepted.tolist()) if ok], offended

    def screen_columns(
        self, bids: BidColumns, state: ReplicationState,
        oracle: "np.ndarray | Any", rnd: int,
    ) -> tuple[np.ndarray, bool]:
        """Validate + detect over one round's delivered bids.

        ``oracle`` is forwarded to the detector (see
        :meth:`ManipulationDetector.inspect_columns`).  Returns
        ``(accepted, offended)``: the validator's accepted mask, and
        whether at least one bid was rejected or flagged this round (the
        simulator must not treat a quiet view as game termination then).
        """
        accepted, vevents = self.validator.screen_columns(bids, state, rnd)
        self._emit_all(vevents)
        if vevents:  # with no rejection every bid is accepted
            bids = bids.take(accepted.nonzero()[0])
        mevents = self.detector.inspect_columns(bids, oracle, rnd)
        self._emit_all(mevents)
        offenders = sorted(
            {e.agent for e in vevents if e.agent >= 0}
            | {e.agent for e in mevents}
        )
        for agent in offenders:
            self.quarantine.strike(agent, rnd)
        return accepted, bool(offenders)

    def summary_dict(self) -> dict[str, Any]:
        q = self.quarantine
        return {
            "policy": q.policy.to_dict(),
            "validations_rejected": self.validator.rejections,
            "manipulations_flagged": self.detector.flags,
            "agents_quarantined": sorted(q.ever_quarantined),
            "agents_expelled": sorted(q.expelled),
            "strikes": {str(a): s for a, s in sorted(q.strikes.items()) if s},
        }

"""Mechanism and serving audits: re-verify the paper's axioms from a log.

Tanaka et al. (PAPERS.md) make the point that *faithfulness* of a
mechanism implementation is itself an auditable property.  This module
turns AGT-RAM's axioms into exactly that: given nothing but a recorded
event log (:mod:`repro.obs.export`), it re-checks, round by round,
that

* the winner was the **argmax** of the round's bids (Figure 2 line 10),
* the payment was the **exact second price** — the best report excluding
  the winner's own, clamped at the zero reserve (Axiom 5); batched
  rounds are checked against the uniform clearing price (the best
  rejected report) instead,
* **capacity** was never violated: each allocated object fit the
  winner's recorded residual, residuals shrink consistently across
  rounds, every capacity rejection was justified, and no (server,
  object) pair was committed while already live in the run (a
  **double allocation**; only a declared reconcile-time revocation
  frees a pair).

The same auditors run **online**: every checker here is a push-fed
consumer (feed it one event at a time, read its report after) that
hands each violation to a hook the moment it finds it.
:class:`~repro.runtime.invariants.InvariantMonitor` feeds them the live
stream and turns each violation into an
:class:`~repro.obs.events.InvariantEvent`, so a run's live verdict and
the offline verdict on its log come from one piece of code.

**Faulty runs** are audited *modulo the fault log*: a
:class:`~repro.obs.events.TimeoutEvent` declares which agents' bids
were lost to the channel that round, and exactly those agents are
excluded from the argmax and second-price checks — the central body
can only be held to the bids that reached it.  The declaration is
itself checked: a timeout naming an agent that never bid is a
structure violation, and a *winner* whose bid the log claims was lost
is a winner violation.  Fault, election, checkpoint, and recovery
events are tallied in the report.

**Byzantine runs** are audited *modulo the rejection log* the same
way: a :class:`~repro.obs.events.ValidationEvent` declares a bid the
trust boundary rejected, and that agent is excluded from the round's
argmax/second-price verification (a rejected bid cannot win — if it
does, that's a winner violation).  Additionally, the audit
cross-references :class:`~repro.obs.events.QuarantineEvent` records
against second-price payments: a round whose paid price was *set* by
an agent the run later quarantined is reported as a **tainted
payment** — the post-hoc measure of how much payment distortion a
collusion or inflation campaign achieved before detection caught it.
Tainted payments are reported, not flagged as violations: the central
body priced correctly given the bids it could not yet know were
manipulated.

Any discrepancy — a corrupted log, a buggy reimplementation, a
non-truthful payment rule — surfaces as a :class:`AuditViolation`.
The serving audit (:func:`audit_serving_events`) checks a serving
campaign's tail for placement consistency, with
:class:`ServingViolation`\\ s.  ``python -m repro audit run.jsonl`` is
the CLI wrapper; it runs the serving checks too when the log holds a
serving campaign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.obs.events import (
    AdversaryEvent,
    BidEvent,
    CapacityReject,
    CheckpointEvent,
    ElectionEvent,
    Event,
    FailoverEvent,
    FaultEvent,
    HealEvent,
    HedgeEvent,
    ManipulationEvent,
    PartitionEvent,
    PaymentEvent,
    QuarantineEvent,
    ReauctionEvent,
    ReconcileEvent,
    RecoveryEvent,
    RequestEvent,
    RequestTimeout,
    RoundEnd,
    RoundStart,
    RunEnd,
    RunStart,
    ServeEnd,
    ServeStart,
    ShedEvent,
    TimeoutEvent,
    ValidationEvent,
    WinnerEvent,
    iter_bid_run,
)

__all__ = [
    "AuditViolation",
    "AuditReport",
    "TaintedPayment",
    "audit_events",
    "audit_stream",
    "audit_files",
    "audit_file",
    "ShardedAuditReport",
    "audit_sharded_stream",
    "audit_sharded_events",
    "audit_sharded_files",
    "audit_sharded_file",
    "ServingViolation",
    "ServingAuditReport",
    "audit_serving_events",
    "audit_serving_file",
    "audit_log",
]

#: Relative tolerance for payment/bid float comparisons.
REL_TOL = 1e-9
#: Absolute tolerance floor for values near zero.
ABS_TOL = 1e-9


@dataclass(frozen=True)
class AuditViolation:
    """One broken invariant, anchored to a run and round."""

    run: str
    round: int
    kind: str  # "winner" | "payment" | "capacity" | "structure"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.run} round {self.round}: {self.detail}"


@dataclass(frozen=True)
class TaintedPayment:
    """A correctly-priced payment whose price setter was later
    quarantined — the audit's measure of pre-detection damage."""

    run: str
    round: int
    winner: int
    amount: float
    #: The agent whose bid set the second price.
    setter: int
    #: The round at which that agent was (first) quarantined/expelled.
    quarantined_at: int

    def __str__(self) -> str:
        return (
            f"{self.run} round {self.round}: payment {self.amount} to agent "
            f"{self.winner} was priced by agent {self.setter}, quarantined "
            f"at round {self.quarantined_at}"
        )


@dataclass
class AuditReport:
    """Outcome of auditing one event log."""

    runs_audited: int = 0
    rounds_audited: int = 0
    bids_seen: int = 0
    payments_verified: int = 0
    faults_seen: int = 0
    timeouts_seen: int = 0
    elections_seen: int = 0
    checkpoints_seen: int = 0
    recoveries_seen: int = 0
    validations_seen: int = 0
    manipulations_seen: int = 0
    quarantines_seen: int = 0
    adversarial_bids_seen: int = 0
    tainted_payments: list[TaintedPayment] = field(default_factory=list)
    violations: list[AuditViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def tainted_payment_total(self) -> float:
        """Sum paid in rounds priced by a later-quarantined agent."""
        return float(sum(t.amount for t in self.tainted_payments))

    def summary(self) -> str:
        lines = [
            f"runs audited       {self.runs_audited}",
            f"rounds audited     {self.rounds_audited}",
            f"bids seen          {self.bids_seen}",
            f"payments verified  {self.payments_verified}",
        ]
        if self.faults_seen or self.timeouts_seen or self.recoveries_seen:
            lines.append(
                f"faults seen        {self.faults_seen} "
                f"(timeouts {self.timeouts_seen}, elections "
                f"{self.elections_seen}, checkpoints {self.checkpoints_seen}, "
                f"recoveries {self.recoveries_seen})"
            )
        if (
            self.validations_seen
            or self.manipulations_seen
            or self.quarantines_seen
            or self.adversarial_bids_seen
        ):
            lines.append(
                f"byzantine log      {self.adversarial_bids_seen} injected, "
                f"{self.validations_seen} rejected, "
                f"{self.manipulations_seen} flagged, "
                f"{self.quarantines_seen} quarantine action(s)"
            )
        if self.tainted_payments:
            lines.append(
                f"tainted payments   {len(self.tainted_payments)} round(s) "
                f"priced by a later-quarantined agent, "
                f"{self.tainted_payment_total:.6g} total"
            )
            lines.extend(f"  {t}" for t in self.tainted_payments)
        if self.ok:
            if self.timeouts_seen:
                lines.append(
                    "PASS  every round paid the true second price, picked "
                    "the argmax bid, and respected capacity — modulo the "
                    "declared fault log"
                )
                return "\n".join(lines)
            lines.append(
                "PASS  every round paid the true second price, picked the "
                "argmax bid, and respected capacity"
            )
        else:
            lines.append(f"FAIL  {len(self.violations)} violation(s):")
            lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _near_top(values: Any, top: float) -> Any:
    """``[_close(v, top) for v in values]`` as a mask, for a finite
    ``top > 0`` that no value exceeds (NaN aside) — a second price
    against the reports it was taken from.

    ``math.isclose`` holds ``v`` close to ``top`` when
    ``|top - v| <= max(REL_TOL * |top|, REL_TOL * |v|, ABS_TOL)`` and
    ``v`` is finite.  Here ``top - v >= 0``; for ``0 <= v <= top`` the
    rounded ``REL_TOL * v`` is at most ``REL_TOL * top`` (rounding is
    monotonic), and for ``v < 0`` the difference exceeds both ``|v|``
    and ``top``, so only ``ABS_TOL`` can hold it.  Either way the test
    is the one below, step for step; ``-inf`` and NaN fail it as they
    fail ``math.isclose``.  (``np.isclose`` is a different test: it
    adds the two tolerances, and weighs the relative one by its second
    argument alone.)
    """
    with np.errstate(over="ignore"):  # top - v overflows to inf: not close
        return top - values <= max(REL_TOL * top, ABS_TOL)


def _first_max(values: Any) -> float:
    """The largest of ``values``, the first met among equals (as
    ``max`` picks, so ``-0.0`` and ``0.0`` print as logged; a NaN, when
    there is one); ``-inf`` when there are none."""
    return float(values[values.argmax()]) if values.size else float("-inf")


def _member(agents: Any, among: Iterable[int]) -> Any:
    """Mask of the entries of ``agents`` in ``among`` (a handful of
    agents: one comparison each beats ``np.isin``'s set-up)."""
    mask = np.zeros(agents.shape, dtype=bool)
    for agent in among:
        mask |= agents == agent
    return mask


def _keep(violation: Any) -> None:
    """The default violation hook: the report's list is the only record."""


class _Handlers(dict[type, Optional[Callable[[Any], None]]]):
    """A consumer's event class -> handler table, called with one item
    to hand it to its handler.  A class met for the first time takes the
    handler of its nearest registered base, resolved through its MRO
    once and cached, so a subclass of an event kind is handled as that
    kind; a class with no registered base is ignored."""

    def __missing__(self, cls: type) -> Optional[Callable[[Any], None]]:
        handler = next(
            (h for h in map(self.get, cls.__mro__[1:]) if h is not None), None
        )
        self[cls] = handler
        return handler

    def __call__(self, item: Any) -> None:
        handler = self[type(item)]
        if handler is not None:
            handler(item)

    def consume(self, items: Iterable[Any]) -> None:
        """Hand each of ``items`` to its handler, as calling the table
        on each would (a bulk feed: one call per item fewer)."""
        for item in items:
            handler = self[type(item)]
            if handler is not None:
                handler(item)


@dataclass
class _Round:
    """Accumulated state of one in-flight round."""

    index: int
    #: The round's bids in arrival order, as ``(agents, objs, values)``
    #: column chunks: a packed run's columns as the reader yields them,
    #: and bids fed one at a time gathered into lists.  An agent's
    #: second bid in a round is flagged and never enters them.
    chunks: list[tuple[Any, Any, Any]] = field(default_factory=list)
    #: The agents in ``chunks``, built once a bid must be checked
    #: against the round's earlier bids.
    seen: Optional[set[int]] = None
    #: The list chunk bids fed one at a time go to (None: start one).
    tail: Optional[tuple[list[int], list[int], list[float]]] = None
    winners: list[WinnerEvent] = field(default_factory=list)
    payments: list[PaymentEvent] = field(default_factory=list)
    rejects: list[CapacityReject] = field(default_factory=list)
    #: Agents whose bids a TimeoutEvent declared lost; excluded from
    #: argmax/payment verification.
    missing: set[int] = field(default_factory=set)
    #: Agents whose bids a ValidationEvent declared rejected; likewise
    #: excluded (a rejected bid cannot win or set a price).
    rejected: set[int] = field(default_factory=set)

    def bidders(self) -> set[int]:
        """The agents that bid this round so far."""
        if self.seen is None:
            self.seen = set()
            for agents, _, _ in self.chunks:
                self.seen.update(agents if type(agents) is list else agents.tolist())
        return self.seen

    def add_bid(self, agent: int, obj: int, value: float) -> bool:
        """Take one bid; False, taking nothing, when ``agent`` has
        already bid this round."""
        seen = self.seen if self.seen is not None else self.bidders()
        if agent in seen:
            return False
        seen.add(agent)
        if self.tail is None:
            self.tail = ([], [], [])
            self.chunks.append(self.tail)
        agents, objs, values = self.tail
        agents.append(agent)
        objs.append(obj)
        values.append(value)
        return True

    def add_run(self, run: Any) -> bool:
        """Take a packed run of bid records whole; False, taking
        nothing, when one of its agents bids twice in it or has already
        bid this round."""
        agents = run["agent"]
        ordered = np.sort(agents)
        if (ordered[1:] == ordered[:-1]).any():
            return False
        if self.chunks:
            new = agents.tolist()
            seen = self.bidders()
            if not seen.isdisjoint(new):
                return False
            seen.update(new)
        self.chunks.append((agents, run["obj"], run["value"]))
        self.tail = None
        return True

    def columns(self) -> tuple[Any, Any, Any]:
        """The round's bids, one entry per bidding agent in bid order:
        agent and value arrays, and the objects (indexable)."""
        if len(self.chunks) == 1:
            agents, objs, values = self.chunks[0]
        elif self.chunks:
            agents, objs, values = map(np.concatenate, zip(*self.chunks))
        else:
            agents, objs, values = [], [], []
        return np.asarray(agents, np.int64), objs, np.asarray(values, np.float64)


class _Auditor:
    """Streaming verifier; feed events in order, read the report after.

    :attr:`feed` takes an event, or a packed run of bid records (an item
    of :func:`repro.obs.export.open_record_stream`).  Each violation
    goes to ``on_violation`` as soon as it is found.
    """

    def __init__(
        self, on_violation: Callable[[AuditViolation], None] = _keep
    ) -> None:
        self.report = AuditReport()
        self.on_violation = on_violation
        self._run_stack: list[str] = []
        self._round: Optional[_Round] = None
        #: Per-run, per-agent expected residual capacity after the last
        #: commit (cross-round consistency check).
        self._residuals: dict[int, float] = {}
        #: Per-run live (server, object) pairs, each with the winner that
        #: committed it (double-allocation check).
        self.live: dict[tuple[int, int], WinnerEvent] = {}
        #: Per-run second-price records awaiting quarantine resolution:
        #: (round, winner, amount, price-setter agents).
        self._priced: list[tuple[int, int, float, tuple[int, ...]]] = []
        #: Per-run quarantine/expel rounds per agent.
        self._quarantined_at: dict[int, list[int]] = {}
        count = self._count
        self.feed = _Handlers(
            {
                RunStart: self._run_start,
                RunEnd: self._run_end,
                RoundStart: self._round_start,
                BidEvent: self._bid,
                np.ndarray: self._bid_run,
                WinnerEvent: self._winner,
                PaymentEvent: self._payment,
                CapacityReject: self._capacity_reject,
                TimeoutEvent: self._timeout,
                ValidationEvent: self._validation,
                ManipulationEvent: partial(count, "manipulations_seen"),
                QuarantineEvent: self._quarantine,
                AdversaryEvent: partial(count, "adversarial_bids_seen"),
                FaultEvent: partial(count, "faults_seen"),
                ElectionEvent: partial(count, "elections_seen"),
                CheckpointEvent: partial(count, "checkpoints_seen"),
                RecoveryEvent: partial(count, "recoveries_seen"),
                RoundEnd: self._round_end,
            }
        )

    # -- helpers -----------------------------------------------------------

    @property
    def _run_label(self) -> str:
        return self._run_stack[-1] if self._run_stack else "<no run>"

    def _flag(self, round_index: int, kind: str, detail: str) -> None:
        violation = AuditViolation(
            run=self._run_label, round=round_index, kind=kind, detail=detail
        )
        self.report.violations.append(violation)
        self.on_violation(violation)

    def _finalize_run(self) -> None:
        """Resolve buffered second-price records against the quarantine
        log: a payment priced by a later-quarantined agent is tainted."""
        for rnd, winner, amount, setters in self._priced:
            for setter in setters:
                later = [
                    q for q in self._quarantined_at.get(setter, ()) if q >= rnd
                ]
                if later:
                    self.report.tainted_payments.append(
                        TaintedPayment(
                            run=self._run_label,
                            round=rnd,
                            winner=winner,
                            amount=amount,
                            setter=setter,
                            quarantined_at=min(later),
                        )
                    )
                    break  # one taint per payment is enough
        self._priced = []
        self._quarantined_at = {}

    def finish(self) -> None:
        """Close the log: an open round is flagged, and a log truncated
        before its RunEnd still gets its tainted-payment resolution over
        whatever quarantine records were seen."""
        if self._round is not None:
            self._flag(
                self._round.index, "structure", "log ends inside an open round"
            )
        self._finalize_run()

    # -- event handlers ----------------------------------------------------

    def _count(self, name: str, event: Event) -> None:
        setattr(self.report, name, getattr(self.report, name) + 1)

    def _run_start(self, event: RunStart) -> None:
        self._run_stack.append(event.algorithm)
        self._residuals = {}
        self.live.clear()
        self.report.runs_audited += 1

    def _run_end(self, event: RunEnd) -> None:
        self._finalize_run()
        if self._run_stack:
            self._run_stack.pop()
        self._residuals = {}
        self.live.clear()

    def _round_start(self, event: RoundStart) -> None:
        if self._round is not None:
            self._flag(
                self._round.index,
                "structure",
                f"round {event.round} started before round "
                f"{self._round.index} ended",
            )
        self._round = _Round(index=event.round)

    def _bid(self, event: BidEvent) -> None:
        rnd = self._round
        if rnd is None:
            self._flag(event.round, "structure", "bid outside any round")
        elif rnd.add_bid(event.agent, event.obj, event.value):
            self.report.bids_seen += 1
        else:
            self._flag(
                event.round,
                "structure",
                f"agent {event.agent} bid twice in one round",
            )

    def _bid_run(self, run: Any) -> None:
        """Take a packed run of bid records into the open round whole —
        or as one :class:`BidEvent` at a time when one of its bids would
        be flagged (no open round, or an agent bidding twice), so
        violations keep their per-bid kind, text and order."""
        rnd = self._round
        if rnd is not None and rnd.add_run(run):
            self.report.bids_seen += len(run)
            return
        for bid in iter_bid_run(run):
            self._bid(bid)

    def _winner(self, event: WinnerEvent) -> None:
        if self._round is None:
            self._flag(event.round, "structure", "winner outside any round")
        else:
            self._round.winners.append(event)

    def _payment(self, event: PaymentEvent) -> None:
        if self._round is None:
            self._flag(event.round, "structure", "payment outside any round")
        else:
            self._round.payments.append(event)

    def _capacity_reject(self, event: CapacityReject) -> None:
        if self._round is not None:
            self._round.rejects.append(event)

    def _timeout(self, event: TimeoutEvent) -> None:
        self.report.timeouts_seen += 1
        if self._round is None:
            self._flag(event.round, "structure", "timeout outside any round")
            return
        bidders = self._round.bidders()
        for agent in event.agents:
            if agent not in bidders:
                self._flag(
                    event.round,
                    "structure",
                    f"timeout declares agent {agent}'s bid lost, but "
                    f"that agent never bid this round",
                )
        self._round.missing.update(event.agents)

    def _validation(self, event: ValidationEvent) -> None:
        self.report.validations_seen += 1
        if self._round is not None and event.agent >= 0:
            self._round.rejected.add(event.agent)

    def _quarantine(self, event: QuarantineEvent) -> None:
        self.report.quarantines_seen += 1
        if event.action in ("quarantine", "expel"):
            self._quarantined_at.setdefault(event.agent, []).append(event.round)

    def _round_end(self, event: RoundEnd) -> None:
        if self._round is None:
            self._flag(event.round, "structure", "round_end without start")
            return
        self._verify_round(self._round, event)
        self._round = None
        self.report.rounds_audited += 1

    # -- the three axioms --------------------------------------------------

    def _verify_round(self, rnd: _Round, end: RoundEnd) -> None:
        """Check one closed round on its bid columns."""
        if end.committed != len(rnd.winners):
            self._flag(
                rnd.index,
                "structure",
                f"round committed {end.committed} replica(s) but logged "
                f"{len(rnd.winners)} winner event(s)",
            )
        agents, objs, values = rnd.columns()
        # Bids declared lost by a TimeoutEvent never reached the central
        # body, and bids a ValidationEvent declared rejected never
        # entered the decision, so the argmax/second-price invariants
        # hold over the *delivered, accepted* reports only.  An accepted
        # NaN report has no place in that order (every comparison with
        # it is false): it is flagged and left out.  (The argmax is a
        # NaN when there is one.)
        bidders, reports = agents, values
        best = _first_max(values)
        if best != best or rnd.missing or rnd.rejected:
            keep = values == values
            declared = _member(agents, rnd.missing | rnd.rejected)
            for agent in agents[~(keep | declared)].tolist():
                self._flag(
                    rnd.index,
                    "structure",
                    f"agent {agent}'s accepted bid is NaN — left out of the "
                    f"argmax and the price",
                )
            keep &= ~declared
            bidders, reports = agents[keep], values[keep]
            best = _first_max(reports)
        winner_agents = {w.agent for w in rnd.winners}
        if len(rnd.winners) > 1:
            # Batched rounds allow ties: every winner must still be at
            # least as good as the best report that did not win.
            bar = _first_max(reports[~_member(bidders, winner_agents)])
        else:
            bar = best

        for w in rnd.winners:
            if w.agent in rnd.missing:
                self._flag(
                    rnd.index,
                    "winner",
                    f"winner {w.agent}'s bid was declared lost by the "
                    f"round's timeout — a lost bid cannot win",
                )
                continue
            if w.agent in rnd.rejected:
                self._flag(
                    rnd.index,
                    "winner",
                    f"winner {w.agent}'s bid was rejected by the trust "
                    f"boundary — a rejected bid cannot win",
                )
                continue
            self._verify_winner(rnd, w, agents, objs, values, bar)
            self._verify_capacity(rnd, w)
        for p in rnd.payments:
            self._verify_payment(rnd, p, bidders, reports, winner_agents)
        for r in rnd.rejects:
            if r.reason == "capacity" and r.obj_size <= r.residual:
                self._flag(
                    rnd.index,
                    "capacity",
                    f"agent {r.agent} was capacity-rejected for object "
                    f"{r.obj} although size {r.obj_size} fits residual "
                    f"{r.residual}",
                )

    def _verify_winner(
        self,
        rnd: _Round,
        w: WinnerEvent,
        agents: Any,
        objs: Any,
        values: Any,
        bar: float,
    ) -> None:
        """``w`` against its own bid (``agents``/``objs``/``values``:
        every bid of the round) and against ``bar``: the round's best
        accepted report, or in a batched round the best one that did not
        win."""
        # The first matching bid (agents are unique in a round), or -1.
        at = int((agents == w.agent).argmax()) if agents.size else -1
        if at < 0 or agents[at] != w.agent:
            self._flag(
                rnd.index,
                "winner",
                f"winner {w.agent} never bid this round",
            )
            return
        bid_value, bid_obj = float(values[at]), int(objs[at])
        if not (_close(bid_value, w.value) and bid_obj == w.obj):
            self._flag(
                rnd.index,
                "winner",
                f"winner record (obj {w.obj}, value {w.value}) does not "
                f"match agent {w.agent}'s bid (obj {bid_obj}, value "
                f"{bid_value})",
            )
        if w.value < bar and not _close(w.value, bar):
            if len(rnd.winners) == 1:
                self._flag(
                    rnd.index,
                    "winner",
                    f"winner {w.agent} bid {w.value} but the round's best "
                    f"bid was {bar} — not the argmax",
                )
            else:
                self._flag(
                    rnd.index,
                    "winner",
                    f"batch winner {w.agent} bid {w.value}, below the best "
                    f"rejected bid {bar}",
                )

    def _verify_payment(
        self,
        rnd: _Round,
        p: PaymentEvent,
        bidders: Any,
        reports: Any,
        winner_agents: set[int],
    ) -> None:
        """``p`` against the price its rule derives from the round's
        accepted reports (``reports``, by agent ``bidders``)."""
        if p.agent not in winner_agents:
            self._flag(
                rnd.index,
                "payment",
                f"payment of {p.amount} to non-winner {p.agent}",
            )
            return
        if p.rule == "second_price":
            others = bidders != p.agent
            expected = _first_max(reports[others])
            expected = expected if math.isfinite(expected) and expected > 0 else 0.0
            if expected > 0:
                # Remember who set this price; resolved against the
                # quarantine log at run end (tainted-payment report).
                # Only the payer's own report may exceed the price, and
                # ``others`` masks it out.
                setters = bidders[others & _near_top(reports, expected)].tolist()
                self._priced.append(
                    (rnd.index, p.agent, p.amount, tuple(sorted(setters)))
                )
        elif p.rule == "uniform":
            rejected = reports[
                ~_member(bidders, winner_agents) & (reports > 0) & (reports < math.inf)
            ]
            expected = max(_first_max(rejected), 0.0)
        else:
            self._flag(
                rnd.index,
                "payment",
                f"rule {p.rule!r} is not a truthful second-price rule",
            )
            return
        if not _close(p.amount, expected):
            self._flag(
                rnd.index,
                "payment",
                f"agent {p.agent} was paid {p.amount} but the true "
                f"{p.rule} amount is {expected}",
            )
        else:
            self.report.payments_verified += 1

    def _verify_capacity(self, rnd: _Round, w: WinnerEvent) -> None:
        held = self.live.get((w.agent, w.obj))
        if held is None:
            self.live[w.agent, w.obj] = w
        else:
            self._flag(
                rnd.index,
                "capacity",
                f"double allocation: (server {w.agent}, object {w.obj}) "
                f"committed but already live since round {held.round}",
            )
        if w.obj_size > w.residual_before:
            self._flag(
                rnd.index,
                "capacity",
                f"object {w.obj} (size {w.obj_size}) exceeds agent "
                f"{w.agent}'s residual {w.residual_before}",
            )
            return
        known = self._residuals.get(w.agent)
        if known is not None and not _close(known, w.residual_before):
            self._flag(
                rnd.index,
                "capacity",
                f"agent {w.agent} claims residual {w.residual_before} but "
                f"{known} remained after its previous allocation",
            )
        self._residuals[w.agent] = w.residual_before - w.obj_size


def audit_stream(
    events: Iterable[Event],
    *,
    window: int = 0,
    on_window: Optional[Callable[[int, AuditReport], None]] = None,
) -> AuditReport:
    """Verify an event stream against the mechanism's axioms, one round
    at a time in bounded memory.

    The verifier is inherently streaming: per-round state is dropped at
    each ``RoundEnd``, so memory is bounded by the widest single round
    (plus the run's residual chain and live placement, one entry per
    server and per committed replica, and the violation and
    tainted-payment lists — empty on a clean log) no matter how many
    gigabytes the stream spans.  Feed it a lazy
    iterator (:func:`~repro.obs.export.open_event_stream`), not a
    materialized list, to actually realize that bound.  The stream may
    also carry :func:`~repro.obs.export.open_record_stream`'s packed
    runs of bid records in place of their bid events.

    ``window`` > 0 reports progress: after every ``window`` audited
    rounds, ``on_window(rounds_audited, report)`` fires with the
    running report, so a long audit can stream verdicts (the CLI's
    ``--window N --stream`` prints one line per window).  Windowing
    never changes the verdict — the same auditor sees the same events
    in the same order; the callback is a read-only checkpoint.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    auditor = _Auditor()
    report = auditor.report
    feed = auditor.feed
    if not window:
        feed.consume(events)
    else:
        next_mark = window
        for item in events:
            feed(item)
            if report.rounds_audited >= next_mark:
                if on_window is not None:
                    on_window(report.rounds_audited, report)
                next_mark += window
    auditor.finish()
    return report


def audit_events(events: Iterable[Event]) -> AuditReport:
    """Verify a recorded event stream against the mechanism's axioms."""
    return audit_stream(events)


def audit_files(
    paths: Sequence[str | Path],
    *,
    window: int = 0,
    on_window: Optional[Callable[[int, AuditReport], None]] = None,
) -> AuditReport:
    """Audit one logical event log spread over files, lazily.

    Each path may be a single JSONL or binary log, or the logical name
    of a rotated chunk set (``events.jsonl`` standing for
    ``events.part00000.jsonl`` …) — resolution and format sniffing via
    :func:`~repro.obs.export.event_log_chunks` /
    :func:`~repro.obs.export.open_record_stream`.  Files are decoded
    record-by-record and chained into one stream, so a multi-file,
    multi-gigabyte log audits in bounded memory with verdicts identical
    to a whole-log audit.  A binary log's runs of bid records reach the
    auditor as packed record arrays, with no event object per bid.
    """
    return audit_stream(_records(paths), window=window, on_window=on_window)


def _records(paths: Sequence[str | Path]) -> Iterator[Any]:
    """The records of one logical event log spread over files, the
    reader of every file audit: each path resolved to its chunks now
    (:func:`~repro.obs.export.event_log_chunks`), the chunks decoded
    lazily by :func:`~repro.obs.export.open_record_stream` (events, and
    a binary log's runs of bid records as packed record arrays)."""
    from repro.obs.export import event_log_chunks, open_record_stream

    resolved = [chunk for p in paths for chunk in event_log_chunks(p)]
    return (item for path in resolved for item in open_record_stream(path))


def audit_file(path: str | Path) -> AuditReport:
    """Load one event log (JSONL or binary, possibly chunked) and audit it."""
    return audit_files([path])


# -- sharded-central audit ----------------------------------------------------


@dataclass(unsafe_hash=True)
class _ShardCommit:
    """One committed regional allocation, as the cross-shard pass sees
    it (the payment is attached when the round's PaymentEvent lands)."""

    region: int
    server: int
    obj: int
    value: float
    size: int
    round: int
    payment: float = 0.0


@dataclass
class ShardedAuditReport:
    """Outcome of auditing one sharded-central event log.

    ``shards`` holds one flat :class:`AuditReport` per region: each
    shard's region-tagged rounds are demultiplexed into their own
    streaming :class:`_Auditor`, so every regional argmax, second price
    and residual chain is verified independently — with revoked
    capacity credited back from the declared
    :class:`~repro.obs.events.ReconcileEvent`\\ s, which is what the
    flat audit cannot do.

    The shards share one live ``(server, object)`` placement per run,
    so a commit of a pair already live in any shard is a double
    allocation in the committing shard's report.  The **cross-shard
    pass** re-derives the reconciliation from the log alone: it groups
    each partition window's commits by island (from the
    :class:`~repro.obs.events.PartitionEvent` assignment), recomputes
    the contested objects and the lowest-cost-winner resolution, and
    checks the heal-time
    :class:`ReconcileEvent` declared exactly that outcome — conflicts,
    kept/revoked pairs, refunded capacity and clawed-back payments, and
    frees the revoked pairs in the shared placement.  A heal without a
    reconcile, an undeclared divergence, or a revoked pair that is not
    live all surface as cross violations.

    ``nested`` is the flat :class:`AuditReport` of the log's untagged
    rounds (region −1): the flat runs a scenario log nests in its
    serving tail, one per drift re-auction, each between its own
    ``RunStart`` and ``RunEnd``.
    """

    shards: dict[int, AuditReport] = field(default_factory=dict)
    nested: AuditReport = field(default_factory=AuditReport)
    cross_violations: list[AuditViolation] = field(default_factory=list)
    partitions_seen: int = 0
    heals_seen: int = 0
    reconciles_seen: int = 0
    commits_seen: int = 0
    revocations_seen: int = 0
    #: Untagged infrastructure events seen outside any round.
    faults_seen: int = 0
    elections_seen: int = 0
    checkpoints_seen: int = 0
    recoveries_seen: int = 0
    validations_seen: int = 0
    manipulations_seen: int = 0
    quarantines_seen: int = 0
    adversarial_bids_seen: int = 0

    @property
    def ok(self) -> bool:
        return (
            not self.cross_violations
            and all(r.ok for r in self.shards.values())
            and self.nested.ok
        )

    @property
    def violations(self) -> list[AuditViolation]:
        out = list(self.cross_violations)
        for r in self.shards.values():
            out.extend(r.violations)
        out.extend(self.nested.violations)
        return out

    def summary(self) -> str:
        lines = [
            f"shards audited     {len(self.shards)}",
            f"rounds audited     "
            f"{sum(r.rounds_audited for r in self.shards.values())}",
            f"commits seen       {self.commits_seen}",
            f"payments verified  "
            f"{sum(r.payments_verified for r in self.shards.values())}",
            f"partitions         {self.partitions_seen} "
            f"(heals {self.heals_seen}, reconciles {self.reconciles_seen}, "
            f"revocations {self.revocations_seen})",
        ]
        for region in sorted(self.shards):
            r = self.shards[region]
            verdict = "ok" if r.ok else f"{len(r.violations)} violation(s)"
            lines.append(
                f"  shard {region}: {r.rounds_audited} round(s), "
                f"{r.payments_verified} payment(s) verified, {verdict}"
            )
        n = self.nested
        if n.runs_audited or n.rounds_audited or n.violations:
            verdict = "ok" if n.ok else f"{len(n.violations)} violation(s)"
            lines.append(
                f"nested flat runs   {n.runs_audited}: {n.rounds_audited} "
                f"round(s), {n.payments_verified} payment(s) verified, "
                f"{verdict}"
            )
        if self.ok:
            lines.append(
                "PASS  every shard paid its regional second price and "
                "picked its regional argmax, the global placement is "
                "conflict-free, and every split-brain divergence was "
                "declared and reconciled"
            )
        else:
            bad = self.violations
            lines.append(f"FAIL  {len(bad)} violation(s):")
            lines.extend(f"  {v}" for v in bad)
        return "\n".join(lines)


class _CrossShardAuditor:
    """The reconciliation re-derivation over the demuxed commit stream."""

    def __init__(
        self,
        report: ShardedAuditReport,
        shards: dict[int, _Auditor],
        on_violation: Callable[[AuditViolation], None] = _keep,
    ) -> None:
        self.report = report
        self.on_violation = on_violation
        #: The per-shard auditors, whose residual chains refunds credit.
        self.shards = shards
        #: Live global placement, (server, obj) -> the winner that
        #: committed it: every shard auditor's ``live`` map, so each
        #: checks its commits against all shards' (double allocation).
        self.placement: dict[tuple[int, int], WinnerEvent] = {}
        #: The active window's island assignment (None when healed).
        self.islands: Optional[tuple[int, ...]] = None
        self.window_commits: list[_ShardCommit] = []
        self.window_reconciled = False
        self.partition_round = -1

    def _flag(self, rnd: int, kind: str, detail: str) -> None:
        violation = AuditViolation(
            run="cross-shard", round=rnd, kind=kind, detail=detail
        )
        self.report.cross_violations.append(violation)
        self.on_violation(violation)

    def commit(self, c: _ShardCommit) -> None:
        self.report.commits_seen += 1
        if self.islands is not None:
            self.window_commits.append(c)

    def attach_payment(self, region: int, server: int, amount: float) -> None:
        """Bind a round's payment to its commit (payments follow their
        winner within the same regional round)."""
        for i in range(len(self.window_commits) - 1, -1, -1):
            c = self.window_commits[i]
            if c.region == region and c.server == server:
                self.window_commits[i] = replace(c, payment=amount)
                return

    def on_partition(self, e: PartitionEvent) -> None:
        self.report.partitions_seen += 1
        if self.islands is not None:
            self._flag(
                e.round, "structure",
                "partition declared while a previous window is still open",
            )
        self.islands = tuple(e.islands)
        self.window_commits = []
        self.window_reconciled = False
        self.partition_round = e.round

    def on_reconcile(self, e: ReconcileEvent) -> None:
        self.report.reconciles_seen += 1
        if self.islands is None:
            self._flag(
                e.round, "structure", "reconcile without an open partition"
            )
            return
        islands = self.islands
        # Independent re-derivation of the merge (mirrors the runner's
        # declared rule without importing it): an object committed by
        # >= 2 islands is contested; the highest-value commit survives,
        # ties to the lowest server id, then region, then round.
        by_obj: dict[int, list[_ShardCommit]] = {}
        for c in self.window_commits:
            by_obj.setdefault(c.obj, []).append(c)
        conflicts: list[int] = []
        kept: list[_ShardCommit] = []
        revoked: list[_ShardCommit] = []
        for obj in sorted(by_obj):
            group = by_obj[obj]
            committed_islands = {islands[c.region] for c in group}
            if len(committed_islands) < 2:
                continue
            conflicts.append(obj)
            winner = min(
                group, key=lambda c: (-c.value, c.server, c.region, c.round)
            )
            kept.append(winner)
            revoked.extend(c for c in group if c is not winner)
        order = lambda c: (c.obj, c.server)  # noqa: E731
        kept.sort(key=order)
        revoked.sort(key=order)

        if tuple(conflicts) != tuple(e.conflicts):
            self._flag(
                e.round, "structure",
                f"reconcile declares conflicts {list(e.conflicts)} but the "
                f"window's commits contest {conflicts}",
            )
        expected_kept = tuple((c.server, c.obj) for c in kept)
        if expected_kept != tuple(e.kept):
            self._flag(
                e.round, "winner",
                f"reconcile keeps {list(e.kept)} but the lowest-cost-winner "
                f"rule keeps {list(expected_kept)}",
            )
        expected_revoked = tuple((c.server, c.obj) for c in revoked)
        if expected_revoked != tuple(e.revoked):
            self._flag(
                e.round, "winner",
                f"reconcile revokes {list(e.revoked)} but the "
                f"lowest-cost-winner rule revokes {list(expected_revoked)}",
            )
        expected_cap = sum(c.size for c in revoked)
        if e.refunded_capacity != expected_cap:
            self._flag(
                e.round, "capacity",
                f"reconcile refunds {e.refunded_capacity} capacity unit(s) "
                f"but the revoked commits total {expected_cap}",
            )
        expected_pay = float(sum(c.payment for c in revoked))
        if not _close(e.refunded_payment, expected_pay):
            self._flag(
                e.round, "payment",
                f"reconcile claws back {e.refunded_payment} but the revoked "
                f"commits were paid {expected_pay}",
            )
        expected_reauction = tuple(sorted({c.obj for c in revoked}))
        if expected_reauction != tuple(e.reauctioned):
            self._flag(
                e.round, "structure",
                f"reconcile re-auctions {list(e.reauctioned)} but the "
                f"revoked objects are {list(expected_reauction)}",
            )
        # Apply the *declared* revocations to the global placement and
        # credit the capacity back into the owning shard's residual
        # chain (the per-shard auditors can then verify post-heal
        # rounds against refunded residuals).
        self.report.revocations_seen += len(e.revoked)
        for server, obj in e.revoked:
            w = self.placement.pop((server, obj), None)
            if w is None:
                self._flag(
                    e.round, "structure",
                    f"reconcile revokes (server {server}, object {obj}) "
                    "which is not a live allocation",
                )
                continue
            auditor = self.shards.get(w.region)
            if auditor is not None and server in auditor._residuals:
                auditor._residuals[server] += w.obj_size
        self.window_reconciled = True

    def on_heal(self, e: HealEvent) -> None:
        self.report.heals_seen += 1
        if self.islands is None:
            self._flag(e.round, "structure", "heal without an open partition")
            return
        if tuple(e.islands) != self.islands:
            self._flag(
                e.round, "structure",
                f"heal declares islands {list(e.islands)} but the open "
                f"partition split {list(self.islands)}",
            )
        if not self.window_reconciled:
            self._flag(
                e.round, "structure",
                "heal without a reconcile: the window's divergence was "
                "never declared",
            )
        if e.divergent != len(self.window_commits):
            self._flag(
                e.round, "structure",
                f"heal declares {e.divergent} divergent commit(s) but the "
                f"window logged {len(self.window_commits)}",
            )
        self.islands = None
        self.window_commits = []
        self.window_reconciled = False

    def finish(self) -> None:
        if self.islands is not None:
            self._flag(
                self.partition_round, "structure",
                "log ends inside an open partition window (no heal)",
            )


class _ShardedAuditor:
    """The demultiplexer behind :func:`audit_sharded_stream`.

    :attr:`feed` takes an event or a packed run of bid records.  Round
    events tagged with a region go to that shard's flat
    :class:`_Auditor` (each sees a synthetic run of its own region's
    rounds), and a run of bid records goes whole to the auditor of its
    ``region`` column (a run mixing regions goes bid by bid).  Untagged
    rounds (region −1) open in one flat auditor for nested runs.  Every
    other untagged event goes to whichever round is open, or is tallied
    globally when none is.  A run's first round decides whether it is
    the sharded run or a nested flat one: a flat run's ``RunStart`` and
    ``RunEnd`` go to the nested-run auditor, and the shard auditors
    finish their run at any other ``RunEnd`` — the sharded run's own.
    """

    def __init__(
        self, on_violation: Callable[[AuditViolation], None] = _keep
    ) -> None:
        self.report = ShardedAuditReport()
        self.on_violation = on_violation
        self.shards: dict[int, _Auditor] = {}
        self.nested = _Auditor(on_violation)
        self.report.nested = self.nested.report
        self.cross = _CrossShardAuditor(self.report, self.shards, on_violation)
        self._label = "Sharded-AGT-RAM"
        #: The auditor whose round is open.
        self._open: Optional[_Auditor] = None
        #: Per open run, innermost last: False once its first round
        #: shows it a nested flat run (None while it has no round yet),
        #: and the RunStart of an innermost run still without rounds.
        self._runs: list[Optional[bool]] = []
        self._starting: Optional[RunStart] = None
        #: The open shard round's winner, for payment attachment.
        self._winner: Optional[WinnerEvent] = None
        cross = self.cross
        tally = self._tally
        self.feed = _Handlers(
            {
                RunStart: self._run_start,
                RunEnd: self._run_end,
                PartitionEvent: cross.on_partition,
                ReconcileEvent: cross.on_reconcile,
                HealEvent: cross.on_heal,
                RoundStart: self._round_start,
                BidEvent: self._round_event,
                np.ndarray: self._bid_run,
                WinnerEvent: self._winner_event,
                PaymentEvent: self._payment_event,
                CapacityReject: self._round_event,
                RoundEnd: self._round_end,
                FaultEvent: partial(tally, "faults_seen"),
                ElectionEvent: partial(tally, "elections_seen"),
                CheckpointEvent: partial(tally, "checkpoints_seen"),
                RecoveryEvent: partial(tally, "recoveries_seen"),
                ValidationEvent: partial(tally, "validations_seen"),
                ManipulationEvent: partial(tally, "manipulations_seen"),
                QuarantineEvent: partial(tally, "quarantines_seen"),
                AdversaryEvent: partial(tally, "adversarial_bids_seen"),
                Event: self._untagged,
            }
        )

    def finish(self) -> ShardedAuditReport:
        self.cross.finish()
        for auditor in (*self.shards.values(), self.nested):
            auditor.finish()
        return self.report

    def _target(self, region: int) -> _Auditor:
        """The auditor of a round event tagged ``region``: its shard's,
        else (untagged) the open round's or the nested runs'."""
        if self._starting is not None:
            self._begin_run(self._starting, sharded=region >= 0)
        if region < 0:
            return self._open or self.nested
        auditor = self.shards.get(region)
        if auditor is None:
            auditor = self.shards[region] = _Auditor(self.on_violation)
            auditor.feed(RunStart(t=0.0, algorithm=f"{self._label}/shard{region}"))
            auditor.live = self.cross.placement
            self.report.shards[region] = auditor.report
        return auditor

    def _begin_run(self, start: RunStart, *, sharded: bool) -> None:
        self._starting = None
        self._runs[-1] = sharded
        if sharded:
            self._label = start.algorithm
        else:
            self.nested.feed(start)

    def _run_start(self, event: RunStart) -> None:
        self._runs.append(None)
        self._starting = event

    def _run_end(self, event: RunEnd) -> None:
        self._starting = None
        if self._runs and self._runs.pop() is False:
            self.nested.feed(event)
        else:
            for auditor in self.shards.values():
                auditor.feed(
                    RunEnd(
                        t=event.t,
                        algorithm=auditor._run_label,
                        otc=event.otc,
                        rounds=event.rounds,
                    )
                )

    def _round_start(self, event: RoundStart) -> None:
        auditor = self._target(event.region)
        # An untagged round opens among the nested runs, whatever round
        # is open.
        self._open = auditor if event.region >= 0 else self.nested
        self._open.feed(event)
        self._winner = None

    def _round_event(self, event: BidEvent | CapacityReject) -> None:
        self._target(event.region).feed(event)

    def _bid_run(self, run: Any) -> None:
        regions = run["region"]
        region = int(regions[0])
        if (regions == region).all():
            self._target(region).feed(run)
        else:
            for bid in iter_bid_run(run):
                self._round_event(bid)

    def _winner_event(self, event: WinnerEvent) -> None:
        self._target(event.region).feed(event)
        if event.region >= 0:
            self._winner = event
            self.cross.commit(
                _ShardCommit(
                    region=event.region,
                    server=event.agent,
                    obj=event.obj,
                    value=event.value,
                    size=event.obj_size,
                    round=event.round,
                )
            )

    def _payment_event(self, event: PaymentEvent) -> None:
        self._target(event.region).feed(event)
        winner = self._winner
        if event.region >= 0 and winner is not None and winner.agent == event.agent:
            self.cross.attach_payment(event.region, event.agent, event.amount)

    def _round_end(self, event: RoundEnd) -> None:
        self._target(event.region).feed(event)
        self._open = None
        self._winner = None

    def _untagged(self, event: Event) -> None:
        if self._open is not None:
            self._open.feed(event)

    def _tally(self, name: str, event: Event) -> None:
        if self._open is not None:
            self._open.feed(event)
        else:
            setattr(self.report, name, getattr(self.report, name) + 1)


def audit_sharded_stream(events: Iterable[Event]) -> ShardedAuditReport:
    """Audit a sharded-central event log, per shard and cross-shard.

    Region-tagged round events are demultiplexed into one streaming
    flat :class:`_Auditor` per shard, while the cross-shard pass follows
    partition / reconcile / heal declarations over the combined commit
    stream — see :class:`ShardedAuditReport`.  Untagged rounds — the
    flat runs a scenario's serving tail nests, one per drift re-auction
    — are audited flat, into :attr:`ShardedAuditReport.nested`.  Other
    untagged events (faults, elections, checkpoints, recoveries, the
    Byzantine layer) go to whichever round is open, or are tallied
    globally when none is.  The stream may carry
    :func:`~repro.obs.export.open_record_stream`'s packed runs of bid
    records in place of their bid events.
    """
    auditor = _ShardedAuditor()
    auditor.feed.consume(events)
    return auditor.finish()


def audit_sharded_events(events: Iterable[Event]) -> ShardedAuditReport:
    """Verify a recorded sharded-central stream per shard and cross-shard."""
    return audit_sharded_stream(events)


def audit_sharded_files(paths: Sequence[str | Path]) -> ShardedAuditReport:
    """Audit one logical sharded event log spread over files, lazily.

    Paths resolve as :func:`audit_files` resolves them, and a binary
    log's runs of bid records reach their shard's auditor as packed
    record arrays, with no event object per bid.
    """
    return audit_sharded_stream(_records(paths))


def audit_sharded_file(path: str | Path) -> ShardedAuditReport:
    """Load one event log (JSONL or binary, possibly chunked) and audit
    it as a sharded-central run."""
    return audit_sharded_files([path])


# -- serving audit -----------------------------------------------------------


@dataclass(frozen=True)
class ServingViolation:
    """One broken serving invariant, anchored to a campaign tick."""

    tick: int
    kind: str  # "placement" | "structure"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] tick {self.tick}: {self.detail}"


@dataclass
class ServingAuditReport:
    """Outcome of auditing one serving campaign's event log.

    The core check is **placement consistency**: every request the log
    claims was served must have been answered by a server that actually
    hosted the object at that logical time — a replica in the
    :class:`~repro.obs.events.ServeStart` snapshot as evolved by every
    committed :class:`~repro.obs.events.ReauctionEvent` delta, or the
    object's primary (primaries never drop their copy).  A router that
    silently reads from a stale or never-valid replica shows up here as
    a placement violation.
    """

    requests_audited: int = 0
    served_ok: int = 0
    failed: int = 0
    sheds_seen: int = 0
    hedges_seen: int = 0
    failovers_seen: int = 0
    timeouts_seen: int = 0
    reauctions_seen: int = 0
    violations: list[ServingViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"requests audited   {self.requests_audited}",
            f"served ok          {self.served_ok}",
            f"failed             {self.failed}",
            f"shed               {self.sheds_seen}",
            f"hedges             {self.hedges_seen}",
            f"failovers          {self.failovers_seen}",
            f"attempt timeouts   {self.timeouts_seen}",
            f"re-auctions        {self.reauctions_seen}",
        ]
        if self.ok:
            lines.append(
                "PASS  every served request was answered by a replica in "
                "the placement (or the primary) at that logical time"
            )
        else:
            lines.append(f"FAIL  {len(self.violations)} violation(s):")
            lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class _ServingAuditor:
    """Streaming serving verifier; feed events in order, read the report
    after.

    :attr:`feed` takes any item of a log and ignores what is not a
    serving event (mechanism events, packed runs of bid records).  Each
    violation goes to ``on_violation`` as soon as it is found.
    """

    def __init__(
        self, on_violation: Callable[[ServingViolation], None] = _keep
    ) -> None:
        self.report = ServingAuditReport()
        self.on_violation = on_violation
        #: Object -> primary server, from the ServeStart (None before).
        self._primaries: Optional[tuple[int, ...]] = None
        #: Every (server, object) copy at this logical time: the
        #: replicas as evolved by the re-auction deltas, and the
        #: primaries (which never drop their copy).
        self._copies: set[tuple[int, int]] = set()
        count = self._count
        self.feed = _Handlers(
            {
                ServeStart: self._serve_start,
                RequestEvent: self._request,
                ShedEvent: partial(count, "sheds_seen"),
                HedgeEvent: partial(count, "hedges_seen"),
                FailoverEvent: partial(count, "failovers_seen"),
                RequestTimeout: partial(count, "timeouts_seen"),
                ReauctionEvent: self._reauction,
                ServeEnd: self._serve_end,
            }
        )

    def _flag(self, tick: int, kind: str, detail: str) -> None:
        violation = ServingViolation(tick, kind, detail)
        self.report.violations.append(violation)
        self.on_violation(violation)

    def _count(self, name: str, event: Event) -> None:
        setattr(self.report, name, getattr(self.report, name) + 1)

    def _serve_start(self, e: ServeStart) -> None:
        if self._primaries is not None:
            self._flag(0, "structure", "second serve_start in one log")
        self._primaries = e.primaries
        self._copies = set(e.replicas)
        for k, p in enumerate(e.primaries):
            if (p, k) in self._copies:
                self._flag(
                    0,
                    "structure",
                    f"replica list duplicates primary copy ({p}, {k})",
                )
        self._copies.update((p, k) for k, p in enumerate(e.primaries))

    def _request(self, e: RequestEvent) -> None:
        report = self.report
        report.requests_audited += 1
        if self._primaries is None:
            self._flag(e.tick, "structure", "request before serve_start")
        elif e.outcome != "ok":
            report.failed += 1
        else:
            report.served_ok += 1
            if e.replica < 0:
                self._flag(
                    e.tick,
                    "placement",
                    f"request for object {e.obj} marked ok with no "
                    "serving replica",
                )
            elif (e.replica, e.obj) not in self._copies:
                self._flag(
                    e.tick,
                    "placement",
                    f"object {e.obj} served by server {e.replica}, "
                    "which holds no replica at this logical time",
                )

    def _reauction(self, e: ReauctionEvent) -> None:
        self.report.reauctions_seen += 1
        primaries = self._primaries
        if primaries is None:
            self._flag(e.tick, "structure", "reauction before serve_start")
            return
        copies = self._copies
        for pair in e.removed:
            server, obj = pair
            if 0 <= obj < len(primaries) and primaries[obj] == server:
                self._flag(
                    e.tick,
                    "placement",
                    f"reauction removed primary copy ({server}, {obj})",
                )
            elif pair not in copies:
                self._flag(
                    e.tick,
                    "structure",
                    f"reauction removed ({server}, {obj}) which was "
                    "not in the placement",
                )
            else:
                copies.discard(pair)
        for pair in e.added:
            server, obj = pair
            if pair in copies:
                self._flag(
                    e.tick,
                    "structure",
                    f"reauction added duplicate replica ({server}, {obj})",
                )
            else:
                copies.add(pair)

    def _serve_end(self, e: ServeEnd) -> None:
        if self._primaries is None:
            self._flag(0, "structure", "serve_end before serve_start")
            return
        report = self.report
        for what, logged, seen in (
            ("served request(s)", e.served, report.served_ok),
            ("failed request(s)", e.failed, report.failed),
            ("shed request(s)", e.shed, report.sheds_seen),
            ("hedge(s)", e.hedges, report.hedges_seen),
            ("failover(s)", e.failovers, report.failovers_seen),
            ("re-auction(s)", e.reauctions, report.reauctions_seen),
        ):
            if logged != seen:
                self._flag(
                    0,
                    "structure",
                    f"serve_end claims {logged} {what} but the log "
                    f"records {seen}",
                )


def audit_serving_events(events: Iterable[Any]) -> ServingAuditReport:
    """Verify a serving campaign's log for placement consistency.

    Mechanism events (including the nested re-auction runs' own
    bid/winner/payment stream) are ignored here — feed the same log to
    :func:`audit_events` for the axiom checks.
    """
    auditor = _ServingAuditor()
    auditor.feed.consume(events)
    return auditor.report


def audit_serving_file(path: str | Path) -> ServingAuditReport:
    """Load an event log (JSONL or binary, possibly chunked) and audit
    its serving campaign."""
    return audit_serving_events(_records([path]))


def audit_log(
    paths: Sequence[str | Path],
    *,
    sharded: bool = False,
    window: int = 0,
    on_window: Optional[Callable[[int, AuditReport], None]] = None,
) -> tuple[AuditReport | ShardedAuditReport, ServingAuditReport]:
    """Audit one logical event log in one pass, as ``python -m repro
    audit`` does: its mechanism audit (:func:`audit_files`, or
    :func:`audit_sharded_files` when ``sharded``; ``window`` and
    ``on_window`` apply to the flat one) and the serving audit of its
    serving tail, which a log that serves no request leaves empty."""
    serving = _ServingAuditor()

    def teed() -> Iterator[Any]:
        for item in _records(paths):
            serving.feed(item)
            yield item

    if sharded:
        mechanism: AuditReport | ShardedAuditReport = audit_sharded_stream(teed())
    else:
        mechanism = audit_stream(teed(), window=window, on_window=on_window)
    return mechanism, serving.report

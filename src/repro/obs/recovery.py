"""Recovery accounting: per-incident MTTR and degradation budgets.

Derives, from an event log alone, how long every failure lasted and how
much of the run was spent degraded — the "repair" half of the
resilience story the fault/adversary/partition planes inject.  An
**incident** is an interval on the protocol-round clock opened by a
failure event and closed by its matching recovery event:

===================  ============================  =========================
kind                 opened by                     closed by
===================  ============================  =========================
``central_crash``    FaultEvent(central_crash)     RecoveryEvent(central)
``agent_crash``      FaultEvent(agent_crash)       RecoveryEvent(agent), same
                                                   agent
``partition``        PartitionEvent                HealEvent
``quarantine``       QuarantineEvent(quarantine)   QuarantineEvent(release),
                                                   same agent
``expulsion``        QuarantineEvent(expel)        never (permanent)
===================  ============================  =========================

**TTR** (time to repair) of a closed incident is
``close_round - open_round + 1`` rounds — an incident opened and closed
inside one round still degraded that round.  **MTTR** is the mean TTR
over closed incidents; incidents still open at run end are reported
separately (``unrecovered``) and their TTR extends to the final round.
A **degraded round** is any round covered by at least one
*infrastructure* incident — crashes and partitions.  Quarantines and
expulsions are excluded from the degradation budget (they are the
defence working as intended, not an outage being repaired; an expelled
agent is a permanent capacity loss) though both still appear as
incidents with their own MTTR.  The **degraded fraction** divides by
the run's total protocol rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.obs.events import (
    Event,
    FaultEvent,
    HealEvent,
    PartitionEvent,
    QuarantineEvent,
    RecoveryEvent,
    RunEnd,
)

__all__ = ["Incident", "RecoveryReport", "recovery_accounting"]


@dataclass(frozen=True)
class Incident:
    """One failure interval on the protocol-round clock."""

    kind: str
    #: Affected agent (or -1 for the central body / whole-system kinds).
    agent: int
    open_round: int
    #: Closing round, or -1 while the incident is still open.
    close_round: int = -1

    @property
    def closed(self) -> bool:
        return self.close_round >= 0

    def ttr(self, last_round: int) -> int:
        """Rounds to repair; open incidents run to ``last_round``."""
        end = self.close_round if self.closed else last_round
        return max(1, end - self.open_round + 1)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "agent": self.agent,
            "open_round": self.open_round,
            "close_round": self.close_round,
        }


@dataclass
class RecoveryReport:
    """The event log's repair story, for the resilience gates."""

    incidents: list[Incident] = field(default_factory=list)
    #: Agents permanently expelled by the quarantine policy.
    expelled: list[int] = field(default_factory=list)
    total_rounds: int = 0
    degraded_rounds: int = 0

    @property
    def closed(self) -> list[Incident]:
        return [i for i in self.incidents if i.closed]

    @property
    def unrecovered(self) -> list[Incident]:
        return [i for i in self.incidents if not i.closed]

    @property
    def mttr(self) -> float:
        """Mean rounds-to-repair over closed incidents (0.0 if none)."""
        closed = self.closed
        if not closed:
            return 0.0
        last = max(1, self.total_rounds) - 1
        return sum(i.ttr(last) for i in closed) / len(closed)

    @property
    def degraded_fraction(self) -> float:
        if self.total_rounds <= 0:
            return 0.0
        return self.degraded_rounds / self.total_rounds

    def mttr_by_kind(self) -> dict[str, float]:
        last = max(1, self.total_rounds) - 1
        by_kind: dict[str, list[int]] = {}
        for i in self.closed:
            by_kind.setdefault(i.kind, []).append(i.ttr(last))
        return {
            kind: sum(ttrs) / len(ttrs)
            for kind, ttrs in sorted(by_kind.items())
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "incidents": [i.to_dict() for i in self.incidents],
            "n_incidents": len(self.incidents),
            "n_unrecovered": len(self.unrecovered),
            "expelled": list(self.expelled),
            "total_rounds": self.total_rounds,
            "degraded_rounds": self.degraded_rounds,
            "degraded_fraction": self.degraded_fraction,
            "mttr": self.mttr,
            "mttr_by_kind": self.mttr_by_kind(),
        }


def recovery_accounting(
    events: Iterable[Event], *, total_rounds: Optional[int] = None
) -> RecoveryReport:
    """Fold an event log into its :class:`RecoveryReport`.

    ``total_rounds`` overrides the round horizon (defaults to the last
    mechanism :class:`~repro.obs.events.RunEnd`'s round count, falling
    back to the highest round any incident touches).  Regional central
    crashes (the sharded runtime tags them with ``detail="region r"``)
    are matched to the next central recovery; agent crashes match on
    the agent id.  ``events`` may be a
    :class:`~repro.obs.events.ColumnarSink`'s raw items: its round
    blocks and bid runs hold no kind folded here.
    """
    report = RecoveryReport()
    open_central: list[int] = []  # FIFO of open central-crash rounds
    open_agents: dict[int, int] = {}
    open_partition: Optional[int] = None
    open_quarantine: dict[int, int] = {}
    run_end_rounds = 0

    def close(kind: str, agent: int, opened: int, closed_at: int) -> None:
        report.incidents.append(
            Incident(kind=kind, agent=agent, open_round=opened,
                     close_round=closed_at)
        )

    for e in events:
        if isinstance(e, FaultEvent):
            if e.kind == "central_crash":
                open_central.append(e.round)
            elif e.kind == "agent_crash" and e.agent not in open_agents:
                open_agents[e.agent] = e.round
        elif isinstance(e, RecoveryEvent):
            if e.kind == "central" and open_central:
                close("central_crash", -1, open_central.pop(0), e.round)
            elif e.kind == "agent" and e.agent in open_agents:
                close("agent_crash", e.agent,
                      open_agents.pop(e.agent), e.round)
        elif isinstance(e, PartitionEvent):
            if open_partition is None:
                open_partition = e.round
        elif isinstance(e, HealEvent):
            if open_partition is not None:
                close("partition", -1, open_partition, e.round)
                open_partition = None
        elif isinstance(e, QuarantineEvent):
            if e.action == "quarantine":
                open_quarantine.setdefault(e.agent, e.round)
            elif e.action == "release" and e.agent in open_quarantine:
                close("quarantine", e.agent,
                      open_quarantine.pop(e.agent), e.round)
            elif e.action == "expel":
                opened = open_quarantine.pop(e.agent, e.round)
                report.incidents.append(
                    Incident(kind="expulsion", agent=e.agent,
                             open_round=opened)
                )
                report.expelled.append(e.agent)
        elif isinstance(e, RunEnd):
            run_end_rounds = max(run_end_rounds, e.rounds)

    # Still-open intervals become unrecovered incidents.
    for opened in open_central:
        report.incidents.append(
            Incident(kind="central_crash", agent=-1, open_round=opened)
        )
    for agent, opened in sorted(open_agents.items()):
        report.incidents.append(
            Incident(kind="agent_crash", agent=agent, open_round=opened)
        )
    if open_partition is not None:
        report.incidents.append(
            Incident(kind="partition", agent=-1, open_round=open_partition)
        )
    for agent, opened in sorted(open_quarantine.items()):
        report.incidents.append(
            Incident(kind="quarantine", agent=agent, open_round=opened)
        )

    span = max(
        (i.close_round + 1 for i in report.incidents if i.closed),
        default=0,
    )
    span = max(
        span, max((i.open_round + 1 for i in report.incidents), default=0)
    )
    report.total_rounds = (
        int(total_rounds) if total_rounds is not None
        else max(run_end_rounds, span)
    )
    last = report.total_rounds - 1
    degraded: set[int] = set()
    for i in report.incidents:
        if i.kind in ("expulsion", "quarantine"):
            continue
        end = i.close_round if i.closed else max(i.open_round, last)
        degraded.update(range(i.open_round, end + 1))
    report.degraded_rounds = len(
        {r for r in degraded if 0 <= r < max(1, report.total_rounds)}
    )
    return report

"""The central decision body.

The paper's scalability argument rests on how little this component
does: it receives one bid per active agent, takes the maximum, computes
the second-best payment, and answers with a single binary decision —
``(0) not to replicate or (1) to replicate``.  It holds no cost matrix,
no workload, no replica map beyond what the protocol itself carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.core.payments import PAYMENT_RULES
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.runtime.messages import BidMessage


class Decision(IntEnum):
    """The central body's only vocabulary."""

    DO_NOT_REPLICATE = 0
    REPLICATE = 1


@dataclass(unsafe_hash=True)
class RoundOutcome:
    """What the central body announces after one round of bids.

    ``rejected`` lists agents whose bids were discarded as protocol
    violations (unknown sender id, equivocation) — the Byzantine layer
    and the simulator use it to distinguish "quiet round, game over"
    from "every bid this round was rejected, keep playing".
    """

    decision: Decision
    winner: int = -1
    obj: int = -1
    payment: float = 0.0
    rejected: tuple[int, ...] = ()


class CentralBody:
    """Stateless round arbiter."""

    def __init__(self, payment_rule: str = "second_price"):
        if payment_rule not in PAYMENT_RULES:
            raise ConfigurationError(
                f"unknown payment rule {payment_rule!r}; expected one of "
                f"{sorted(PAYMENT_RULES)}"
            )
        self._pay = PAYMENT_RULES[payment_rule]
        self.payment_rule = payment_rule

    def decide(
        self, bids: list[BidMessage], n_agents: int, *, rnd: int = -1
    ) -> RoundOutcome:
        """Pick the globally dominant bid and price it.

        **Tie-breaking is deterministic: on equal top bids the lowest
        agent id wins** (``np.argmax`` returns the first maximum).  The
        rule matters under quorum degradation, where lost bids make ties
        between the survivors more likely; a fixed rule keeps every
        replay of the same bid set bit-identical.

        **Duplicate tolerance**: lossy links retransmit, so the same bid
        may arrive more than once.  A copy that repeats an already-seen
        ``(sender, seq)`` pair — or carries identical content under a
        different sequence number — is discarded idempotently.

        **Protocol violations reject, never crash.**  A bid from an
        out-of-range agent id is dropped; two bids from one agent with
        *conflicting* content void **all** of that agent's copies for
        the round (the central cannot know which payload was meant, and
        honoring either would reward equivocation).  Each rejection is
        logged as a typed :class:`~repro.obs.events.ValidationEvent`
        (when a sink is active) and listed in
        :attr:`RoundOutcome.rejected`; the round proceeds over the
        surviving bids.  ``rnd`` tags those events with the round index.
        """
        sink = ev.current()

        def reject(bid: BidMessage, kind: str, detail: str) -> None:
            if sink.enabled:
                sink.emit(
                    ev.ValidationEvent(
                        t=ev.now(), round=rnd, agent=bid.sender, kind=kind,
                        obj=bid.obj, value=bid.value, detail=detail,
                    )
                )

        seen: dict[int, tuple[int, float]] = {}
        rejected: list[int] = []
        equivocators: set[int] = set()
        values = np.full(n_agents, -np.inf)
        objs = np.full(n_agents, -1, dtype=np.int64)
        for bid in bids:
            if not (0 <= bid.sender < n_agents):
                reject(bid, "unknown_sender",
                       f"bid from unknown agent {bid.sender}")
                rejected.append(bid.sender)
                continue
            if bid.sender in equivocators:
                continue
            content = (bid.obj, bid.value)
            if bid.sender in seen:
                if seen[bid.sender] == content:
                    continue  # retransmit / network duplicate
                reject(
                    bid, "equivocation",
                    f"agent {bid.sender} sent two bids with conflicting "
                    f"content in one round; all its copies discarded",
                )
                rejected.append(bid.sender)
                equivocators.add(bid.sender)
                del seen[bid.sender]
                values[bid.sender] = -np.inf
                objs[bid.sender] = -1
                continue
            seen[bid.sender] = content
            values[bid.sender] = bid.value
            objs[bid.sender] = bid.obj

        rejected_t = tuple(rejected)
        if not seen:
            return RoundOutcome(
                decision=Decision.DO_NOT_REPLICATE, rejected=rejected_t
            )
        return self.clear(values, objs, rejected_t)

    def clear(
        self,
        values: np.ndarray,
        objs: np.ndarray,
        rejected: tuple[int, ...] = (),
    ) -> RoundOutcome:
        """Decide one round from its report vectors.

        ``values[i]`` is agent ``i``'s report (``-inf`` when it sent
        none) and ``objs[i]`` the object it bid for.  The first-index
        argmax wins when its report is finite and positive, and pays
        what the payment rule charges; otherwise the answer is (0) do
        not replicate.  :meth:`decide` calls this once its screening
        has settled the surviving bids; a caller that already holds
        unscreened reports as arrays calls it directly.
        """
        winner = int(np.argmax(values))
        best = float(values[winner])
        if not np.isfinite(best) or best <= 0.0:
            return RoundOutcome(
                decision=Decision.DO_NOT_REPLICATE, rejected=rejected
            )
        return RoundOutcome(
            decision=Decision.REPLICATE,
            winner=winner,
            obj=int(objs[winner]),
            payment=self._pay(values, winner),
            rejected=rejected,
        )

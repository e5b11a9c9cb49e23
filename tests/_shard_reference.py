"""The per-bid regional round and trust boundary, kept as the reference
for the sharded central's array round.

``ShardedAGTRam._clear_region`` clears a region on ``(agent, obj, value,
seq)`` columns: masks for liveness and stragglers, column screening, and
:meth:`CentralBody.clear`.  The functions below are the round it
replaced — one Python step per agent and per bid, ``BidMessage`` objects
screened one by one, :meth:`CentralBody.decide` and a survivors dict —
unchanged except that they read the round's crash and straggler masks
instead of asking the schedule once per agent.  :func:`reference_screen`
and its two halves are the per-bid validator and detector the column
checks replaced.

:func:`reference_round` swaps all of it in (the flat simulator's
``TrustBoundary.screen`` calls included), so a test can run one scenario
both ways and require equal event streams, message logs, placements
and payments.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Iterator, Optional
from unittest import mock

import numpy as np

from repro.core.agents import Bid
from repro.drp.benefit import NEG_INF
from repro.obs import events as ev
from repro.runtime import shard
from repro.runtime.adversary import TrustBoundary
from repro.runtime.central import Decision
from repro.runtime.messages import (
    AllocateMessage,
    BidMessage,
    ElectionMessage,
    PaymentMessage,
    StateSyncMessage,
)
from repro.runtime.shard import ShardAllocation, ShardedAGTRam, central_id


class ReferenceView:
    """The round-start oracle with a scalar ``value_at``: the engine's
    own cell, or — for an object committed earlier this round — the
    cell priced on its saved pre-commit NN column."""

    def __init__(self, engine: Any, n_regions: Optional[int] = None) -> None:
        self.engine = engine
        self.state = engine.state
        self.cols: dict[int, np.ndarray] = {}

    def keep(self, k: int) -> None:
        if k not in self.cols:
            self.cols[k] = self.state.nn_dist[:, k].copy()

    def value_at(self, server: int, k: int) -> float:
        col = self.cols.get(k)
        if col is None:
            return self.engine.value_at(server, k)
        state = self.state
        if state.x[server, k] or (
            state.instance.sizes[k] > state.residual[server]
        ):
            return float(NEG_INF)
        return float(
            self.engine.rstat[server, k] * col[server]
            - self.engine.wterm[server, k]
        )


def reference_validate(
    validator: Any, bids: list[BidMessage], state: Any, rnd: int
) -> tuple[list[BidMessage], list[ev.ValidationEvent]]:
    """``MessageValidator.screen``, one bid at a time."""
    n, n_objects = validator.instance.n_servers, validator.instance.n_objects
    events: list[ev.ValidationEvent] = []
    rejected: set[int] = set()
    seen: dict[int, tuple[int, float]] = {}

    def reject(bid: BidMessage, kind: str, detail: str) -> None:
        validator.rejections += 1
        events.append(
            ev.ValidationEvent(
                t=ev.now(), round=rnd, agent=bid.sender, kind=kind,
                obj=bid.obj, value=bid.value, detail=detail,
            )
        )

    for bid in bids:
        if not (0 <= bid.sender < n):
            reject(bid, "unknown_sender", f"sender {bid.sender} out of range")
            continue
        if bid.sender in rejected:
            continue
        if not (0 <= bid.obj < n_objects):
            reject(bid, "schema", f"object id {bid.obj} out of range")
            rejected.add(bid.sender)
            continue
        if not math.isfinite(bid.value):
            reject(bid, "schema", f"non-finite value {bid.value}")
            rejected.add(bid.sender)
            continue
        if not (0 <= bid.seq <= validator.max_seq):
            reject(bid, "schema", f"sequence number {bid.seq} out of range")
            rejected.add(bid.sender)
            continue
        content = (bid.obj, bid.value)
        prior = seen.get(bid.sender)
        if prior is not None and prior != content:
            reject(bid, "equivocation", f"conflicts with earlier payload {prior}")
            rejected.add(bid.sender)
            continue
        if prior is None:
            if state.x[bid.sender, bid.obj]:
                reject(bid, "feasibility",
                       f"sender already hosts object {bid.obj}")
                rejected.add(bid.sender)
                continue
            if validator.instance.sizes[bid.obj] > state.residual[bid.sender]:
                reject(
                    bid, "overclaim",
                    f"object {bid.obj} (size "
                    f"{int(validator.instance.sizes[bid.obj])}) exceeds "
                    f"residual {int(state.residual[bid.sender])}",
                )
                rejected.add(bid.sender)
                continue
        seen[bid.sender] = content

    accepted = [b for b in bids if 0 <= b.sender < n and b.sender not in rejected]
    return accepted, events


def reference_inspect(
    detector: Any, bids: list[BidMessage], oracle: Any, rnd: int
) -> list[ev.ManipulationEvent]:
    """``ManipulationDetector.inspect``, one bid at a time."""
    cell = (
        (lambda i, k: float(oracle[i, k]))
        if isinstance(oracle, np.ndarray)
        else oracle.value_at
    )
    events: list[ev.ManipulationEvent] = []
    checked: set[int] = set()
    for bid in bids:
        if bid.sender in checked:
            continue
        checked.add(bid.sender)
        true_value = float(cell(bid.sender, bid.obj))
        if not math.isfinite(true_value):
            kind, mismatch = "infeasible_value", True
        else:
            mismatch = not math.isclose(
                bid.value, true_value, rel_tol=detector.rel_tol,
                abs_tol=detector.rel_tol,
            )
            kind = "misreport"
        if mismatch:
            detector.flags += 1
            events.append(
                ev.ManipulationEvent(
                    t=ev.now(), round=rnd, agent=bid.sender, kind=kind,
                    obj=bid.obj, reported=bid.value, recomputed=true_value,
                )
            )
    return events


def reference_screen(
    boundary: TrustBoundary, bids: list[BidMessage], state: Any,
    oracle: Any, rnd: int,
) -> tuple[list[BidMessage], bool]:
    """``TrustBoundary.screen`` over the per-bid validator and detector."""
    accepted, vevents = reference_validate(boundary.validator, bids, state, rnd)
    boundary._emit_all(vevents)
    mevents = reference_inspect(boundary.detector, accepted, oracle, rnd)
    boundary._emit_all(mevents)
    offenders = sorted(
        {e.agent for e in vevents if e.agent >= 0} | {e.agent for e in mevents}
    )
    for agent in offenders:
        boundary.quarantine.strike(agent, rnd)
    return accepted, bool(offenders)


def reference_clear_region(
    self: ShardedAGTRam,
    pround: int,
    r: int,
    region_rows: np.ndarray,
    island: Any,
    vals: np.ndarray,
    objs: np.ndarray,
    view: Optional[ReferenceView],
    instance: Any,
    down: np.ndarray,
    late: np.ndarray,
    store: Any,
    injector: Any,
    boundary: Optional[TrustBoundary],
    central: Any,
    log: Any,
    sink: Any,
    eventing: bool,
    counters: dict[str, int],
) -> tuple[Optional[ShardAllocation], bool]:
    """Region ``r``'s round, bid by bid."""
    state = island.state
    rcid = central_id(r)
    rows = region_rows.tolist()
    live = [a for a in rows if not down[a]]
    if boundary is not None:
        live = boundary.filter_bidders(live, pround)
    if injector is None or injector.dormant(
        pround,
        boundary.quarantine.expelled if boundary is not None else frozenset(),
    ):
        best = max(
            (float(vals[a]) for a in live if np.isfinite(vals[a])),
            default=float("-inf"),
        )
        if best <= 0.0:
            return None, False
    arrived: list[int] = []
    for a in live:
        if not np.isfinite(vals[a]):
            continue
        if late[a]:
            log.record(
                BidMessage(
                    sender=a, receiver=rcid, obj=int(objs[a]),
                    value=float(vals[a]),
                )
            )
            if eventing:
                sink.emit(
                    ev.FaultEvent(
                        t=ev.now(), round=pround, kind="straggler",
                        agent=a, target="bid", detail=f"region {r}",
                    )
                )
            continue
        arrived.append(a)
    if not arrived:
        return None, True

    honest = {
        a: Bid(agent=a, obj=int(objs[a]), value=float(vals[a]))
        for a in arrived
    }
    if injector is not None:
        sends = injector.corrupt_round(pround, honest, state, instance)
    else:
        sends = {a: [(b.obj, b.value)] for a, b in honest.items()}
    msgs: list[BidMessage] = []
    for a in arrived:
        for si, (obj, value) in enumerate(sends[a]):
            msg = BidMessage(sender=a, receiver=rcid, obj=obj, value=value, seq=si)
            log.record(msg)
            msgs.append(msg)
    if boundary is not None:
        msgs, _ = boundary.screen(msgs, state, view, pround)
    outcome = central.decide(msgs, instance.n_servers, rnd=pround)
    if outcome.decision is Decision.DO_NOT_REPLICATE:
        return None, True
    rejected = set(outcome.rejected)
    survivors: dict[int, tuple[int, float]] = {}
    for msg in msgs:
        if msg.sender in rejected or msg.sender in survivors:
            continue
        survivors[msg.sender] = (msg.obj, msg.value)

    winner, obj = outcome.winner, outcome.obj
    if eventing:
        sink.emit(ev.RoundStart(t=ev.now(), round=pround, region=r))
        for a, (bobj, bval) in survivors.items():
            sink.emit(
                ev.BidEvent(
                    t=ev.now(), round=pround, agent=a, obj=bobj,
                    value=bval, region=r,
                )
            )
    if not state.can_host(winner, obj):
        if eventing:
            reason = "duplicate" if state.x[winner, obj] else "capacity"
            sink.emit(
                ev.CapacityReject(
                    t=ev.now(), round=pround, agent=winner, obj=obj,
                    obj_size=int(instance.sizes[obj]),
                    residual=int(state.residual[winner]),
                    reason=reason, region=r,
                )
            )
            sink.emit(
                ev.RoundEnd(
                    t=ev.now(), round=pround, committed=0,
                    otc=state.tracked_otc(), region=r,
                )
            )
        return None, True
    if eventing:
        sink.emit(
            ev.WinnerEvent(
                t=ev.now(), round=pround, agent=winner, obj=obj,
                value=survivors[winner][1],
                obj_size=int(instance.sizes[obj]),
                residual_before=int(state.residual[winner]),
                region=r,
            )
        )
    if view is not None:
        view.keep(obj)
    state.add_replica(winner, obj)
    if store.commit(winner, obj, pround):
        counters["checkpoints"] += 1
        if eventing:
            sink.emit(
                ev.CheckpointEvent(
                    t=ev.now(), round=pround,
                    allocations=len(store.allocations),
                )
            )
    log.record_fanout(
        lambda a: AllocateMessage(sender=rcid, receiver=a, winner=winner, obj=obj),
        rows,
    )
    log.record(PaymentMessage(sender=rcid, receiver=winner, amount=outcome.payment))
    if eventing:
        sink.emit(
            ev.PaymentEvent(
                t=ev.now(), round=pround, agent=winner,
                amount=outcome.payment, region=r,
            )
        )
        sink.emit(
            ev.RoundEnd(
                t=ev.now(), round=pround, committed=1,
                otc=state.tracked_otc(), region=r,
            )
        )
    return ShardAllocation(
        region=r, server=winner, obj=obj,
        value=float(survivors[winner][1]),
        payment=float(outcome.payment), round=pround,
    ), True


def reference_regional_crash(
    pround: int,
    r: int,
    region_rows: np.ndarray,
    down: np.ndarray,
    store: Any,
    island: Any,
    log: Any,
    sink: Any,
    eventing: bool,
    counters: dict[str, int],
) -> None:
    """Region ``r``'s central crash, agent by agent."""
    counters["crashes_injected"] += 1
    if eventing:
        sink.emit(
            ev.FaultEvent(
                t=ev.now(), round=pround, kind="central_crash",
                agent=-1, detail=f"region {r}",
            )
        )
    live = [a for a in region_rows.tolist() if not down[a]]
    if not live:
        return
    stand_in = min(live)
    for a in live:
        log.record_fanout(
            lambda b, a=a: ElectionMessage(sender=a, receiver=b, candidate=stand_in),
            [b for b in live if b != a],
        )
    counters["elections"] += 1
    if eventing:
        sink.emit(
            ev.ElectionEvent(
                t=ev.now(), round=pround, candidate=stand_in, voters=len(live),
            )
        )
    ckpt = store.restore()
    replayed = store.lost_since_checkpoint
    for a in live:
        if a == stand_in:
            continue
        held = tuple(int(o) for o in np.flatnonzero(island.state.x[a]))
        log.record(StateSyncMessage(sender=a, receiver=central_id(r), objs=held))
    counters["recoveries"] += 1
    if eventing:
        sink.emit(
            ev.RecoveryEvent(
                t=ev.now(), round=pround, kind="central", agent=-1,
                checkpoint_round=ckpt.round, replayed=replayed,
                acting_central=stand_in,
            )
        )


@contextmanager
def reference_round() -> Iterator[None]:
    """Run the sharded central's regional rounds and every trust
    boundary screen (the flat simulator's too) the per-bid way."""
    with mock.patch.object(
        ShardedAGTRam, "_clear_region", reference_clear_region
    ), mock.patch.object(
        ShardedAGTRam, "_regional_crash", staticmethod(reference_regional_crash)
    ), mock.patch.object(
        shard, "_RoundStartView", ReferenceView
    ), mock.patch.object(
        TrustBoundary, "screen", reference_screen
    ):
        yield


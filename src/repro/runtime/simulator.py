"""Message-granular simulation of the AGT-RAM protocol.

Drives explicit :class:`~repro.core.agents.ReplicaAgent` objects and a
:class:`~repro.runtime.central.CentralBody` through Figure 2, recording
every message.  Produces byte/round/critical-path accounting the flat
:class:`~repro.core.agt_ram.AGTRam` loop cannot, and — by construction
— the *same final replication scheme* under truthful agents (a tested
equivalence).

A round whose bids nothing on the way can drop, corrupt or screen (no
fault plan, adversary or quarantine) clears on the central's report
vectors through :meth:`CentralBody.clear`; its messages and events are
the ones the bid-by-bid round would record.  Rounds behind the fault
channel or the trust boundary send each bid as a message and go
through :meth:`CentralBody.decide`'s screening, which ends in the same
``clear`` step.

Fault injection (:mod:`repro.runtime.faults`) layers realistic failure
modes on top of the faithful protocol: agent crash/recover intervals,
central-body crashes with checkpoint recovery, stragglers, and a lossy
channel that drops/delays/duplicates bid and NN-update traffic.  Under
a *null* :class:`~repro.runtime.faults.FaultPlan` (or ``faults=None``)
the execution — final scheme, rounds, message stream — is identical to
the fault-free protocol (a tested equivalence guard).

Byzantine injection (:mod:`repro.runtime.adversary`) layers *strategic*
misbehaviour on top of both: a seeded :class:`AdversaryPlan` corrupts
bids before they hit the (possibly lossy) channel, and a
:class:`TrustBoundary` — validator, online manipulation detector,
strike-based quarantine — screens everything the central body sees.
The same null-equivalence guarantee holds: a null plan leaves the run
byte-identical to the honest path.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.core.agents import Bid, ReplicaAgent
from repro.core.strategies import Strategy
from repro.drp.benefit import NEG_INF, BenefitEngine
from repro.drp.cost import total_otc
from repro.drp.delta import make_local_engine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConvergenceError
from repro.result import PlacementResult
from repro.runtime.adversary import (
    AdversaryInjector,
    AdversaryPlan,
    QuarantinePolicy,
    TrustBoundary,
)
from repro.runtime.central import CentralBody, Decision
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.messages import (
    AllocateMessage,
    BidMessage,
    ElectionMessage,
    MessageLog,
    NNResyncMessage,
    NNUpdateMessage,
    PaymentMessage,
    StateSyncMessage,
)
from repro.obs import events as ev
from repro.obs import tracer as obs
from repro.runtime.metrics import RuntimeMetrics
from repro.utils.timing import Timer, perf_counter
from repro.utils.validation import (
    check_index,
    check_nonnegative_int,
    check_positive_int,
)

#: The central body's address in the message log.
CENTRAL = -1


class SemiDistributedSimulator:
    """Protocol-faithful AGT-RAM execution.

    Parameters
    ----------
    payment_rule:
        Forwarded to the central body.
    strategies:
        Optional per-agent deviation strategies, keyed by integer server
        id in ``[0, M)`` (:meth:`run` raises ``ConfigurationError`` for
        any other key).  Each round, a truthful agent's dominant report
        is its row's first-index argmax, which the benefit engine
        already holds: the bid sweep reads every unlisted agent's bid
        from one ``best_per_server()`` call.  Only listed agents
        evaluate their own rows (:meth:`ReplicaAgent.make_bid`).
    keep_messages:
        Retain full message objects in the log (memory-heavy; counts and
        bytes are always kept).
    nn_update_period:
        NN-table broadcast cadence, an integer >= 1.  1 (the paper's
        eager protocol) broadcasts after every allocation; T > 1 lets
        agents bid on views up to T-1 rounds stale, trading NN-update
        message volume for solution quality (the DESIGN.md §5
        ablation).  A winner's own row is always fresh — it knows what
        it hosts.  The periodic resync is accounted as one
        :class:`NNResyncMessage` per agent carrying every object
        allocated since the last broadcast.  The protocol picks the
        local-CoR engine: the eager one runs the production
        :class:`~repro.drp.delta.DeltaBenefitEngine`; a lazy one runs
        the full-matrix :class:`~repro.drp.benefit.BenefitEngine`,
        the only engine that keeps the stale views it models.  Both
        give the same bits wherever both apply.
    failed_agents:
        Servers whose agent process is down for the whole run; they
        never bid and so never receive replicas, but their primaries
        keep serving (data survives agent failure).  Models the paper's
        robustness concern about per-node failures in a large system.
        Ids must be integers in ``[0, M)``, like ``strategies`` keys.
    central_failure_round:
        If set (an integer >= 0), the central body crashes at the start
        of that round.
        The agents self-repair (paper §7): each broadcasts an election
        vote and the lowest-id live agent takes over as acting central.
        The protocol — and the final scheme — are unchanged (the
        central role is stateless); what the failure costs is one
        election round of messages, which the metrics record and the
        event stream reports as an :class:`~repro.obs.events.ElectionEvent`.
    faults:
        A :class:`~repro.runtime.faults.FaultPlan` enabling the full
        fault-injection layer: scheduled agent crash/recover intervals
        and stragglers, scheduled central crashes (election + checkpoint
        recovery + state resync), and a seeded lossy channel over bid
        and NN-update traffic with per-round bid deadlines, retries, and
        quorum-based graceful degradation.  ``None`` (default) disables
        the layer entirely; a null plan is behaviourally identical.
    adversary:
        An :class:`~repro.runtime.adversary.AdversaryPlan` scripting
        Byzantine bid corruption per agent (inflation, infeasible bids,
        garbage fields, equivocation, collusion rings).  Corruption is
        applied *before* the lossy channel, so the two layers compose.
        Supplying a plan (even a null one) also arms the trust boundary
        — validator, online detector, quarantine — in front of the
        central body.  ``None`` (default) disables both; a null plan is
        behaviourally identical to the honest path.
    quarantine:
        The :class:`~repro.runtime.adversary.QuarantinePolicy` the
        trust boundary enforces (strike threshold, probation length,
        expulsion).  Supplying one arms the boundary even without an
        adversary plan; ``None`` uses the defaults when a plan is set.
    """

    def __init__(
        self,
        *,
        payment_rule: str = "second_price",
        strategies: Optional[Mapping[int, Strategy]] = None,
        keep_messages: bool = False,
        nn_update_period: int = 1,
        failed_agents: Optional[set[int]] = None,
        central_failure_round: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        adversary: Optional[AdversaryPlan] = None,
        quarantine: Optional[QuarantinePolicy] = None,
    ):
        nn_update_period = check_positive_int(nn_update_period, "nn_update_period")
        if central_failure_round is not None:
            central_failure_round = check_nonnegative_int(
                central_failure_round, "central_failure_round"
            )
        self.central = CentralBody(payment_rule)
        self.strategies = dict(strategies) if strategies else {}
        self.keep_messages = keep_messages
        self.nn_update_period = nn_update_period
        self.failed_agents = set(failed_agents or ())
        self.central_failure_round = central_failure_round
        self.faults = faults
        self.adversary = adversary
        self.quarantine = quarantine

    def run(self, instance: DRPInstance) -> PlacementResult:
        m = instance.n_servers
        for agent_id in self.strategies:
            check_index(agent_id, "strategies key", m)
        for agent_id in self.failed_agents:
            check_index(agent_id, "failed_agents id", m)
        sink = ev.current()
        if sink.enabled:
            sink.emit(ev.RunStart(t=ev.now(), algorithm="AGT-RAM(simulated)"))
        with obs.current().span("simulator/run"):
            result = self._run(instance)
        if sink.enabled:
            sink.emit(
                ev.RunEnd(
                    t=ev.now(),
                    algorithm=result.algorithm,
                    otc=result.otc,
                    rounds=result.rounds,
                )
            )
        return result

    # -- §7 self-repair ----------------------------------------------------

    def _elect(
        self,
        electorate: set[int],
        metrics: RuntimeMetrics,
        sink: ev.EventSink,
        rnd: int,
    ) -> int:
        """Leader election: every live agent broadcasts a vote for the
        lowest live id, which becomes the acting central."""
        new_central = min(electorate)
        voters = sorted(electorate)
        for voter in voters:
            metrics.log.record_fanout(
                lambda peer, v=voter: ElectionMessage(
                    sender=v, receiver=peer, candidate=new_central
                ),
                [peer for peer in voters if peer != voter],
            )
        if sink.enabled:
            sink.emit(
                ev.ElectionEvent(
                    t=ev.now(),
                    round=rnd,
                    candidate=new_central,
                    voters=len(electorate),
                )
            )
        return new_central

    def _recover_central(
        self,
        injector: FaultInjector,
        active: set[int],
        down: set[int],
        agents: list[ReplicaAgent],
        metrics: RuntimeMetrics,
        sink: ev.EventSink,
        rnd: int,
    ) -> int:
        """Scheduled central crash: elect a successor, restore the last
        checkpoint, and re-learn the newer commits from the agents'
        state-sync reports.  Returns the new acting central."""
        injector.summary["central_crashes"] += 1
        if sink.enabled:
            sink.emit(
                ev.FaultEvent(
                    t=ev.now(), round=rnd, kind="central_crash", agent=CENTRAL
                )
            )
        electorate = set(active - down) or set(active)
        new_central = self._elect(electorate, metrics, sink, rnd)
        ckpt = injector.checkpoints.restore()
        replayed = injector.checkpoints.lost_since_checkpoint
        for agent_id in sorted(active - down):
            if agent_id == new_central:
                continue  # the acting central knows its own holdings
            injector.send_reliable(
                lambda a=agent_id: StateSyncMessage(
                    sender=a,
                    receiver=new_central,
                    objs=tuple(agents[a].objects_won),
                ),
                rnd=rnd,
                agent=agent_id,
                target="resync",
                log=metrics.log,
            )
        injector.summary["recoveries"] += 1
        if sink.enabled:
            sink.emit(
                ev.RecoveryEvent(
                    t=ev.now(),
                    round=rnd,
                    kind="central",
                    agent=CENTRAL,
                    checkpoint_round=ckpt.round,
                    replayed=replayed,
                    acting_central=new_central,
                )
            )
        return new_central

    # -- the protocol loop -------------------------------------------------

    def _run(self, instance: DRPInstance) -> PlacementResult:
        timer = Timer()
        tracer = obs.current()
        traced = tracer.enabled
        sink = ev.current()
        eventing = sink.enabled
        series = ev.RoundSeries() if eventing else None
        metrics = RuntimeMetrics(log=MessageLog(keep_messages=self.keep_messages))
        m = instance.n_servers
        injector = (
            FaultInjector(self.faults, m) if self.faults is not None else None
        )
        adv = (
            AdversaryInjector(self.adversary, m)
            if self.adversary is not None
            else None
        )
        boundary = (
            TrustBoundary(instance, self.quarantine)
            if (self.adversary is not None or self.quarantine is not None)
            else None
        )
        # Bids travel as messages only where something on the way can
        # drop, corrupt or screen them; otherwise rounds clear on arrays.
        per_message = injector is not None or boundary is not None

        agents = []
        for i in range(m):
            if i in self.strategies:
                agents.append(ReplicaAgent(server=i, strategy=self.strategies[i]))
            else:
                agents.append(ReplicaAgent(server=i))

        with timer:
            state = ReplicationState.primaries_only(instance)
            if self.nn_update_period == 1:
                engine = make_local_engine(instance, state)
            else:
                engine = BenefitEngine(instance, state)
            if eventing:
                # Per-round OTC telemetry (stalls, fruitless rounds, the
                # series, RoundEnd) reads the delta-maintained tracker —
                # O(1) per round instead of the O(M·N) closed-form
                # recompute.  The headline result below still reports the
                # exact total_otc.
                state.begin_otc_tracking()
            active = set(range(m)) - self.failed_agents
            acting_central = CENTRAL  # the dedicated body, until it fails
            handover_round: Optional[int] = None
            pround = 0  # protocol rounds, including stalled ones
            stalled = 0
            prev_down: set[int] = set()
            stale_objs: set[int] = set()  # lazy protocol: unsynced objects

            fruitless = 0  # consecutive no-commit rounds behind the boundary
            if boundary is not None:
                policy = boundary.quarantine.policy
                # Every quarantine is finite and expulsions are permanent,
                # so rejection/probation wait-outs are bounded; this cap
                # only guards against a configuration-level livelock.
                max_fruitless = 200 + policy.probation * policy.max_quarantines
            else:
                max_fruitless = 200

            def stall(otc_now: float) -> None:
                """Close a round without a commit and charge the stall
                budget; raises once the run stops making progress."""
                nonlocal stalled, pround
                assert injector is not None
                stalled += 1
                injector.summary["stalled_rounds"] += 1
                if eventing:
                    sink.emit(
                        ev.RoundEnd(
                            t=ev.now(), round=pround, committed=0, otc=otc_now
                        )
                    )
                pround += 1
                if stalled > injector.quorum.max_stalled_rounds:
                    raise ConvergenceError(
                        f"{stalled} consecutive stalled rounds (quorum misses "
                        f"or blackouts) exceed max_stalled_rounds="
                        f"{injector.quorum.max_stalled_rounds}"
                    )

            def fruitless_round(otc_now: float) -> None:
                """Close a round whose only outcome was rejected or
                quarantined bids; the game must not end on it (the quiet
                view is an artifact of screening, not of convergence)."""
                nonlocal fruitless, pround
                assert boundary is not None
                fruitless += 1
                boundary.rejected_stalls += 1
                if eventing:
                    sink.emit(
                        ev.RoundEnd(
                            t=ev.now(), round=pround, committed=0, otc=otc_now
                        )
                    )
                pround += 1
                if fruitless > max_fruitless:
                    raise ConvergenceError(
                        f"{fruitless} consecutive rounds produced only "
                        f"rejected or quarantined bids (adversary livelock?)"
                    )

            def otc_now() -> float:
                """Round-granular OTC for stall/fruitless telemetry:
                the O(1) tracker when eventing, never read otherwise."""
                return state.tracked_otc() if eventing else 0.0

            while active:
                # Self-repair (§7): the central body crashes; every live
                # agent broadcasts an election vote for the lowest live
                # id, which becomes the acting central.  The role is
                # stateless, so the game resumes at the next round.
                if (
                    self.central_failure_round is not None
                    and handover_round is None
                    and metrics.rounds >= self.central_failure_round
                ):
                    acting_central = self._elect(
                        active, metrics, sink, metrics.rounds
                    )
                    handover_round = metrics.rounds

                round_idx = pround
                down: set[int] = set()
                if injector is not None:
                    # Scheduled agent crash/recover transitions.
                    down = {
                        i
                        for i in active
                        if injector.schedule.agent_down(i, pround)
                    }
                    for i in sorted(down - prev_down):
                        injector.summary["agent_crashes"] += 1
                        if eventing:
                            sink.emit(
                                ev.FaultEvent(
                                    t=ev.now(),
                                    round=pround,
                                    kind="agent_crash",
                                    agent=i,
                                )
                            )
                    for i in sorted((prev_down & active) - down):
                        injector.summary["agent_recoveries"] += 1
                        if eventing:
                            sink.emit(
                                ev.RecoveryEvent(
                                    t=ev.now(),
                                    round=pround,
                                    kind="agent",
                                    agent=i,
                                )
                            )
                    prev_down = down
                    # Scheduled central crash: election + checkpoint
                    # recovery + state resync from the live agents.
                    if injector.schedule.central_crashes_at(pround):
                        acting_central = self._recover_central(
                            injector, active, down, agents, metrics, sink,
                            pround,
                        )

                msgs_before = metrics.log.total_messages()
                bytes_before = metrics.log.bytes_total
                if eventing:
                    sink.emit(ev.RoundStart(t=ev.now(), round=round_idx))

                ordered = sorted(active - down)
                if injector is not None and not ordered:
                    # Total blackout: every live agent is crashed this
                    # round; wait for the schedule to bring one back.
                    stall(otc_now())
                    continue
                if boundary is not None:
                    ordered = boundary.filter_bidders(ordered, pround)
                    if not ordered and (active - down):
                        if boundary.quarantine.quarantined:
                            # Every eligible bidder is quarantined; wait
                            # out the (finite) probation.
                            fruitless_round(otc_now())
                            continue
                        # Only expelled agents could still bid: nobody
                        # will ever commit again, the game is over.
                        break

                # PARFOR bid sweep (Figure 2 lines 03-09).  Eq. 5 values
                # are finite, so a truthful agent's dominant report is
                # the engine's cached first-index argmax of its row (-inf
                # when L_i is empty); strategic agents evaluate theirs.
                # The reports land in the central's (M,) vectors: -inf
                # for agents that send nothing.
                t0 = perf_counter() if traced else 0.0
                idx = np.array(ordered, dtype=np.intp)
                vals, objs = engine.best_per_server()
                values = np.full(m, NEG_INF)
                bid_objs = np.full(m, -1, dtype=np.int64)
                values[idx] = vals[idx]
                bid_objs[idx] = objs[idx]
                for i in ordered:
                    if i in self.strategies:
                        bid = agents[i].make_bid(engine)
                        if bid is None:
                            values[i] = NEG_INF
                        else:
                            values[i] = bid.value
                            bid_objs[i] = bid.obj
                if traced:
                    tracer.add("round/bid_sweep", perf_counter() - t0)

                # Per-agent work this round = |L_i| object evaluations.
                metrics.record_round_work(engine.eligible_counts(idx).tolist())

                # Empty L_i: the agent leaves the game (line 18).
                bidding = values[idx] != NEG_INF
                active.difference_update(idx[~bidding].tolist())
                senders = idx[bidding]
                s_ids = senders.tolist()
                s_objs = bid_objs[senders].tolist()
                s_vals = values[senders].tolist()

                missing: list[int] = []  # bids lost to the channel
                offended = False
                if per_message:
                    if adv is not None:
                        # Byzantine corruption happens at the (lying)
                        # agent, before the lossy channel sees the traffic.
                        sends = adv.corrupt_round(
                            round_idx,
                            {
                                a: Bid(a, obj, value)
                                for a, obj, value in zip(s_ids, s_objs, s_vals)
                            },
                            state,
                            instance,
                        )
                    else:
                        sends = {
                            a: [(obj, value)]
                            for a, obj, value in zip(s_ids, s_objs, s_vals)
                        }

                    bid_msgs: list[BidMessage] = []  # arrived at the central
                    n_senders = 0
                    for agent_id in sorted(sends):
                        n_senders += 1
                        arrived = False
                        for si, (obj, value) in enumerate(sends[agent_id]):
                            if injector is None:
                                msg = BidMessage(
                                    sender=agent_id,
                                    receiver=acting_central,
                                    obj=obj,
                                    value=value,
                                    seq=si,
                                )
                                metrics.log.record(msg)
                                bid_msgs.append(msg)
                                arrived = True
                            else:
                                copies = injector.send_bid(
                                    rnd=pround,
                                    sender=agent_id,
                                    receiver=acting_central,
                                    obj=obj,
                                    value=value,
                                    log=metrics.log,
                                )
                                if copies:
                                    bid_msgs.extend(copies)
                                    arrived = True
                        if not arrived:
                            missing.append(agent_id)
                        if eventing:
                            obj, value = sends[agent_id][0]
                            sink.emit(
                                ev.BidEvent(ev.now(), round_idx, agent_id, obj, value)
                            )

                    if injector is not None and missing:
                        # The bid deadline passed with reports still in
                        # flight: degrade gracefully if a quorum arrived,
                        # stall and retry otherwise.
                        received = n_senders - len(missing)
                        required = injector.quorum.required(n_senders)
                        quorum_met = received >= required
                        injector.summary["timeouts"] += 1
                        if eventing:
                            sink.emit(
                                ev.TimeoutEvent(
                                    t=ev.now(),
                                    round=round_idx,
                                    agents=tuple(missing),
                                    expected=n_senders,
                                    received=received,
                                    quorum_met=quorum_met,
                                )
                            )
                        if not quorum_met or received == 0:
                            stall(otc_now())
                            continue

                    t0 = perf_counter() if traced else 0.0
                    if boundary is not None:
                        # Validator + online detector + strike accounting
                        # in front of the central body.
                        bid_msgs, offended = boundary.screen(
                            bid_msgs, state, engine, round_idx
                        )
                    outcome = self.central.decide(bid_msgs, m, rnd=round_idx)
                    offended = offended or bool(outcome.rejected)
                    if traced:
                        tracer.add("round/decision", perf_counter() - t0)
                else:
                    # Nothing on the way drops, corrupts or screens a
                    # bid: every sender's report reaches the central as
                    # sent, so the round clears on the vectors.
                    metrics.log.record_fanout(
                        lambda j: BidMessage(
                            sender=s_ids[j],
                            receiver=acting_central,
                            obj=s_objs[j],
                            value=s_vals[j],
                        ),
                        range(len(s_ids)),
                    )
                    if eventing:
                        # One stamp reservation for the round's bids:
                        # under logical_time the same ticks one now()
                        # per bid would take.
                        t, step = ev.now_block(len(s_ids))
                        emit = sink.emit
                        for agent_id, obj, value in zip(s_ids, s_objs, s_vals):
                            emit(ev.BidEvent(t, round_idx, agent_id, obj, value))
                            t += step
                    t0 = perf_counter() if traced else 0.0
                    outcome = self.central.clear(values, bid_objs)
                    if traced:
                        tracer.add("round/decision", perf_counter() - t0)
                if outcome.decision is Decision.DO_NOT_REPLICATE:
                    if injector is not None and (missing or down):
                        # The quiet view may be an artifact of lost bids
                        # or crashed agents; only a clean round may end
                        # the game.
                        stall(otc_now())
                        continue
                    if boundary is not None and (
                        offended or boundary.quarantine.quarantined
                    ):
                        # Rejected/flagged bids (or bidders sitting out
                        # a finite probation) made the round quiet; only
                        # a clean round may end the game.  Expelled
                        # agents never return, so they don't block
                        # termination.
                        fruitless_round(otc_now())
                        continue
                    if eventing:
                        sink.emit(
                            ev.RoundEnd(
                                t=ev.now(),
                                round=round_idx,
                                committed=0,
                                otc=state.tracked_otc(),
                            )
                        )
                    pround += 1  # the terminal probing round counts too
                    break
                metrics.rounds += 1
                stalled = 0
                fruitless = 0
                if eventing:
                    if per_message:
                        won_value = next(
                            b.value for b in bid_msgs if b.sender == outcome.winner
                        )
                        n_bids = len({b.sender for b in bid_msgs})
                    else:
                        won_value = float(values[outcome.winner])
                        n_bids = len(s_ids)
                    sink.emit(
                        ev.WinnerEvent(
                            t=ev.now(),
                            round=round_idx,
                            agent=outcome.winner,
                            obj=outcome.obj,
                            value=won_value,
                            obj_size=int(instance.sizes[outcome.obj]),
                            residual_before=int(state.residual[outcome.winner]),
                        )
                    )
                    sink.emit(
                        ev.PaymentEvent(
                            t=ev.now(),
                            round=round_idx,
                            agent=outcome.winner,
                            amount=outcome.payment,
                            rule=self.central.payment_rule,
                        )
                    )

                # OMAX broadcast (line 13) + payment (line 14).
                t0 = perf_counter() if traced else 0.0
                receivers = sorted(active)
                metrics.log.record_fanout(
                    lambda a: AllocateMessage(
                        sender=acting_central,
                        receiver=a,
                        winner=outcome.winner,
                        obj=outcome.obj,
                    ),
                    receivers,
                )
                metrics.log.record(
                    PaymentMessage(
                        sender=acting_central,
                        receiver=outcome.winner,
                        amount=outcome.payment,
                    )
                )

                true_value = engine.value_at(outcome.winner, outcome.obj)
                agents[outcome.winner].award(
                    outcome.obj, outcome.payment, true_value
                )
                if traced:
                    tracer.add("round/broadcast", perf_counter() - t0)
                    t0 = perf_counter()

                state.add_replica(outcome.winner, outcome.obj)
                if injector is not None and injector.checkpoints.commit(
                    outcome.winner, outcome.obj, pround
                ):
                    injector.summary["checkpoints"] += 1
                    if eventing:
                        sink.emit(
                            ev.CheckpointEvent(
                                t=ev.now(),
                                round=round_idx,
                                allocations=len(
                                    injector.checkpoints.allocations
                                ),
                            )
                        )
                if self.nn_update_period == 1:
                    # Eager protocol (the paper): broadcast after every
                    # allocation; every agent's view is always fresh.
                    engine.notify_allocation(outcome.winner, outcome.obj)
                    if injector is None:
                        metrics.log.record_fanout(
                            lambda a: NNUpdateMessage(
                                sender=a, receiver=a, obj=outcome.obj
                            ),
                            receivers,
                        )
                    else:
                        for agent_id in receivers:
                            injector.send_reliable(
                                lambda a=agent_id: NNUpdateMessage(
                                    sender=a, receiver=a, obj=outcome.obj
                                ),
                                rnd=pround,
                                agent=agent_id,
                                target="nn_update",
                                log=metrics.log,
                            )
                else:
                    # Lazy protocol: only the winner learns immediately
                    # (about its own allocation); everyone else resyncs
                    # on the periodic broadcast.
                    engine.refresh_server(outcome.winner)
                    stale_objs.add(outcome.obj)
                    if injector is None:
                        metrics.log.record(
                            NNUpdateMessage(
                                sender=outcome.winner,
                                receiver=outcome.winner,
                                obj=outcome.obj,
                            )
                        )
                    else:
                        injector.send_reliable(
                            lambda: NNUpdateMessage(
                                sender=outcome.winner,
                                receiver=outcome.winner,
                                obj=outcome.obj,
                            ),
                            rnd=pround,
                            agent=outcome.winner,
                            target="nn_update",
                            log=metrics.log,
                        )
                    if metrics.rounds % self.nn_update_period == 0:
                        # Batched refresh: every object allocated since
                        # the last broadcast, for every agent — the
                        # honest per-object accounting of the resync.
                        engine.resync()
                        batch = tuple(sorted(stale_objs))
                        if injector is None:
                            metrics.log.record_fanout(
                                lambda a: NNResyncMessage(
                                    sender=a, receiver=a, objs=batch
                                ),
                                receivers,
                            )
                        else:
                            for agent_id in receivers:
                                injector.send_reliable(
                                    lambda a=agent_id: NNResyncMessage(
                                        sender=a, receiver=a, objs=batch
                                    ),
                                    rnd=pround,
                                    agent=agent_id,
                                    target="resync",
                                    log=metrics.log,
                                )
                        stale_objs.clear()
                if traced:
                    tracer.add("round/nn_update", perf_counter() - t0)
                if eventing:
                    sink.emit(
                        ev.NNUpdateEvent(
                            t=ev.now(),
                            round=round_idx,
                            obj=outcome.obj,
                            agents=len(active)
                            if self.nn_update_period == 1
                            else 1,
                        )
                    )
                    assert series is not None
                    series.append(
                        otc=state.tracked_otc(),
                        best_bid=won_value,
                        payment=outcome.payment,
                        n_bids=n_bids,
                        messages=metrics.log.total_messages() - msgs_before,
                        bytes=metrics.log.bytes_total - bytes_before,
                    )
                    sink.emit(
                        ev.RoundEnd(
                            t=ev.now(),
                            round=round_idx,
                            committed=1,
                            otc=series.otc[-1],
                        )
                    )
                pround += 1

            if traced:
                tracer.count("rounds", metrics.rounds)
                tracer.count("messages", metrics.log.total_messages())
                tracer.count("bytes", metrics.log.bytes_total)

        payments = np.array([a.payments_received for a in agents])
        utilities = np.array([a.utility for a in agents])
        return PlacementResult(
            algorithm="AGT-RAM(simulated)",
            state=state,
            otc=total_otc(state),
            runtime_s=timer.elapsed,
            rounds=metrics.rounds,
            extra={
                "payments": payments,
                "utilities": utilities,
                "engine": engine.engine_name,
                "metrics": metrics,
                "agents": agents,
                "acting_central": acting_central,
                "central_handover_round": handover_round,
                "protocol_rounds": pround,
                **(
                    {"fault_summary": injector.summary_dict()}
                    if injector is not None
                    else {}
                ),
                **(
                    {"adversary_summary": adv.summary_dict()}
                    if adv is not None
                    else {}
                ),
                **(
                    {"trust_summary": boundary.summary_dict()}
                    if boundary is not None
                    else {}
                ),
                **({"round_series": series} if series is not None else {}),
            },
        )

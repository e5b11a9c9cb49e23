"""AGT-RAM — the Axiomatic Game Theoretical Replica Allocation Mechanism.

Figure 2 of the paper, round by round:

1. every active agent evaluates its eligible list L_i and sends its
   dominant valuation t_i^k to the mechanism (the PARFOR of lines 03–09),
2. the central body picks the globally dominant report OMAX (line 10),
3. the payment is the *second* best report (lines 11–12, Axiom 5),
4. OMAX is broadcast so every agent updates its NN table (lines 13, 19–21),
5. the object is replicated, the winner's capacity and list shrink
   (lines 15–18),
6. the loop ends when no agent remains interested.

The central body's only decision is binary — replicate or not — which is
the paper's "semi-distributed" property.  Allocation stops when the best
report is no longer positive: replicating at a loss would *raise* the
system OTC, so the central body answers "0 (do not replicate)".

Complexity: each round costs O(M + N) incremental updates plus one
O(M·N) argmax, and at most M·N rounds exist, matching Theorem 4's
O(M·N²) worst case (for M <= N).
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.core.mechanism import Mechanism, MechanismAudit, RoundRecord
from repro.core.payments import PAYMENT_RULES
from repro.core.strategies import Strategy
from repro.drp.cost import total_otc
from repro.drp.benefit import BenefitEngine
from repro.drp.delta import DeltaBenefitEngine, make_local_engine
from repro.drp.global_engine import GlobalBenefitEngine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.obs import tracer as obs
from repro.result import PlacementResult
from repro.utils.timing import Timer, perf_counter
from repro.utils.validation import (
    check_index,
    check_nonnegative_int,
    check_positive_int,
)


class _OtcLedger:
    """Flush-time OTC settlement for the columnar ring.

    The state's OTC tracker
    (:meth:`~repro.drp.state.ReplicationState.begin_otc_tracking`)
    delta-maintains the system OTC inside ``add_replica`` — one O(M) pass
    over the just-relaxed (strided) NN column per commit.  Strided
    column walks are an order of magnitude slower than contiguous row
    passes, so the clearing loop does no OTC arithmetic at all: each
    flush *reconstructs* every committed round's relaxed NN column as
    ``min(c(·, P_k), c(·, r), …, c(·, winner))`` over the object's
    replicas from the instance's contiguous cost-column rows
    (:meth:`~repro.drp.instance.DRPInstance.cost_col_rows`),
    batch-gathered and min-chained per chunk, then settles the rounds
    with one batched ``einsum("rj,rj->r", ...)`` and a scalar replay of
    the tracker's exact accumulation.  The reconstruction is value-exact
    (a min-chain of the same floats the broadcast relaxed), the rows are
    contiguous like the tracker's scratch, and chunked batched einsum
    reduces each row independently — so the resulting ``RoundEnd`` OTC
    floats are bit-identical to the tracker's; the emission gate pins
    it.

    The ledger starts from whatever state it is given: it takes the
    tracker's own seed (:meth:`~repro.drp.state.ReplicationState.otc_seed`)
    and opens a replica chain for every object that already has a
    non-primary replica, so warm starts settle like cold ones.
    """

    #: Rows settled per gather/einsum call — sized so the three
    #: ``_CHUNK × M`` scratch blocks stay L2-resident between the gather
    #: and the einsum that re-reads them (measured optimum; 128 spills).
    _CHUNK = 32

    __slots__ = (
        "rstat_rows",
        "cost_rows",
        "pmap",
        "wterm",
        "otc",
        "read_k",
        "chains",
        "_pc",
        "_sc",
        "_rs",
        "_dots",
    )

    def __init__(self, state: ReplicationState) -> None:
        inst = state.instance
        otc0, read_k = state.otc_seed()
        self.otc = otc0
        self.read_k = read_k.tolist()
        self.rstat_rows = inst.read_scale_rows()
        self.cost_rows = inst.cost_col_rows()
        self.pmap = inst.primaries
        self.wterm = inst.local_value_terms()[1]
        #: Non-primary replicators per object — repeat commits of one
        #: object must min-chain every replica it already has.
        self.chains: dict[int, list[int]] = {}
        if state.n_replicas_added:
            extra = state.x.copy()
            extra[inst.primaries, np.arange(inst.n_objects)] = False
            for k, w in zip(*(a.tolist() for a in np.nonzero(extra.T))):
                self.chains.setdefault(k, []).append(w)
        c, m = self._CHUNK, inst.n_servers
        self._pc = np.empty((c, m))
        self._sc = np.empty((c, m))
        self._rs = np.empty((c, m))
        self._dots = np.empty(c)

    def _read_costs(
        self, ks: np.ndarray, ws: np.ndarray, objs_l: list, winners_l: list
    ) -> list[float]:
        """Each committed round's refreshed read cost
        ``Σ_i rstat_ik · nn_ik`` over its reconstructed column."""
        out: list[float] = []
        chunk = self._CHUNK
        crows = self.cost_rows
        pmap = self.pmap
        chains = self.chains
        for s in range(0, len(ks), chunk):
            e = min(s + chunk, len(ks))
            b = e - s
            rows = self._pc[:b]
            np.take(crows, pmap[ks[s:e]], axis=0, out=rows)
            np.take(crows, ws[s:e], axis=0, out=self._sc[:b])
            np.minimum(rows, self._sc[:b], out=rows)
            for j in range(b):
                k = objs_l[s + j]
                hist = chains.get(k)
                if hist is None:
                    chains[k] = [winners_l[s + j]]
                else:
                    # Object already replicated: rebuild the full chain.
                    hist.append(winners_l[s + j])
                    row = rows[j]
                    np.minimum(crows[int(pmap[k])], crows[hist[0]], out=row)
                    for w in hist[1:]:
                        np.minimum(row, crows[w], out=row)
            np.take(self.rstat_rows, ks[s:e], axis=0, out=self._rs[:b])
            np.einsum(
                "rj,rj->r", self._rs[:b], rows, out=self._dots[:b]
            )
            out.extend(self._dots[:b].tolist())
        return out

    def fill(self, buf) -> None:
        """Compute ``buf.otcs[:buf.n]`` for the staged rounds."""
        n = buf.n
        if n == 0:
            return
        winners_l = buf.winners[:n].tolist()
        objs_l = buf.objs[:n].tolist()
        # The loop's invariant: every staged row committed except, at
        # most, one terminal row at the very end — so the committed rows
        # are a prefix and plain slices (no index gathers) cover them.
        c = n - (1 if winners_l[-1] < 0 else 0)
        otc = self.otc
        read_k = self.read_k
        otcs = [0.0] * n
        if c:
            ks = buf.objs[:c]
            ws = buf.winners[:c]
            wds = self.wterm[ws, ks].tolist()
            new_rks = self._read_costs(ks, ws, objs_l, winners_l)
            for i in range(c):
                k = objs_l[i]
                new_rk = new_rks[i]
                otc += wds[i] + (new_rk - read_k[k])
                read_k[k] = new_rk
                otcs[i] = otc
        if c < n:
            otcs[c] = otc
        buf.otcs[:n] = otcs
        self.otc = otc


class AGTRam(Mechanism):
    """The paper's mechanism, configurable for the ablation studies.

    Every single-winner run clears in one loop (:meth:`_clear`),
    whatever the engine, valuation, strategies, start state, audit,
    tracer or sink; batched runs (``batch_size > 1``) have their own
    (:meth:`_clear_batched`).  With a sink active, single-winner rounds
    are staged into a struct-of-arrays ring
    (:class:`~repro.obs.events.ColumnarRoundBuffer`) and flushed as
    :class:`~repro.obs.events.RoundBlock`\\ s — no per-decision objects
    in the loop — while batched rounds emit one event object per
    decision.

    Parameters
    ----------
    payment_rule:
        ``"second_price"`` (the paper's Axiom 5) or ``"first_price"``
        (ablation foil destroying truthfulness).
    valuation:
        ``"local"`` — agents value objects with their private Eq. 5 CoR
        (the paper's semi-distributed oracle); ``"global"`` — ablation in
        which agents hypothetically know the exact system-wide ΔOTC.
    strategies:
        Optional mapping ``server -> Strategy`` for agents that deviate
        from truth-telling; unlisted agents are truthful.  Used by the
        equilibrium experiments.  Keys must be integer server ids in
        ``[0, M)``; :meth:`run` raises ``ConfigurationError`` otherwise.
    max_rounds:
        Safety cap on mechanism rounds, an integer >= 0 (default: no cap
        beyond the natural M·N bound).
    batch_size:
        Allocations per round.  1 is Figure 2 exactly.  B > 1 realizes
        the paper's "provide a *list* of objects" phrasing: the central
        body approves the top-B positive reports of one round together
        (winners are distinct agents, so no storage conflicts), each
        paying the uniform clearing price — the best *rejected* report —
        which stays independent of every winner's own bid.  Rounds drop
        ~B-fold; bids within a round are mutually stale, the same
        trade-off as the concurrent regional mechanism
        (:class:`~repro.runtime.shard.ShardedAGTRam`).
    engine:
        Local-CoR oracle: ``"vectorized"`` (default), the production
        :class:`~repro.drp.delta.DeltaBenefitEngine`, which
        delta-maintains only the per-agent dominant reports from the
        NN-broadcast dirty set, O(M + |dirty|·N) per round; or
        ``"naive"``, the reference
        :class:`~repro.drp.benefit.BenefitEngine`, which keeps the full
        (M, N) matrix and argmaxes it every round.  Winners, payments
        and events are bit-identical (``repro audit --compare-engines``
        checks it).  Applies to ``valuation="local"`` only; the
        global-oracle ablation runs its own engine.
    """

    name = "AGT-RAM"

    def __init__(
        self,
        *,
        payment_rule: str = "second_price",
        valuation: str = "local",
        strategies: Optional[Mapping[int, Strategy]] = None,
        max_rounds: Optional[int] = None,
        batch_size: int = 1,
        engine: str = "vectorized",
    ):
        if payment_rule not in PAYMENT_RULES:
            raise ConfigurationError(
                f"unknown payment rule {payment_rule!r}; "
                f"expected one of {sorted(PAYMENT_RULES)}"
            )
        if valuation not in ("local", "global"):
            raise ConfigurationError(
                f"valuation must be 'local' or 'global', got {valuation!r}"
            )
        if engine not in ("naive", "vectorized"):
            raise ConfigurationError(
                f"engine must be 'naive' or 'vectorized', got {engine!r}"
            )
        self.engine = engine
        self.payment_rule = payment_rule
        self.valuation = valuation
        self.strategies = dict(strategies) if strategies else {}
        self.max_rounds = (
            None
            if max_rounds is None
            else check_nonnegative_int(max_rounds, "max_rounds")
        )
        self.batch_size = check_positive_int(batch_size, "batch_size")

    def run(self, instance, *, record_audit: bool = False, **kwargs) -> PlacementResult:
        """:meth:`Mechanism.run`, once every ``strategies`` key is known
        to name a server of ``instance``."""
        for server in self.strategies:
            check_index(server, "strategies key", instance.n_servers)
        return super().run(instance, record_audit=record_audit, **kwargs)

    # -- internals ---------------------------------------------------------

    def _reports(
        self, true_vals: np.ndarray, true_objs: np.ndarray, engine
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply agent strategies to the truthful per-agent reports.

        Truthful agents report (true_vals, true_objs) unchanged.  A
        deviating agent transforms its full valuation row, then reports
        the argmax of the *transformed* row — matching how a selfish
        agent would actually play.  Rows come from ``engine.row`` so the
        delta engine materializes only the deviating agents' rows.
        """
        if not self.strategies:
            return true_vals, true_objs
        reported_vals = true_vals.copy()
        reported_objs = true_objs.copy()
        for server, strategy in self.strategies.items():
            row = strategy.report(engine.row(server))
            if not np.isfinite(row).any():
                reported_vals[server] = -np.inf
                continue
            obj = int(np.argmax(row))
            reported_objs[server] = obj
            reported_vals[server] = row[obj]
        return reported_vals, reported_objs

    def _flush_block(self, buf, sink, series, ledger) -> None:
        """Settle the ring's OTC, flush it into the sink and fill the
        round series.

        Series values come off the block columns via ``tolist()`` —
        python-native scalars, the same bits ``RoundSeries.append``'s
        ``float()``/``int()`` casts produce.
        """
        ledger.fill(buf)
        block = buf.flush()
        if block is None:
            return
        idx = np.nonzero(block.winners >= 0)[0]
        if len(idx):
            series.otc.extend(block.otcs[idx].tolist())
            series.best_bid.extend(
                block.bid_vals[idx, block.winners[idx]].tolist()
            )
            series.payment.extend(block.payments[idx].tolist())
            series.n_bids.extend(block.n_bids[idx].tolist())
        sink.emit_block(block)

    def _clear(
        self,
        instance: DRPInstance,
        state: ReplicationState,
        engine,
        cap: int,
        payments: np.ndarray,
        utilities: np.ndarray,
        sink,
        series,
        audit: Optional[MechanismAudit],
    ) -> int:
        """Figure 2's loop, one winner per round; returns the rounds run.

        Each round reads every agent's dominant report (the delta
        engine's zero-copy cached bests, or the naive and global
        engines' fresh sweep) through the agents' strategies, takes the
        first-index argmax, prices it, commits it and broadcasts the NN
        update.  With a sink, each round's pre-commit report vectors and
        commit scalars are staged into a preallocated ring — plain array
        stores — which flushes into the sink as a block when full and
        once at the end; ``RoundEnd.otc`` is settled per flush by the
        :class:`_OtcLedger`, so the loop does no OTC arithmetic.
        """
        m = instance.n_servers
        read = (
            engine.best_view
            if isinstance(engine, DeltaBenefitEngine)
            else engine.best_per_server
        )
        strategies = self.strategies
        # Inline Vickrey price via a swap instead of np.delete: the max
        # over the other agents is unchanged (−inf never wins it), and a
        # round that gets priced holds no NaN or +inf report (argmax
        # would have picked it), so the non-finite filtering of
        # ``second_best_payment`` is vacuous.  Engine reports (Eq. 5
        # arithmetic, ineligible cells exactly −inf) are never −0.0
        # either, which the rule would pass through as a price;
        # strategic reports may be, so they go through the rule itself.
        inline = self.payment_rule == "second_price" and not strategies
        pay = PAYMENT_RULES[self.payment_rule]
        neg_inf = -np.inf
        eventing = sink.enabled
        if eventing:
            capacities = instance.capacities
            used = state.used
            ledger = _OtcLedger(state)
            buf = ev.ColumnarRoundBuffer(
                m,
                instance.sizes,
                capacity=min(512, cap + 1),
                payment_rule=self.payment_rule,
            )
            # The loop counts finite reports per round while the report
            # vector is cache-hot; the flush then skips its ring scan.
            buf.staged_n_bids = True
            fin = np.empty(m, dtype=bool)
        rounds = 0
        while rounds < cap:
            vals, objs = read()
            if strategies:
                vals, objs = self._reports(vals, objs, engine)
            winner = int(vals.argmax())
            best = float(vals[winner])
            if eventing:
                buf.stage(vals, objs)  # pre-commit; the ring keeps copies
                buf.n_bids[buf.n] = np.count_nonzero(np.isfinite(vals, out=fin))
            if not np.isfinite(best) or best <= 0.0:
                # Central body's binary decision: (0) do not replicate.
                if audit is not None:
                    audit.append(
                        RoundRecord(vals.copy(), objs.copy(), -1, -1, 0.0, 0.0)
                    )
                if eventing:
                    buf.close(otc=0.0)  # the ledger settles OTC at flush
                break
            # Payment (lines 11-12, Axiom 5).
            obj = int(objs[winner])
            if inline:
                vals[winner] = neg_inf
                runner_up = float(vals.max())
                vals[winner] = best
                payment = runner_up if runner_up > 0.0 else 0.0
            else:
                payment = pay(vals, winner)
            # A deviating winner's *true* value for the object it was
            # awarded is not its report.
            true_value = (
                engine.value_at(winner, obj) if winner in strategies else best
            )
            payments[winner] += payment
            utilities[winner] += true_value - payment
            if audit is not None:
                # Copied before the commit: the delta engine's view
                # changes in place.
                audit.append(
                    RoundRecord(
                        vals.copy(), objs.copy(), winner, obj, payment, true_value
                    )
                )
            if eventing:
                residual = int(capacities[winner]) - int(used[winner])
            # Commit + NN broadcast (lines 13-21).
            state.add_replica(winner, obj)
            engine.notify_allocation(winner, obj)
            rounds += 1
            if eventing:
                buf.commit(winner, obj, residual, payment, otc=0.0)
                if buf.full:
                    self._flush_block(buf, sink, series, ledger)
        if eventing:
            self._flush_block(buf, sink, series, ledger)
        return rounds

    def _clear_batched(
        self,
        instance: DRPInstance,
        state: ReplicationState,
        engine,
        cap: int,
        payments: np.ndarray,
        utilities: np.ndarray,
        sink,
        series,
        audit: Optional[MechanismAudit],
    ) -> int:
        """Batched rounds: approve the top-B positive reports at a
        uniform clearing price (the best rejected report), which no
        winner's own bid can influence.

        Emits one event object per decision; ``RoundEnd.otc`` comes from
        the state's OTC tracker.  A :class:`~repro.obs.events.RoundBlock`
        row holds exactly one winner, so batches do not use the ring.
        """
        eventing = sink.enabled
        if eventing:
            state.begin_otc_tracking()
        rounds = 0
        while rounds < cap:
            rnd = rounds
            if eventing:
                sink.emit(ev.RoundStart(t=ev.now(), round=rnd))
            vals, objs = self._reports(*engine.best_per_server(), engine)
            if eventing:
                for agent in np.nonzero(np.isfinite(vals))[0]:
                    sink.emit(
                        ev.BidEvent(
                            t=ev.now(),
                            round=rnd,
                            agent=int(agent),
                            obj=int(objs[agent]),
                            value=float(vals[agent]),
                        )
                    )
            best = float(vals[int(np.argmax(vals))])
            positive: list[int] = []
            if np.isfinite(best) and best > 0.0:
                positive = [
                    int(i)
                    for i in np.argsort(vals)[::-1]
                    if np.isfinite(vals[i]) and vals[i] > 0.0
                ]
            elif audit is not None:
                audit.append(RoundRecord(vals.copy(), objs.copy(), -1, -1, 0.0, 0.0))
            batch = positive[: self.batch_size]
            rejected = positive[self.batch_size :]
            clearing = float(vals[rejected[0]]) if rejected else 0.0
            # True values captured before any commit: bids within a
            # batch are mutually stale by design, and the delta engine
            # computes cells from the *live* state, so reading after a
            # commit would see the relaxed NN distances the naive
            # engine's (deliberately stale) matrix does not.
            batch_true = {w: engine.value_at(w, int(objs[w])) for w in batch}
            committed = 0
            for w in batch:
                obj = int(objs[w])
                if not state.can_host(w, obj):
                    # A stale bid (another batch member changed nothing
                    # for capacity, but warm starts might); skip rather
                    # than fault.
                    if eventing:
                        sink.emit(
                            ev.CapacityReject(
                                t=ev.now(),
                                round=rnd,
                                agent=w,
                                obj=obj,
                                obj_size=int(instance.sizes[obj]),
                                residual=int(state.residual[w]),
                                reason=(
                                    "duplicate" if state.x[w, obj] else "capacity"
                                ),
                            )
                        )
                    continue
                if eventing:
                    sink.emit(
                        ev.WinnerEvent(
                            t=ev.now(),
                            round=rnd,
                            agent=w,
                            obj=obj,
                            value=float(vals[w]),
                            obj_size=int(instance.sizes[obj]),
                            residual_before=int(state.residual[w]),
                        )
                    )
                    sink.emit(
                        ev.PaymentEvent(
                            t=ev.now(),
                            round=rnd,
                            agent=w,
                            amount=clearing,
                            rule="uniform",
                        )
                    )
                state.add_replica(w, obj)
                payments[w] += clearing
                utilities[w] += batch_true[w] - clearing
                committed += 1
                if audit is not None:
                    audit.append(
                        RoundRecord(
                            vals.copy(), objs.copy(), w, obj, clearing, batch_true[w]
                        )
                    )
            if committed == 0:
                # Central body's binary decision: (0) do not replicate.
                if eventing:
                    sink.emit(
                        ev.RoundEnd(
                            t=ev.now(),
                            round=rnd,
                            committed=0,
                            otc=state.tracked_otc(),
                        )
                    )
                break
            # NN updates broadcast once, after the batch commits.
            for w in batch:
                obj = int(objs[w])
                if state.x[w, obj]:
                    engine.refresh_object(obj)
                    engine.refresh_server(w)
            rounds += 1
            if eventing:
                sink.emit(
                    ev.NNUpdateEvent(
                        t=ev.now(), round=rnd, obj=-1, agents=instance.n_servers
                    )
                )
                series.append(
                    otc=state.tracked_otc(),
                    best_bid=best,
                    payment=clearing,
                    n_bids=int(np.isfinite(vals).sum()),
                )
                sink.emit(
                    ev.RoundEnd(
                        t=ev.now(),
                        round=rnd,
                        committed=committed,
                        otc=series.otc[-1],
                    )
                )
        return rounds

    # -- mechanism entry ---------------------------------------------------

    def _run(
        self,
        instance: DRPInstance,
        *,
        record_audit: bool = False,
        initial_state: Optional[ReplicationState] = None,
    ) -> PlacementResult:
        """Play the mechanism to completion.

        ``initial_state`` warm-starts from an existing scheme (adaptive
        re-replication across workload epochs); by default the game
        starts from the primaries-only scheme as in the paper.
        """
        timer = Timer()
        tracer = obs.current()
        traced = tracer.enabled
        sink = ev.current()
        series = ev.RoundSeries() if sink.enabled else None
        audit = MechanismAudit() if record_audit else None
        m = instance.n_servers
        payments = np.zeros(m)
        utilities = np.zeros(m)

        with timer:
            t0 = perf_counter() if traced else 0.0
            if initial_state is not None:
                if initial_state.instance is not instance:
                    raise ConfigurationError(
                        "initial_state belongs to a different instance"
                    )
                state = initial_state
            else:
                state = ReplicationState.primaries_only(instance)
            if self.valuation == "global":
                engine = GlobalBenefitEngine(instance, state)
            elif self.engine == "naive":
                engine = BenefitEngine(instance, state)
            else:
                engine = make_local_engine(instance, state)
            if traced:
                tracer.add("engine_init", perf_counter() - t0)

            cap = (
                self.max_rounds
                if self.max_rounds is not None
                else m * instance.n_objects
            )
            clear = self._clear if self.batch_size == 1 else self._clear_batched
            with tracer.span("clear"):
                rounds = clear(
                    instance, state, engine, cap, payments, utilities, sink,
                    series, audit,
                )
            if traced:
                tracer.count("rounds", rounds)

        extra = {
            "payments": payments,
            "utilities": utilities,
            "payment_rule": self.payment_rule,
            "valuation": self.valuation,
            "engine": engine.engine_name,
        }
        if audit is not None:
            extra["audit"] = audit
        if series is not None:
            extra["round_series"] = series
        return PlacementResult(
            algorithm=self.name if self.valuation == "local" else "AGT-RAM(global)",
            state=state,
            otc=total_otc(state),
            runtime_s=timer.elapsed,
            rounds=rounds,
            extra=extra,
        )


def run_agt_ram(
    instance: DRPInstance,
    *,
    payment_rule: str = "second_price",
    valuation: str = "local",
    strategies: Optional[Mapping[int, Strategy]] = None,
    record_audit: bool = False,
    max_rounds: Optional[int] = None,
    engine: str = "vectorized",
) -> PlacementResult:
    """Functional one-shot entry point for :class:`AGTRam`.

    >>> result = run_agt_ram(instance)          # doctest: +SKIP
    >>> result.savings_percent                  # doctest: +SKIP
    """
    mech = AGTRam(
        payment_rule=payment_rule,
        valuation=valuation,
        strategies=strategies,
        max_rounds=max_rounds,
        engine=engine,
    )
    return mech.run(instance, record_audit=record_audit)

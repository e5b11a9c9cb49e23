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

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.mechanism import Mechanism, MechanismAudit, RoundRecord
from repro.core.payments import PAYMENT_RULES
from repro.core.strategies import Strategy, TruthfulStrategy
from repro.drp.cost import total_otc
from repro.drp.delta import (
    DeltaBenefitEngine,
    ENGINE_NAMES,
    make_local_engine,
    resolve_engine,
)
from repro.drp.global_engine import GlobalBenefitEngine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.obs import tracer as obs
from repro.result import PlacementResult
from repro.utils.timing import Timer, perf_counter
from repro.utils.validation import check_index


class _OtcLedger:
    """Flush-time OTC settlement for the buffered (columnar) loop.

    The per-object path delta-maintains the system OTC inside
    :meth:`~repro.drp.state.ReplicationState.add_replica` — one O(M)
    pass over the just-relaxed (strided) NN column per commit.  Strided
    column walks are an order of magnitude slower than contiguous row
    passes, so the buffered loop does no OTC arithmetic at all: each
    flush *reconstructs* every committed round's relaxed NN column as
    ``min(c(·, P_k), c(·, winner), …)`` from the instance's contiguous
    cost-column rows (:meth:`~repro.drp.instance.DRPInstance.cost_col_rows`),
    batch-gathered and min-chained per chunk, then settles the rounds
    with one batched ``einsum("rj,rj->r", ...)`` and a scalar replay of
    the tracker's exact accumulation.  The reconstruction is value-exact
    (a min-chain of the same floats the broadcast relaxed), the rows are
    contiguous like the tracker's scratch, and chunked batched einsum
    reduces each row independently — so the resulting ``RoundEnd`` OTC
    floats are bit-identical to the per-object path's; the
    byte-equivalence gate pins it.

    Requires a primaries-only start: with pre-existing replicas the
    primary column is not the pre-commit state (the buffered loop is
    not taken for warm starts).
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
        # Seed exactly like the per-commit tracker's fresh path — same
        # cached ``primary_otc_terms`` floats — without ever arming the
        # tracker on the state (the loop's commits must not pay it).
        otc0, read_k = inst.primary_otc_terms()
        self.otc = otc0
        self.read_k = read_k.tolist()
        self.rstat_rows = inst.read_scale_rows()
        self.cost_rows = inst.cost_col_rows()
        self.pmap = inst.primaries
        self.wterm = inst.local_value_terms()[1]
        #: Commit history per object (winner lists) — repeat commits of
        #: one object must min-chain every prior replicator.
        self.chains: dict[int, list[int]] = {}
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
                    # Repeat commit: rebuild the full relax chain.
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
        Safety cap on mechanism rounds (default: no cap beyond the
        natural M·N bound).
    batch_size:
        Allocations per round.  1 is Figure 2 exactly.  B > 1 realizes
        the paper's "provide a *list* of objects" phrasing: the central
        body approves the top-B positive reports of one round together
        (winners are distinct agents, so no storage conflicts), each
        paying the uniform clearing price — the best *rejected* report —
        which stays independent of every winner's own bid.  Rounds drop
        ~B-fold; bids within a round are mutually stale, the same
        trade-off as the concurrent hierarchical mode.
    engine:
        Local-CoR oracle implementation: ``"naive"`` keeps the full
        (M, N) benefit matrix fresh and argmaxes it every round;
        ``"vectorized"`` delta-maintains only the per-agent dominant
        reports from the NN-broadcast dirty set
        (:class:`~repro.drp.delta.DeltaBenefitEngine`) — bit-identical
        winners/payments/events, O(M + |dirty|·N) per round instead of
        O(M·N).  ``"auto"`` (default) picks the vectorized engine when
        the declared numpy bound is available.  Only meaningful for
        ``valuation="local"``; the global-oracle ablation always uses
        its own engine.
    emission:
        Event-emission path when a sink is active.  ``"object"`` is the
        legacy per-decision path (one Python object per bid/winner/
        payment); ``"columnar"`` stages rounds in a preallocated
        struct-of-arrays ring buffer
        (:class:`~repro.obs.events.ColumnarRoundBuffer`) flushed into
        the sink as :class:`~repro.obs.events.RoundBlock`\\ s — same
        events after expansion, byte-identical under logical event
        time, but the hot loop never builds objects.  ``"auto"``
        (default) uses the columnar path whenever the run qualifies for
        the vectorized tight loop (truthful, unbatched, untraced); other
        configurations fall back to the per-object path.
    """

    name = "AGT-RAM"

    #: Valid ``emission`` knob values.
    EMISSION_MODES = ("auto", "object", "columnar")

    def __init__(
        self,
        *,
        payment_rule: str = "second_price",
        valuation: str = "local",
        strategies: Optional[Mapping[int, Strategy]] = None,
        max_rounds: Optional[int] = None,
        batch_size: int = 1,
        engine: str = "auto",
        emission: str = "auto",
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
        if max_rounds is not None and max_rounds < 0:
            raise ConfigurationError("max_rounds must be >= 0")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
            )
        if engine == "vectorized" and valuation != "local":
            raise ConfigurationError(
                "engine='vectorized' delta-maintains the local CoR oracle; "
                "the global-oracle ablation only supports engine='naive'/'auto'"
            )
        if emission not in self.EMISSION_MODES:
            raise ConfigurationError(
                f"unknown emission mode {emission!r}; "
                f"expected one of {self.EMISSION_MODES}"
            )
        self.emission = emission
        self.engine = engine
        self.payment_rule = payment_rule
        self.valuation = valuation
        self.strategies = dict(strategies) if strategies else {}
        self.max_rounds = max_rounds
        self.batch_size = batch_size

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

    def _fast_loop(
        self,
        state: ReplicationState,
        engine: DeltaBenefitEngine,
        pay,
        cap: int,
        payments: np.ndarray,
        utilities: np.ndarray,
    ) -> int:
        """Figure 2's loop over the delta engine's cached bests.

        Only reachable for truthful, unbatched, non-observed runs, where
        reports == true bests and no per-round scaffolding is needed.
        Allocations, payments and utilities are bit-identical to the
        generic loop (same values through the same payment rule, same
        first-index argmax tie-break).
        """
        vals, objs = engine.best_view()
        # Inline Vickrey price via a swap instead of np.delete: the max
        # over the other agents is unchanged (−inf never wins it), and in
        # this loop ``vals`` is NaN-free by construction (finite Eq. 5
        # arithmetic, ineligible cells exactly −inf), so the non-finite
        # filtering of ``second_best_payment`` is vacuous.
        second_price = self.payment_rule == "second_price"
        neg_inf = -np.inf
        rounds = 0
        while rounds < cap:
            winner = int(vals.argmax())
            best = float(vals[winner])
            if not np.isfinite(best) or best <= 0.0:
                break
            obj = int(objs[winner])
            if second_price:
                vals[winner] = neg_inf
                runner_up = float(vals.max())
                vals[winner] = best
                payment = runner_up if runner_up > 0.0 else 0.0
            else:
                payment = pay(vals, winner)
            payments[winner] += payment
            utilities[winner] += best - payment
            state.add_replica(winner, obj)
            engine.notify_allocation(winner, obj)
            rounds += 1
        return rounds

    def _flush_block(self, buf, sink, series, ledger=None) -> None:
        """Flush the ring into the sink and fill the round series.

        Series values come off the block columns via ``tolist()`` —
        python-native scalars, the same bits the per-object path's
        ``float()``/``int()`` casts produce.  When a ``ledger`` is given
        its :meth:`_OtcLedger.fill` settles the ring's ``otcs`` column
        first — the hot loop never touches OTC at all.
        """
        if ledger is not None:
            ledger.fill(buf)
        block = buf.flush()
        if block is None:
            return
        if series is not None:
            idx = np.nonzero(block.winners >= 0)[0]
            if len(idx):
                series.otc.extend(block.otcs[idx].tolist())
                series.best_bid.extend(
                    block.bid_vals[idx, block.winners[idx]].tolist()
                )
                series.payment.extend(block.payments[idx].tolist())
                series.n_bids.extend(block.n_bids[idx].tolist())
        sink.emit_block(block)

    def _buffered_loop(
        self,
        instance: DRPInstance,
        state: ReplicationState,
        engine: DeltaBenefitEngine,
        pay,
        cap: int,
        payments: np.ndarray,
        utilities: np.ndarray,
        sink,
        series,
    ) -> int:
        """The :meth:`_fast_loop` arithmetic with columnar eventing.

        Each round stages its pre-commit bid vectors and commit scalars
        into a preallocated ring (plain array stores — no per-decision
        objects); the ring flushes into the sink as
        :class:`~repro.obs.events.RoundBlock`\\ s when full and once at
        the end.  Expansion reproduces the per-object event stream
        exactly (byte-identical under logical time); ``RoundEnd.otc`` is
        settled per *flush* by the :class:`_OtcLedger`, which rebuilds
        the committed NN columns from contiguous cost rows — the loop
        itself does no OTC arithmetic, matching the per-object path's
        tracker bit-for-bit.
        """
        vals, objs = engine.best_view()
        # Inline Vickrey price via the same swap as _fast_loop — vals is
        # NaN-free here, so this is bit-identical to second_best_payment.
        second_price = self.payment_rule == "second_price"
        neg_inf = -np.inf
        capacities = instance.capacities
        used = state.used
        ledger = _OtcLedger(state)
        buf = ev.ColumnarRoundBuffer(
            instance.n_servers,
            instance.sizes,
            capacity=min(512, cap + 1),
            payment_rule=self.payment_rule,
        )
        # The loop counts finite reports per round while the bid vector
        # is cache-hot; the flush then skips its whole-ring scan.
        buf.staged_n_bids = True
        fin = np.empty(instance.n_servers, dtype=bool)
        # Bind the ring columns locally; the flush re-arms the buffer
        # with fresh arrays, so rebind after each one.
        bid_vals, bid_objs = buf.bid_vals, buf.bid_objs
        win_col, obj_col = buf.winners, buf.objs
        res_col, pay_col, nb_col = buf.residuals, buf.payments, buf.n_bids
        ring_cap = buf.capacity
        n = 0
        rounds = 0
        while rounds < cap:
            winner = int(vals.argmax())
            best = float(vals[winner])
            bid_vals[n] = vals  # staged pre-commit, rows are copies
            bid_objs[n] = objs
            np.isfinite(vals, out=fin)
            nb_col[n] = np.count_nonzero(fin)
            if not np.isfinite(best) or best <= 0.0:
                # Central body's binary decision: (0) do not replicate.
                win_col[n] = -1
                obj_col[n] = -1
                res_col[n] = 0
                pay_col[n] = 0.0
                buf.n = n + 1
                break
            obj = int(objs[winner])
            if second_price:
                vals[winner] = neg_inf
                runner_up = float(vals.max())
                vals[winner] = best
                payment = runner_up if runner_up > 0.0 else 0.0
            else:
                payment = pay(vals, winner)
            payments[winner] += payment
            utilities[winner] += best - payment
            residual_before = int(capacities[winner]) - int(used[winner])
            state.add_replica(winner, obj)
            engine.notify_allocation(winner, obj)
            win_col[n] = winner
            obj_col[n] = obj
            res_col[n] = residual_before
            pay_col[n] = payment
            n += 1
            rounds += 1
            if n == ring_cap:
                buf.n = n
                self._flush_block(buf, sink, series, ledger)
                bid_vals, bid_objs = buf.bid_vals, buf.bid_objs
                win_col, obj_col = buf.winners, buf.objs
                res_col, pay_col, nb_col = (
                    buf.residuals,
                    buf.payments,
                    buf.n_bids,
                )
                n = 0
        else:
            buf.n = n
        self._flush_block(buf, sink, series, ledger)
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
        pay = PAYMENT_RULES[self.payment_rule]
        timer = Timer()
        tracer = obs.current()
        traced = tracer.enabled
        sink = ev.current()
        eventing = sink.enabled
        series = ev.RoundSeries() if eventing else None
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
            if self.valuation == "local":
                engine_name = resolve_engine(self.engine)
                engine = make_local_engine(engine_name, instance, state)
            else:
                engine_name = "naive"
                engine = GlobalBenefitEngine(instance, state)
            if traced:
                tracer.add("engine_init", perf_counter() - t0)

            rounds = 0
            round_idx = 0  # event-stream round label (includes the closing round)
            cap = self.max_rounds if self.max_rounds is not None else m * instance.n_objects

            # Tight loop for the vectorized engine when nothing needs the
            # per-round observability scaffolding: same allocations, same
            # payments (bit-identical — the equivalence tests pin it),
            # but ~10 numpy calls per round instead of a full O(M·N)
            # sweep plus event/tracer bookkeeping.
            tight = (
                isinstance(engine, DeltaBenefitEngine)
                and not self.strategies
                and self.batch_size == 1
                and not traced
                and audit is None
            )
            fast = tight and not eventing
            # The columnar path keeps eventing ON through the tight
            # loop: rounds are staged in a preallocated ring and flushed
            # as blocks, instead of bailing to the per-object loop.  Its
            # ledger reconstructs NN columns from the primaries, so it
            # needs a primaries-only start; warm starts take the
            # per-object path.
            buffered = (
                tight
                and eventing
                and self.emission != "object"
                and state.n_replicas_added == 0
            )
            if eventing and not buffered:
                # Per-round OTC telemetry (RoundEnd / series) comes from
                # the state's incremental tracker — one O(M) einsum per
                # commit instead of an O(M·N) recompute per round.  The
                # buffered loop skips even that: its _OtcLedger settles
                # OTC per flush, producing the same floats bit-for-bit.
                state.begin_otc_tracking()
            if fast:
                rounds = self._fast_loop(
                    state, engine, pay, cap, payments, utilities
                )
                cap = rounds  # generic loop below is skipped
            elif buffered:
                rounds = self._buffered_loop(
                    instance,
                    state,
                    engine,
                    pay,
                    cap,
                    payments,
                    utilities,
                    sink,
                    series,
                )
                cap = rounds  # generic loop below is skipped
            while rounds < cap:
                round_idx = rounds
                if eventing:
                    sink.emit(ev.RoundStart(t=ev.now(), round=round_idx))
                # PARFOR bid sweep (Figure 2 lines 03-09).
                t0 = perf_counter() if traced else 0.0
                true_vals, true_objs = engine.best_per_server()
                reported_vals, reported_objs = self._reports(
                    true_vals, true_objs, engine
                )
                if traced:
                    tracer.add("round/bid_sweep", perf_counter() - t0)
                if eventing:
                    for agent in np.nonzero(np.isfinite(reported_vals))[0]:
                        sink.emit(
                            ev.BidEvent(
                                t=ev.now(),
                                round=round_idx,
                                agent=int(agent),
                                obj=int(reported_objs[agent]),
                                value=float(reported_vals[agent]),
                            )
                        )
                t0 = perf_counter() if traced else 0.0
                # OMAX selection (line 10).
                winner = int(np.argmax(reported_vals))
                best = float(reported_vals[winner])
                if traced:
                    tracer.add("round/argmax", perf_counter() - t0)
                if not np.isfinite(best) or best <= 0.0:
                    # Central body's binary decision: (0) do not replicate.
                    if eventing:
                        sink.emit(
                            ev.RoundEnd(
                                t=ev.now(),
                                round=round_idx,
                                committed=0,
                                otc=state.tracked_otc(),
                            )
                        )
                    if audit is not None:
                        audit.append(
                            RoundRecord(
                                reported=reported_vals.copy(),
                                objects=reported_objs.copy(),
                                winner=-1,
                                obj=-1,
                                payment=0.0,
                                true_value=0.0,
                            )
                        )
                    break

                if self.batch_size == 1:
                    # Payment (lines 11-12, Axiom 5).
                    t0 = perf_counter() if traced else 0.0
                    obj = int(reported_objs[winner])
                    payment = pay(reported_vals, winner)
                    # The winner's *true* value for the object it was
                    # awarded (not necessarily its truthful argmax when
                    # deviating).
                    true_value = engine.value_at(winner, obj)
                    payments[winner] += payment
                    utilities[winner] += true_value - payment
                    if traced:
                        tracer.add("round/payment", perf_counter() - t0)
                    if eventing:
                        sink.emit(
                            ev.WinnerEvent(
                                t=ev.now(),
                                round=round_idx,
                                agent=winner,
                                obj=obj,
                                value=best,
                                obj_size=int(instance.sizes[obj]),
                                residual_before=int(state.residual[winner]),
                            )
                        )
                        sink.emit(
                            ev.PaymentEvent(
                                t=ev.now(),
                                round=round_idx,
                                agent=winner,
                                amount=payment,
                                rule=self.payment_rule,
                            )
                        )
                    t0 = perf_counter() if traced else 0.0

                    # Commit + NN broadcast (lines 13-21).
                    state.add_replica(winner, obj)
                    engine.notify_allocation(winner, obj)
                    rounds += 1
                    if traced:
                        tracer.add("round/nn_broadcast", perf_counter() - t0)
                    if eventing:
                        sink.emit(
                            ev.NNUpdateEvent(
                                t=ev.now(), round=round_idx, obj=obj, agents=m
                            )
                        )
                        assert series is not None
                        series.append(
                            otc=state.tracked_otc(),
                            best_bid=best,
                            payment=payment,
                            n_bids=int(np.isfinite(reported_vals).sum()),
                        )
                        sink.emit(
                            ev.RoundEnd(
                                t=ev.now(),
                                round=round_idx,
                                committed=1,
                                otc=series.otc[-1],
                            )
                        )

                    if audit is not None:
                        audit.append(
                            RoundRecord(
                                reported=reported_vals.copy(),
                                objects=reported_objs.copy(),
                                winner=winner,
                                obj=obj,
                                payment=payment,
                                true_value=true_value,
                            )
                        )
                    continue

                # Batched round: approve the top-B positive reports at a
                # uniform clearing price (the best rejected report),
                # which no winner's own bid can influence.
                t0 = perf_counter() if traced else 0.0
                order = np.argsort(reported_vals)[::-1]
                positive = [
                    int(i)
                    for i in order
                    if np.isfinite(reported_vals[i]) and reported_vals[i] > 0.0
                ]
                batch = positive[: self.batch_size]
                rejected = positive[self.batch_size :]
                clearing = (
                    float(reported_vals[rejected[0]]) if rejected else 0.0
                )
                # True values captured before any commit: bids within a
                # batch are mutually stale by design, and the delta
                # engine computes cells from the *live* state, so reading
                # after a commit would see the relaxed NN distances the
                # naive engine's (deliberately stale) matrix does not.
                batch_true = {
                    w: engine.value_at(w, int(reported_objs[w])) for w in batch
                }
                committed = 0
                for w in batch:
                    obj = int(reported_objs[w])
                    if not state.can_host(w, obj):
                        # A stale bid (another batch member changed
                        # nothing for capacity, but warm starts might);
                        # skip rather than fault.
                        if eventing:
                            sink.emit(
                                ev.CapacityReject(
                                    t=ev.now(),
                                    round=round_idx,
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
                    true_value = batch_true[w]
                    if eventing:
                        sink.emit(
                            ev.WinnerEvent(
                                t=ev.now(),
                                round=round_idx,
                                agent=w,
                                obj=obj,
                                value=float(reported_vals[w]),
                                obj_size=int(instance.sizes[obj]),
                                residual_before=int(state.residual[w]),
                            )
                        )
                        sink.emit(
                            ev.PaymentEvent(
                                t=ev.now(),
                                round=round_idx,
                                agent=w,
                                amount=clearing,
                                rule="uniform",
                            )
                        )
                    state.add_replica(w, obj)
                    payments[w] += clearing
                    utilities[w] += true_value - clearing
                    committed += 1
                    if audit is not None:
                        audit.append(
                            RoundRecord(
                                reported=reported_vals.copy(),
                                objects=reported_objs.copy(),
                                winner=w,
                                obj=obj,
                                payment=clearing,
                                true_value=true_value,
                            )
                        )
                if traced:
                    tracer.add("round/payment", perf_counter() - t0)
                if committed == 0:
                    if eventing:
                        sink.emit(
                            ev.RoundEnd(
                                t=ev.now(),
                                round=round_idx,
                                committed=0,
                                otc=state.tracked_otc(),
                            )
                        )
                    break
                # NN updates broadcast once, after the batch commits.
                t0 = perf_counter() if traced else 0.0
                for w in batch:
                    obj = int(reported_objs[w])
                    if state.x[w, obj]:
                        engine.refresh_object(obj)
                        engine.refresh_server(w)
                rounds += 1
                if traced:
                    tracer.add("round/nn_broadcast", perf_counter() - t0)
                if eventing:
                    sink.emit(
                        ev.NNUpdateEvent(
                            t=ev.now(), round=round_idx, obj=-1, agents=m
                        )
                    )
                    assert series is not None
                    series.append(
                        otc=state.tracked_otc(),
                        best_bid=best,
                        payment=clearing,
                        n_bids=int(np.isfinite(reported_vals).sum()),
                    )
                    sink.emit(
                        ev.RoundEnd(
                            t=ev.now(),
                            round=round_idx,
                            committed=committed,
                            otc=series.otc[-1],
                        )
                    )

            if traced:
                tracer.count("rounds", rounds)

        extra = {
            "payments": payments,
            "utilities": utilities,
            "payment_rule": self.payment_rule,
            "valuation": self.valuation,
            "engine": engine_name,
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
    engine: str = "auto",
    emission: str = "auto",
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
        emission=emission,
    )
    return mech.run(instance, record_audit=record_audit)

"""Tests for the fault-injection subsystem (repro.runtime.faults).

Covers the unit pieces (schedule, channel, quorum, checkpoints), the
simulator integration invariants (null-plan equivalence, determinism,
feasibility under chaos, central-crash recovery, stall/convergence),
and the audit-modulo-fault-log contract.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from _faults_reference import random_schedule
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ConvergenceError
from repro.obs import events as ev
from repro.obs.audit import audit_events
from repro.runtime.faults import (
    ChannelConfig,
    Checkpoint,
    CheckpointStore,
    Delivery,
    FaultPlan,
    FaultSchedule,
    FaultyChannel,
    QuorumPolicy,
)
from repro.runtime.simulator import SemiDistributedSimulator


# -- channel ------------------------------------------------------------------


class TestChannel:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelConfig(drop=1.0)
        with pytest.raises(ConfigurationError):
            ChannelConfig(delay=-0.1)
        assert ChannelConfig().lossless
        assert not ChannelConfig(duplicate=0.1).lossless

    def test_lossless_channel_always_delivers(self):
        ch = FaultyChannel(ChannelConfig(), seed=3)
        assert all(ch.transmit() is Delivery.DELIVERED for _ in range(50))
        assert ch.stats["delivered"] == 50

    def test_same_seed_same_loss_pattern(self):
        cfg = ChannelConfig(drop=0.3, delay=0.2, duplicate=0.1)
        ch1, ch2 = FaultyChannel(cfg, seed=7), FaultyChannel(cfg, seed=7)
        assert [ch1.transmit() for _ in range(200)] == [
            ch2.transmit() for _ in range(200)
        ]
        assert ch1.stats == ch2.stats

    def test_stats_partition_transmissions(self):
        ch = FaultyChannel(ChannelConfig(drop=0.4, duplicate=0.3), seed=0)
        for _ in range(300):
            ch.transmit()
        assert sum(ch.stats.values()) == 300
        assert ch.stats["dropped"] > 0 and ch.stats["duplicated"] > 0


# -- schedule -----------------------------------------------------------------


class TestFaultSchedule:
    def test_null(self):
        s = FaultSchedule.null()
        assert s.is_null
        assert not s.agent_down(0, 0)
        assert not s.central_crashes_at(0)
        assert not s.is_straggler(0, 0)

    def test_scripted_intervals(self):
        s = FaultSchedule(
            agent_crashes={3: ((2, 5),)},
            central_crashes={4},
            stragglers={(1, 0)},
        )
        assert not s.is_null
        assert not s.agent_down(3, 1)
        assert s.agent_down(3, 2) and s.agent_down(3, 4)
        assert not s.agent_down(3, 5)  # half-open [start, end)
        assert s.central_crashes_at(4) and not s.central_crashes_at(3)
        assert s.is_straggler(1, 0) and not s.is_straggler(0, 1)

    def test_malformed_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(agent_crashes={0: ((5, 5),)})
        with pytest.raises(ConfigurationError):
            FaultSchedule(agent_crashes={0: ((-1, 2),)})

    def test_random_is_deterministic(self):
        kw = dict(
            n_agents=8, horizon=50, seed=11, crash_rate=0.1,
            straggler_rate=0.05, central_crash_rate=0.04,
        )
        assert FaultSchedule.random(**kw).to_dict() == FaultSchedule.random(
            **kw
        ).to_dict()
        other = FaultSchedule.random(**{**kw, "seed": 12})
        assert other.to_dict() != FaultSchedule.random(**kw).to_dict()

    def test_dict_round_trip(self):
        s = FaultSchedule.random(
            n_agents=6, horizon=30, seed=2, crash_rate=0.15,
            straggler_rate=0.1, central_crash_rate=0.05,
        )
        assert FaultSchedule.from_dict(s.to_dict()).to_dict() == s.to_dict()
        assert json.loads(json.dumps(s.to_dict())) == s.to_dict()

    def test_random_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.random(n_agents=0, horizon=10)
        with pytest.raises(ConfigurationError):
            FaultSchedule.random(n_agents=2, horizon=10, crash_rate=1.0)
        with pytest.raises(ConfigurationError):
            FaultSchedule.random(n_agents=2, horizon=10, mean_outage=0.5)

    # numpy's geometric switches from inversion to search at p = 1/3,
    # so mean outages of 1 and 3 take the search and 5.5 the inversion.
    # Rates up to 0.05 over horizons of 20 or more take the block draws.
    @settings(max_examples=80, deadline=None)
    @given(
        crash_rate=st.one_of(
            st.just(0.0), st.floats(0.01, 0.05), st.floats(0.01, 0.99)
        ),
        mean_outage=st.sampled_from([1.0, 3.0, 5.5]),
        horizon=st.integers(0, 1000),
        n_agents=st.integers(1, 200),
        straggler_rate=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(0.99, 1.0, 1000, 3, 0.0, 0)
    @example(0.02, 3.0, 1000, 160, 0.02, 23)
    @example(0.5, 5.5, 1, 4, 0.0, 1)
    @example(0.05, 1.0, 20, 50, 0.0, 2)
    @example(0.05, 3.0, 19, 50, 0.0, 3)
    @example(0.05000000000000001, 3.0, 1000, 20, 0.0, 4)
    def test_random_matches_scalar_loop(
        self, crash_rate, mean_outage, horizon, n_agents, straggler_rate, seed
    ):
        """Block draws give the plan and leave the stream exactly where
        a scalar draw per (agent, round) cell does."""
        kw = dict(
            n_agents=n_agents, horizon=horizon, crash_rate=crash_rate,
            mean_outage=mean_outage, straggler_rate=straggler_rate,
        )
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = FaultSchedule.random(seed=rng, **kw)
        assert got.to_dict() == random_schedule(seed=ref_rng, **kw).to_dict()
        assert rng.random() == ref_rng.random()


# -- quorum / checkpoints -----------------------------------------------------


class TestQuorumPolicy:
    def test_required(self):
        q = QuorumPolicy(quorum=0.5)
        assert q.required(0) == 0
        assert q.required(1) == 1
        assert q.required(10) == 5
        assert q.required(11) == 6
        assert QuorumPolicy(quorum=1.0).required(7) == 7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuorumPolicy(quorum=0.0)
        with pytest.raises(ConfigurationError):
            QuorumPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            QuorumPolicy(max_stalled_rounds=0)


class TestCheckpointStore:
    def test_snapshots_every_period(self):
        store = CheckpointStore(period=2)
        assert not store.commit(0, 10, rnd=0)
        assert store.commit(1, 11, rnd=1)  # 2nd commit -> snapshot
        assert not store.commit(2, 12, rnd=2)
        assert store.taken == 1
        ckpt = store.restore()
        assert ckpt.round == 1
        assert ckpt.allocations == ((0, 10), (1, 11))
        assert store.lost_since_checkpoint == 1

    def test_empty_restore(self):
        store = CheckpointStore(period=4)
        assert store.restore() == Checkpoint()
        assert store.restore().round == -1

    def test_period_zero_disables(self):
        store = CheckpointStore(period=0)
        for i in range(10):
            assert not store.commit(i, i, rnd=i)
        assert store.taken == 0
        assert store.lost_since_checkpoint == 10

    def test_checkpoint_dict_round_trip(self):
        c = Checkpoint(round=3, allocations=((1, 2), (0, 5)))
        assert Checkpoint.from_dict(c.to_dict()) == c


# -- simulator integration ----------------------------------------------------


def _series_tuple(result):
    s = result.extra["round_series"]
    return (tuple(s.otc), tuple(s.messages), tuple(s.bytes), tuple(s.n_bids))


class TestNullPlanEquivalence:
    """A null fault plan must be byte-identical to no fault plan at all."""

    def test_scheme_rounds_messages_bytes(self, tiny_instance):
        base = SemiDistributedSimulator().run(tiny_instance)
        nul = SemiDistributedSimulator(faults=FaultPlan()).run(tiny_instance)
        assert np.array_equal(base.state.x, nul.state.x)
        assert base.otc == pytest.approx(nul.otc)
        assert base.rounds == nul.rounds
        assert nul.extra["protocol_rounds"] == nul.rounds + 1
        blog = base.extra["metrics"].log
        nlog = nul.extra["metrics"].log
        assert blog.counts == nlog.counts
        assert blog.bytes_total == nlog.bytes_total

    def test_round_series_identical(self, tiny_instance):
        with ev.capture():
            base = SemiDistributedSimulator().run(tiny_instance)
        with ev.capture():
            nul = SemiDistributedSimulator(faults=FaultPlan()).run(
                tiny_instance
            )
        assert _series_tuple(base) == _series_tuple(nul)

    def test_null_plan_injects_nothing(self, tiny_instance):
        nul = SemiDistributedSimulator(faults=FaultPlan()).run(tiny_instance)
        injected = nul.extra["fault_summary"]["injected"]
        assert injected["bids_lost"] == 0
        assert injected["drops"] == 0
        assert injected["stalled_rounds"] == 0
        assert injected["central_crashes"] == 0


def _chaos_plan(m, *, seed=5):
    return FaultPlan(
        schedule=FaultSchedule.random(
            n_agents=m, horizon=300, seed=seed, crash_rate=0.05,
            straggler_rate=0.04, central_crash_rate=0.03,
        ),
        channel=ChannelConfig(drop=0.15, delay=0.08, duplicate=0.06),
        seed=seed,
    )


class TestChaosRuns:
    def test_same_seed_byte_identical_event_log(self, tiny_instance):
        plan = _chaos_plan(tiny_instance.n_servers)

        def run():
            with ev.logical_time(), ev.capture() as sink:
                res = SemiDistributedSimulator(faults=plan).run(tiny_instance)
            return res, "\n".join(
                json.dumps(e.to_dict(), sort_keys=True) for e in sink.events
            )

        r1, log1 = run()
        r2, log2 = run()
        assert np.array_equal(r1.state.x, r2.state.x)
        assert log1 == log2

    def test_chaos_stays_feasible_with_primaries(self, tiny_instance):
        from repro.drp.feasibility import check_state

        res = SemiDistributedSimulator(
            faults=_chaos_plan(tiny_instance.n_servers)
        ).run(tiny_instance)
        check_state(res.state)  # capacity + primary copies + NN consistency
        # Primary copies explicitly retained.
        x = res.state.x
        for obj, server in enumerate(tiny_instance.primaries):
            assert x[server, obj] == 1

    def test_faults_cost_messages_not_quality_collapse(self, tiny_instance):
        from repro.drp.cost import total_otc
        from repro.drp.state import ReplicationState

        base = SemiDistributedSimulator().run(tiny_instance)
        res = SemiDistributedSimulator(
            faults=_chaos_plan(tiny_instance.n_servers)
        ).run(tiny_instance)
        # Chaos bills strictly more traffic than the clean run...
        assert (
            res.extra["metrics"].log.bytes_total
            > base.extra["metrics"].log.bytes_total
        )
        # ...but never does worse than allocating nothing at all.
        primaries_otc = total_otc(
            ReplicationState.primaries_only(tiny_instance)
        )
        assert res.otc <= primaries_otc

    def test_chaos_log_passes_audit(self, tiny_instance):
        with ev.logical_time(), ev.capture() as sink:
            SemiDistributedSimulator(
                faults=_chaos_plan(tiny_instance.n_servers)
            ).run(tiny_instance)
        report = audit_events(sink.events)
        assert report.ok, report.summary()
        assert report.faults_seen > 0

    def test_fault_summary_shape(self, tiny_instance):
        res = SemiDistributedSimulator(
            faults=_chaos_plan(tiny_instance.n_servers)
        ).run(tiny_instance)
        summary = res.extra["fault_summary"]
        assert json.loads(json.dumps(summary)) == summary  # JSON-safe
        assert summary["injected"]["bid_attempts"] > 0
        # Every non-straggler bid attempt went through the channel (NN
        # gossip transmissions come on top).
        assert (
            sum(summary["channel"].values())
            >= summary["injected"]["bid_attempts"]
            - summary["injected"]["stragglers"]
        )


class TestQuorumStalls:
    def test_universal_straggler_round_stalls(self, tiny_instance):
        m = tiny_instance.n_servers
        plan = FaultPlan(
            schedule=FaultSchedule(
                stragglers={(0, a) for a in range(m)}
            )
        )
        base = SemiDistributedSimulator().run(tiny_instance)
        res = SemiDistributedSimulator(faults=plan).run(tiny_instance)
        injected = res.extra["fault_summary"]["injected"]
        assert injected["stalled_rounds"] >= 1
        assert injected["timeouts"] >= 1
        assert res.extra["protocol_rounds"] > res.rounds + 1
        # A stalled round delays the game but changes nothing.
        assert np.array_equal(base.state.x, res.state.x)

    def test_timeout_event_lists_missing_bidders(self, tiny_instance):
        m = tiny_instance.n_servers
        plan = FaultPlan(
            schedule=FaultSchedule(stragglers={(0, 0), (0, 1)})
        )
        with ev.capture() as sink:
            SemiDistributedSimulator(faults=plan).run(tiny_instance)
        timeouts = [e for e in sink.events if isinstance(e, ev.TimeoutEvent)]
        assert len(timeouts) == 1
        assert timeouts[0].agents == (0, 1)
        assert timeouts[0].expected == m
        assert timeouts[0].received == m - 2
        assert timeouts[0].quorum_met

    def test_perpetual_blackout_raises_convergence_error(self, tiny_instance):
        m = tiny_instance.n_servers
        plan = FaultPlan(
            schedule=FaultSchedule(
                stragglers={(r, a) for r in range(50) for a in range(m)}
            ),
            quorum=QuorumPolicy(max_stalled_rounds=3),
        )
        with pytest.raises(ConvergenceError, match="stalled"):
            SemiDistributedSimulator(faults=plan).run(tiny_instance)

    def test_full_crash_round_is_a_stall_not_termination(self, tiny_instance):
        m = tiny_instance.n_servers
        plan = FaultPlan(
            schedule=FaultSchedule(
                agent_crashes={a: ((0, 2),) for a in range(m)}
            )
        )
        base = SemiDistributedSimulator().run(tiny_instance)
        res = SemiDistributedSimulator(faults=plan).run(tiny_instance)
        assert np.array_equal(base.state.x, res.state.x)
        assert res.extra["fault_summary"]["injected"]["stalled_rounds"] >= 2


class TestCentralCrashRecovery:
    def test_recovery_is_lossless_to_the_scheme(self, tiny_instance):
        base = SemiDistributedSimulator().run(tiny_instance)
        plan = FaultPlan(
            schedule=FaultSchedule(central_crashes={3}), checkpoint_period=2
        )
        res = SemiDistributedSimulator(faults=plan).run(tiny_instance)
        assert np.array_equal(base.state.x, res.state.x)
        assert res.otc == pytest.approx(base.otc)
        injected = res.extra["fault_summary"]["injected"]
        assert injected["central_crashes"] == 1
        assert injected["recoveries"] == 1
        # Election + state sync are billed as messages.
        counts = res.extra["metrics"].log.counts
        assert counts["ElectionMessage"] > 0
        assert counts["StateSyncMessage"] > 0
        assert res.extra["acting_central"] == 0  # lowest live id takes over

    def test_recovery_events_emitted(self, tiny_instance):
        plan = FaultPlan(
            schedule=FaultSchedule(central_crashes={3}), checkpoint_period=2
        )
        with ev.capture() as sink:
            SemiDistributedSimulator(faults=plan).run(tiny_instance)
        kinds = [type(e).__name__ for e in sink.events]
        assert "ElectionEvent" in kinds
        assert "CheckpointEvent" in kinds
        crash = [
            e
            for e in sink.events
            if isinstance(e, ev.FaultEvent) and e.kind == "central_crash"
        ]
        assert len(crash) == 1 and crash[0].round == 3
        rec = [
            e
            for e in sink.events
            if isinstance(e, ev.RecoveryEvent) and e.kind == "central"
        ]
        assert len(rec) == 1
        assert rec[0].acting_central == 0
        assert rec[0].checkpoint_round >= 0  # a checkpoint existed
        assert rec[0].replayed >= 0

    def test_recovery_without_checkpoints_replays_everything(
        self, tiny_instance
    ):
        base = SemiDistributedSimulator().run(tiny_instance)
        plan = FaultPlan(
            schedule=FaultSchedule(central_crashes={5}), checkpoint_period=0
        )
        with ev.capture() as sink:
            res = SemiDistributedSimulator(faults=plan).run(tiny_instance)
        assert np.array_equal(base.state.x, res.state.x)
        rec = [e for e in sink.events if isinstance(e, ev.RecoveryEvent)]
        assert rec[0].checkpoint_round == -1  # nothing to restore
        assert rec[0].replayed == 5  # all five commits re-learned


class TestAgentCrashIntervals:
    def test_crash_and_recovery_events(self, tiny_instance):
        plan = FaultPlan(
            schedule=FaultSchedule(agent_crashes={2: ((1, 4),)})
        )
        with ev.capture() as sink:
            res = SemiDistributedSimulator(faults=plan).run(tiny_instance)
        injected = res.extra["fault_summary"]["injected"]
        assert injected["agent_crashes"] == 1
        assert injected["agent_recoveries"] == 1
        crashes = [
            e
            for e in sink.events
            if isinstance(e, ev.FaultEvent) and e.kind == "agent_crash"
        ]
        recoveries = [
            e
            for e in sink.events
            if isinstance(e, ev.RecoveryEvent) and e.kind == "agent"
        ]
        assert [e.agent for e in crashes] == [2]
        assert [e.agent for e in recoveries] == [2]
        assert crashes[0].round == 1 and recoveries[0].round == 4

    def test_down_agent_still_feasible(self, tiny_instance):
        from repro.drp.feasibility import check_state

        plan = FaultPlan(
            schedule=FaultSchedule(
                agent_crashes={0: ((0, 10),), 1: ((3, 6),)}
            )
        )
        res = SemiDistributedSimulator(faults=plan).run(tiny_instance)
        check_state(res.state)


# -- audit modulo the fault log ----------------------------------------------


def _degraded_round() -> list[ev.Event]:
    """A quorum-degraded round: agent 1's (higher) bid was lost, so
    agent 0 legitimately wins at the second price among survivors."""
    return [
        ev.RunStart(t=0.0, algorithm="AGT-RAM(simulated)"),
        ev.RoundStart(t=1.0, round=0),
        ev.BidEvent(t=2.0, round=0, agent=0, obj=3, value=5.0),
        ev.BidEvent(t=3.0, round=0, agent=1, obj=4, value=9.0),
        ev.BidEvent(t=4.0, round=0, agent=2, obj=5, value=2.0),
        ev.TimeoutEvent(
            t=5.0, round=0, agents=(1,), expected=3, received=2,
            quorum_met=True,
        ),
        ev.WinnerEvent(
            t=6.0, round=0, agent=0, obj=3, value=5.0, obj_size=2,
            residual_before=10,
        ),
        ev.PaymentEvent(t=7.0, round=0, agent=0, amount=2.0),
        ev.RoundEnd(t=8.0, round=0, committed=1, otc=100.0),
        ev.RunEnd(t=9.0, algorithm="AGT-RAM(simulated)", otc=100.0, rounds=1),
    ]


class TestAuditModuloFaults:
    def test_degraded_round_passes_with_timeout_declared(self):
        report = audit_events(_degraded_round())
        assert report.ok, report.summary()
        assert report.timeouts_seen == 1
        assert "modulo" in report.summary()

    def test_same_round_fails_without_the_timeout(self):
        events = [
            e for e in _degraded_round() if not isinstance(e, ev.TimeoutEvent)
        ]
        report = audit_events(events)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "winner" in kinds  # 5.0 lost to the undeclared 9.0
        assert "payment" in kinds  # second price should have been 9.0

    def test_winner_declared_lost_is_flagged(self):
        events = _degraded_round()
        # Tamper: claim the winner's own bid was lost.
        events[5] = ev.TimeoutEvent(
            t=5.0, round=0, agents=(0,), expected=3, received=2,
            quorum_met=True,
        )
        report = audit_events(events)
        assert not report.ok
        assert any("lost" in str(v) for v in report.violations)

    def test_timeout_naming_non_bidder_is_flagged(self):
        events = _degraded_round()
        events[5] = ev.TimeoutEvent(
            t=5.0, round=0, agents=(7,), expected=3, received=2,
            quorum_met=True,
        )
        report = audit_events(events)
        assert not report.ok
        assert any(v.kind == "structure" for v in report.violations)

    def test_fault_events_are_tallied(self):
        events = _degraded_round()
        events.insert(
            2, ev.FaultEvent(t=1.5, round=0, kind="drop", agent=1, target="bid")
        )
        report = audit_events(events)
        assert report.ok
        assert report.faults_seen == 1

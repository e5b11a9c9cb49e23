"""Tests for the online safety checks: the audits, run live."""

import pytest

from repro.errors import ConfigurationError, InvariantViolationError
from repro.obs import events as ev
from repro.obs.audit import audit_events, audit_sharded_events
from repro.runtime.invariants import InvariantConfig, InvariantMonitor
from repro.runtime.simulator import SemiDistributedSimulator


def complete_round(
    round=0, winner=1, obj=0, bids=((1, 10.0), (2, 4.0)), size=2,
    residual=5, amount=None, region=-1,
):
    """One complete round: ``winner`` takes ``obj`` on its bid and is
    paid ``amount`` (default: the true second price)."""
    values = dict(bids)
    if amount is None:
        amount = max(v for a, v in bids if a != winner)
    return [
        ev.RoundStart(t=0.0, round=round, region=region),
        *(
            ev.BidEvent(
                t=0.0, round=round, agent=a, obj=obj, value=v, region=region
            )
            for a, v in bids
        ),
        ev.WinnerEvent(
            t=0.0, round=round, agent=winner, obj=obj, value=values[winner],
            obj_size=size, residual_before=residual, region=region,
        ),
        ev.PaymentEvent(
            t=0.0, round=round, agent=winner, amount=amount, region=region
        ),
        ev.RoundEnd(t=0.0, round=round, committed=1, region=region),
    ]


def monitored(events, **kwargs) -> InvariantMonitor:
    mon = InvariantMonitor(**kwargs)
    for e in events:
        mon.emit(e)
    mon.finish()
    return mon


def split_window(*, revoked=((2, 3),), refund=1, payment=3.0):
    """A sharded run: agents 1 (region 0) and 2 (region 1) both take
    object 3 in a two-island partition; the reconcile keeps agent 1's
    copy and revokes ``revoked``."""
    return [
        ev.RunStart(t=0.0, algorithm="Sharded-AGT-RAM"),
        ev.PartitionEvent(t=0.0, round=0, islands=(0, 1)),
        *complete_round(
            round=0, winner=1, obj=3, bids=((1, 10.0), (3, 9.0)), size=1,
            residual=5, region=0,
        ),
        *complete_round(
            round=0, winner=2, obj=3, bids=((2, 8.0), (4, 3.0)), size=1,
            residual=5, region=1,
        ),
        ev.ReconcileEvent(
            t=0.0, round=1, conflicts=(3,), kept=((1, 3),), revoked=revoked,
            refunded_capacity=refund, refunded_payment=payment,
            reauctioned=(3,),
        ),
        ev.HealEvent(t=0.0, round=1, islands=(0, 1), divergent=2),
    ]


class TestConfig:
    def test_defaults(self):
        cfg = InvariantConfig()
        assert cfg.availability_floor == 0.0
        assert not cfg.strict

    def test_floor_bounds(self):
        with pytest.raises(ConfigurationError):
            InvariantConfig(availability_floor=1.5)
        with pytest.raises(ConfigurationError):
            InvariantConfig(availability_floor=-0.1)

    def test_window_bounds(self):
        with pytest.raises(ConfigurationError):
            InvariantConfig(availability_window=0)


class TestMechanismInvariants:
    def test_clean_sequence_passes(self):
        mon = monitored(
            [
                ev.RunStart(t=0.0, algorithm="x"),
                *complete_round(round=0, winner=1, obj=0, size=2, residual=5),
                *complete_round(round=1, winner=1, obj=1, size=2, residual=3),
            ]
        )
        assert mon.ok
        assert mon.summary_dict()["violations"] == 0

    def test_capacity_exceeded(self):
        mon = monitored(complete_round(size=9, residual=5))
        assert not mon.ok
        assert mon.violations[0].invariant == "capacity"

    def test_residual_chain_mismatch(self):
        bids = ((2, 10.0), (1, 4.0))
        mon = monitored(
            complete_round(round=0, winner=2, obj=0, bids=bids, size=2, residual=5)
            # Chain implies residual 3; the agent claims 5 again.
            + complete_round(round=1, winner=2, obj=1, bids=bids, size=1, residual=5)
        )
        assert [v.invariant for v in mon.violations] == ["capacity"]

    def test_double_allocation(self):
        mon = monitored(
            complete_round(round=0, winner=1, obj=3, size=1, residual=5)
            + complete_round(round=1, winner=1, obj=3, size=1, residual=4)
        )
        assert [v.invariant for v in mon.violations] == ["capacity"]
        assert "double allocation: (server 1, object 3)" in mon.violations[0].detail

    def test_revocation_frees_the_pair(self):
        events = split_window() + [
            # Agent 2 takes object 3 again on its refunded residual.
            *complete_round(
                round=2, winner=2, obj=3, bids=((2, 8.0), (4, 3.0)), size=1,
                residual=5, region=1,
            ),
            ev.RunEnd(t=0.0, algorithm="Sharded-AGT-RAM"),
        ]
        mon = monitored(events, sharded=True)
        assert mon.ok
        assert audit_sharded_events(events).ok

    def test_payment_exceeds_bid(self):
        mon = monitored(complete_round(winner=1, amount=10.5))
        assert [v.invariant for v in mon.violations] == ["payment"]

    def test_underpaid_round_fails(self):
        mon = monitored(complete_round(bids=((1, 5.0), (2, 3.0)), amount=1.0))
        assert [v.invariant for v in mon.violations] == ["payment"]
        assert "true second_price amount is 3.0" in mon.violations[0].detail

    def test_second_price_at_most_bid_passes(self):
        # The runner-up ties the winner: the second price is the bid.
        mon = monitored(
            complete_round(winner=1, bids=((1, 10.0), (2, 10.0)), amount=10.0)
        )
        assert mon.ok

    def test_undeclared_revocation(self):
        events = split_window(revoked=((2, 3), (4, 9)))
        mon = monitored(events, sharded=True)
        # The re-derived merge revokes (2, 3) only, and (4, 9) was never
        # committed.
        assert [v.invariant for v in mon.violations] == ["winner", "structure"]
        assert mon.violations[1].detail.endswith(
            "reconcile revokes (server 4, object 9) which is not a live "
            "allocation"
        )

    def test_run_start_resets_the_model(self):
        mon = monitored(
            complete_round(round=0, winner=1, obj=3, size=1, residual=5)
            + [ev.RunStart(t=0.0, algorithm="nested")]
            # Same pair again is fine in a fresh run.
            + complete_round(round=0, winner=1, obj=3, size=1, residual=5)
        )
        assert mon.ok

    def test_regions_tracked_independently(self):
        r0 = complete_round(winner=1, obj=0, bids=((1, 10.0), (3, 9.0)), region=0)
        r1 = complete_round(winner=2, obj=1, bids=((2, 8.0), (4, 7.0)), region=1)
        # The two regions' rounds interleave event by event.
        events = [e for pair in zip(r0, r1) for e in pair]
        assert monitored(events, sharded=True).ok


class TestServingTail:
    def test_serving_tail_goes_to_the_serving_and_reauction_audits(self):
        start = ev.ServeStart(t=0.0, primaries=(0, 0), replicas=((1, 0),))
        stray = ev.RequestEvent(t=0.0, tick=4, obj=1, replica=2, outcome="ok")
        nested = [
            ev.RunStart(t=0.0, algorithm="AGT-RAM"),
            *complete_round(amount=1.0),
            ev.RunEnd(t=0.0, algorithm="AGT-RAM"),
        ]
        mon = monitored(complete_round() + [start, stray] + nested)
        mechanism, serving, reauctions = mon.finish()
        assert mechanism.ok and mechanism.rounds_audited == 1
        assert [v.kind for v in serving.violations] == ["placement"]
        assert [v.kind for v in reauctions.violations] == ["payment"]
        assert [v.invariant for v in mon.violations] == ["placement", "payment"]
        assert [v.tick for v in mon.violations] == [4, -1]
        assert audit_events(nested).violations == reauctions.violations


class TestAvailabilityFloor:
    def test_floor_breach_flagged_once_per_episode(self):
        mon = InvariantMonitor(
            config=InvariantConfig(
                availability_floor=0.8, availability_window=10
            )
        )
        for i in range(10):
            outcome = "ok" if i < 5 else "failed"
            mon.emit(
                ev.RequestEvent(t=0.0, tick=i, outcome=outcome)
            )
        assert [v.invariant for v in mon.violations] == [
            "availability_floor"
        ]
        # Staying below the floor does not re-flag.
        mon.emit(ev.RequestEvent(t=0.0, tick=10, outcome="failed"))
        assert len(mon.violations) == 1

    def test_cold_start_not_an_outage(self):
        mon = InvariantMonitor(
            config=InvariantConfig(
                availability_floor=0.9, availability_window=100
            )
        )
        for i in range(50):
            mon.emit(ev.RequestEvent(t=0.0, tick=i, outcome="failed"))
        assert mon.ok  # window not yet full

    def test_disabled_by_default(self):
        mon = InvariantMonitor()
        for i in range(500):
            mon.emit(ev.RequestEvent(t=0.0, tick=i, outcome="failed"))
        assert mon.ok


class TestSinkBehavior:
    def test_violation_lands_in_inner_sink(self):
        inner = ev.ColumnarSink()
        monitored(complete_round(size=9, residual=5), inner=inner)
        kinds = [e.type for e in inner.events]
        # The round's verdict follows the event that closed it.
        assert kinds == [
            "round_start", "bid", "bid", "winner", "payment", "round_end",
            "invariant",
        ]

    def test_strict_raises_after_emitting(self):
        inner = ev.ColumnarSink()
        mon = InvariantMonitor(inner, config=InvariantConfig(strict=True))
        *rest, end = complete_round(size=9, residual=5)
        for e in rest:
            mon.emit(e)
        with pytest.raises(InvariantViolationError):
            mon.emit(end)
        assert any(e.type == "invariant" for e in inner.events)

    def test_strict_raises_on_a_serving_violation(self):
        mon = InvariantMonitor(config=InvariantConfig(strict=True))
        mon.emit(ev.ServeStart(t=0.0, primaries=(0,)))
        with pytest.raises(InvariantViolationError, match="placement"):
            mon.emit(ev.RequestEvent(t=0.0, obj=0, replica=3, outcome="ok"))

    def test_emit_block_checks_expanded_stream(self):
        # One committed round whose winner takes size 9 on residual 5.
        import numpy as np

        block = ev.RoundBlock(
            base_round=0, rounds=1, n_agents=2,
            payment_rule="second_price", t0=0.0, t_step=1.0,
            bid_vals=np.array([[10.0, 4.0]]), bid_objs=np.array([[0, 0]]),
            winners=np.array([0]), objs=np.array([0]),
            residuals=np.array([5]), payments=np.array([4.0]),
            otcs=np.array([100.0]), obj_sizes=np.array([9]),
            n_bids=np.array([2]),
        )
        inner = ev.ColumnarSink()
        mon = InvariantMonitor(inner)
        mon.emit_block(block)
        assert not mon.ok
        assert mon.violations[0].invariant == "capacity"
        # The raw block is preserved for the inner sink; the violation
        # record lands after it.
        assert len(inner) == block.n_events + 1

    def test_proxies_inner_sink(self):
        mon = InvariantMonitor()
        mon.emit(ev.RunStart(t=0.0, algorithm="x"))
        assert len(mon) == 1
        assert mon.nbytes >= 0
        assert [e.type for e in mon.events] == ["run_start"]
        assert [e.type for e in mon.iter_events()] == ["run_start"]

    def test_capture_integration_clean_run(self, tiny_instance):
        mon = InvariantMonitor()
        with ev.logical_time(), ev.capture(mon):
            SemiDistributedSimulator().run(tiny_instance)
        assert mon.ok
        assert len(mon) > 0

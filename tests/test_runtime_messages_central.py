"""Tests for the message protocol and the central decision body."""

import numpy as np
import pytest

from repro.runtime.central import CentralBody, Decision
from repro.runtime.messages import (
    AllocateMessage,
    BidMessage,
    MessageLog,
    NNResyncMessage,
    NNUpdateMessage,
    PaymentMessage,
    StateSyncMessage,
)


class TestWireBytes:
    def test_bid_size(self):
        # tag+sender+receiver (9) + obj (4) + value (8) + seq (4)
        assert BidMessage(sender=0, receiver=-1, obj=1, value=2.0).wire_bytes() == 25

    def test_bid_seq_defaults_to_zero(self):
        assert BidMessage(sender=0, receiver=-1, obj=1, value=2.0).seq == 0
        retry = BidMessage(sender=0, receiver=-1, obj=1, value=2.0, seq=2)
        assert retry.seq == 2 and retry.wire_bytes() == 25

    def test_allocate_size(self):
        assert AllocateMessage(sender=-1, receiver=0).wire_bytes() == 17

    def test_payment_size(self):
        assert PaymentMessage(sender=-1, receiver=0, amount=1.0).wire_bytes() == 17

    def test_nn_update_size(self):
        assert NNUpdateMessage(sender=0, receiver=0, obj=2).wire_bytes() == 13

    def test_nn_resync_scales_with_payload(self):
        empty = NNResyncMessage(sender=0, receiver=0, objs=())
        three = NNResyncMessage(sender=0, receiver=0, objs=(1, 2, 3))
        assert empty.wire_bytes() == 13  # header + count
        assert three.wire_bytes() == 13 + 3 * 4  # + 4 bytes per object id

    def test_state_sync_scales_with_holdings(self):
        msg = StateSyncMessage(sender=2, receiver=0, objs=(4, 9))
        assert msg.wire_bytes() == 13 + 2 * 4
        assert msg.objs == (4, 9)


class TestMessageLog:
    def test_counts_and_bytes(self):
        log = MessageLog()
        log.record(BidMessage(sender=0, receiver=-1, obj=1, value=2.0))
        log.record(BidMessage(sender=1, receiver=-1, obj=2, value=3.0))
        log.record(PaymentMessage(sender=-1, receiver=0, amount=2.0))
        assert log.counts["BidMessage"] == 2
        assert log.total_messages() == 3
        assert log.bytes_total == 25 + 25 + 17

    def test_keep_messages_flag(self):
        log = MessageLog(keep_messages=True)
        msg = BidMessage(sender=0, receiver=-1, obj=0, value=1.0)
        log.record(msg)
        assert log.messages == [msg]

    def test_default_discards_stream(self):
        log = MessageLog()
        log.record(BidMessage(sender=0, receiver=-1, obj=0, value=1.0))
        assert log.messages == []

    @pytest.mark.parametrize("keep", [False, True])
    def test_fanout_counts_per_receiver(self, keep):
        def make(a):
            return NNResyncMessage(sender=-1, receiver=a, objs=(3, 4))

        fanned, looped = MessageLog(keep_messages=keep), MessageLog(keep_messages=keep)
        for log in (fanned, looped):
            log.record(PaymentMessage(sender=-1, receiver=0, amount=1.0))
        fanned.record_fanout(make, [0, 2, 5])
        for a in [0, 2, 5]:
            looped.record(make(a))
        assert list(fanned.counts.items()) == list(looped.counts.items())
        assert fanned.counts["NNResyncMessage"] == 3
        assert fanned.bytes_total == looped.bytes_total == 17 + 3 * 21
        assert fanned.messages == looped.messages
        assert len(fanned.messages) == (4 if keep else 0)

    def test_empty_fanout_adds_no_key(self):
        log = MessageLog(keep_messages=True)
        log.record_fanout(lambda a: NNUpdateMessage(sender=a, receiver=a), [])
        assert log.counts == {} and log.bytes_total == 0 and log.messages == []


class TestCentralBody:
    def bids(self, values):
        return [
            BidMessage(sender=i, receiver=-1, obj=i, value=v)
            for i, v in enumerate(values)
        ]

    def test_picks_max(self):
        out = CentralBody().decide(self.bids([1.0, 9.0, 4.0]), 3)
        assert out.decision is Decision.REPLICATE
        assert out.winner == 1 and out.obj == 1

    def test_second_price(self):
        out = CentralBody().decide(self.bids([1.0, 9.0, 4.0]), 3)
        assert out.payment == 4.0

    def test_first_price_rule(self):
        out = CentralBody("first_price").decide(self.bids([1.0, 9.0]), 2)
        assert out.payment == 9.0

    def test_rejects_nonpositive_best(self):
        out = CentralBody().decide(self.bids([-1.0, 0.0]), 2)
        assert out.decision is Decision.DO_NOT_REPLICATE

    def test_no_bids(self):
        out = CentralBody().decide([], 3)
        assert out.decision is Decision.DO_NOT_REPLICATE

    def test_conflicting_duplicate_bid_rejected(self):
        # Equivocation no longer crashes the round: every copy from the
        # conflicting sender is voided and the round proceeds over the
        # surviving bidders.
        bids = [
            BidMessage(sender=0, receiver=-1, obj=0, value=1.0),
            BidMessage(sender=0, receiver=-1, obj=1, value=2.0),
            BidMessage(sender=1, receiver=-1, obj=2, value=1.5),
        ]
        out = CentralBody().decide(bids, 2)
        assert out.decision is Decision.REPLICATE
        assert out.winner == 1 and out.obj == 2
        assert 0 in out.rejected

    def test_conflicting_bid_emits_validation_event(self):
        from repro.obs import events as ev

        sink = ev.RecordingSink()
        bids = [
            BidMessage(sender=0, receiver=-1, obj=0, value=1.0),
            BidMessage(sender=0, receiver=-1, obj=1, value=2.0),
        ]
        with ev.capture(sink):
            out = CentralBody().decide(bids, 2, rnd=7)
        assert out.decision is Decision.DO_NOT_REPLICATE
        kinds = [e.kind for e in sink.events if isinstance(e, ev.ValidationEvent)]
        assert "equivocation" in kinds
        equivocations = [
            e for e in sink.events
            if isinstance(e, ev.ValidationEvent) and e.kind == "equivocation"
        ]
        assert equivocations[0].agent == 0
        assert equivocations[0].round == 7

    def test_retransmitted_duplicate_tolerated(self):
        # A lossy link may deliver the same bid more than once (possibly
        # under different sequence numbers); the central discards copies
        # idempotently instead of aborting the round.
        bids = [
            BidMessage(sender=0, receiver=-1, obj=0, value=5.0),
            BidMessage(sender=1, receiver=-1, obj=1, value=3.0),
            BidMessage(sender=0, receiver=-1, obj=0, value=5.0, seq=1),
            BidMessage(sender=0, receiver=-1, obj=0, value=5.0, seq=1),
        ]
        out = CentralBody().decide(bids, 2)
        assert out.decision is Decision.REPLICATE
        assert out.winner == 0 and out.obj == 0
        assert out.payment == 3.0  # second price unaffected by copies

    def test_tie_breaks_to_lowest_agent_id(self):
        # Documented determinism: equal top bids go to the lowest id.
        bids = [
            BidMessage(sender=0, receiver=-1, obj=3, value=7.0),
            BidMessage(sender=1, receiver=-1, obj=5, value=7.0),
            BidMessage(sender=2, receiver=-1, obj=6, value=7.0),
        ]
        out = CentralBody().decide(bids, 3)
        assert out.winner == 0 and out.obj == 3
        assert out.payment == 7.0
        # Order of arrival must not matter.
        out2 = CentralBody().decide(list(reversed(bids)), 3)
        assert out2.winner == 0 and out2.obj == 3

    def test_unknown_agent_rejected(self):
        # A sender outside [0, n_agents) is dropped and recorded, not a
        # crash: Byzantine peers must not be able to abort the round.
        out = CentralBody().decide(
            [BidMessage(sender=7, receiver=-1, obj=0, value=1.0)], 3
        )
        assert out.decision is Decision.DO_NOT_REPLICATE
        assert 7 in out.rejected

    def test_bad_payment_rule(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CentralBody("vcg-deluxe")

    def test_binary_decision_vocabulary(self):
        assert int(Decision.DO_NOT_REPLICATE) == 0
        assert int(Decision.REPLICATE) == 1

"""Unit tests for the offline mechanism audit."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle
from functools import partial

import numpy as np
import pytest
from _audit_reference import reference_verification
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import events as ev
from repro.obs.audit import (
    ABS_TOL,
    REL_TOL,
    _near_top,
    audit_events,
    audit_file,
    audit_files,
    audit_serving_events,
    audit_sharded_events,
    audit_sharded_file,
    audit_stream,
)
from repro.obs.export import write_events_binary, write_events_jsonl
from repro.runtime.invariants import InvariantMonitor


def clean_round(
    *, round=0, winner=0, bids=((0, 5.0), (1, 2.0), (2, 1.0)), t=1.0
) -> list[ev.Event]:
    """One well-formed second-price round: agent ``winner`` takes obj 3."""
    values = dict(bids)
    events: list[ev.Event] = [ev.RoundStart(t=t, round=round)]
    events.extend(
        ev.BidEvent(t=t, round=round, agent=a, obj=3, value=v)
        for a, v in bids
    )
    second = max(v for a, v in bids if a != winner)
    events += [
        ev.WinnerEvent(
            t=t, round=round, agent=winner, obj=3,
            value=values[winner], obj_size=2, residual_before=10,
        ),
        ev.PaymentEvent(t=t, round=round, agent=winner, amount=second),
        ev.NNUpdateEvent(t=t, round=round, obj=3, agents=3),
        ev.RoundEnd(t=t, round=round, committed=1, otc=100.0),
    ]
    return events


def wrap_run(rounds: list[ev.Event]) -> list[ev.Event]:
    return [
        ev.RunStart(t=0.0, algorithm="AGT-RAM"),
        *rounds,
        ev.RunEnd(t=9.0, algorithm="AGT-RAM", otc=100.0, rounds=1),
    ]


def double_commit() -> list[ev.Event]:
    """Agent 0 takes object 3 in round 0 and again in round 1, on a
    residual chain that adds up."""
    again = [
        dataclasses.replace(e, residual_before=8)
        if isinstance(e, ev.WinnerEvent)
        else e
        for e in clean_round(round=1, t=2.0)
    ]
    return wrap_run(clean_round(round=0) + again)


def replace_event(events, index, **changes):
    out = list(events)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


class TestCleanLogs:
    def test_synthetic_round_passes(self):
        report = audit_events(wrap_run(clean_round()))
        assert report.ok, report.summary()
        assert report.rounds_audited == 1
        assert report.payments_verified == 1
        assert "PASS" in report.summary()

    def test_real_agt_ram_log_passes(self, tiny_instance):
        from repro.core.agt_ram import run_agt_ram

        with ev.capture() as sink:
            result = run_agt_ram(tiny_instance)
        report = audit_events(sink.events)
        assert report.ok, report.summary()
        assert report.rounds_audited == result.rounds + 1
        assert report.payments_verified == result.rounds

    def test_real_batched_log_passes(self, tiny_instance):
        from repro.core.agt_ram import AGTRam

        with ev.capture() as sink:
            AGTRam(batch_size=4).run(tiny_instance)
        report = audit_events(sink.events)
        assert report.ok, report.summary()

    def test_real_simulator_log_passes(self, tiny_instance):
        from repro.runtime.simulator import SemiDistributedSimulator

        with ev.capture() as sink:
            SemiDistributedSimulator().run(tiny_instance)
        report = audit_events(sink.events)
        assert report.ok, report.summary()

    def test_audit_file_round_trip(self, tiny_instance, tmp_path):
        from repro.core.agt_ram import run_agt_ram

        with ev.capture() as sink:
            run_agt_ram(tiny_instance)
        path = write_events_jsonl(sink.events, tmp_path / "run.jsonl")
        assert audit_file(path).ok


class TestViolations:
    def test_double_commit_is_flagged(self, tmp_path):
        events = double_commit()
        report = audit_events(events)
        assert [v.kind for v in report.violations] == ["capacity"]
        assert report.violations[0].detail == (
            "double allocation: (server 0, object 3) committed but already "
            "live since round 0"
        )
        for path in (
            write_events_jsonl(events, tmp_path / "log.jsonl"),
            write_events_binary(events, tmp_path / "log.rev"),
        ):
            assert_same_reports(audit_file(path), report)

    def test_corrupted_payment_is_flagged(self):
        events = wrap_run(clean_round())
        idx = next(
            i for i, e in enumerate(events) if isinstance(e, ev.PaymentEvent)
        )
        report = audit_events(replace_event(events, idx, amount=4.99))
        assert not report.ok
        assert any(v.kind == "payment" for v in report.violations)
        assert "FAIL" in report.summary()

    def test_wrong_winner_is_flagged(self):
        # Agent 1 (bid 2.0) declared winner although agent 0 bid 5.0.
        events = wrap_run(
            clean_round(winner=1, bids=((0, 5.0), (1, 2.0), (2, 1.0)))
        )
        # clean_round pays the correct second price for agent 1, so only
        # the argmax check should fire.
        report = audit_events(events)
        assert any(
            v.kind == "winner" and "argmax" in v.detail
            for v in report.violations
        )

    def test_winner_mismatching_its_bid_is_flagged(self):
        events = wrap_run(clean_round())
        idx = next(
            i for i, e in enumerate(events) if isinstance(e, ev.WinnerEvent)
        )
        report = audit_events(replace_event(events, idx, obj=7))
        assert any(
            v.kind == "winner" and "does not match" in v.detail
            for v in report.violations
        )

    def test_capacity_violation_is_flagged(self):
        events = wrap_run(clean_round())
        idx = next(
            i for i, e in enumerate(events) if isinstance(e, ev.WinnerEvent)
        )
        report = audit_events(
            replace_event(events, idx, obj_size=11, residual_before=10)
        )
        assert any(v.kind == "capacity" for v in report.violations)

    def test_residual_discontinuity_across_rounds_is_flagged(self):
        # Round 0 leaves agent 0 with residual 8; round 1 claims 10 again.
        rounds = clean_round(round=0, t=1.0) + clean_round(round=1, t=2.0)
        report = audit_events(wrap_run(rounds))
        assert any(
            v.kind == "capacity" and "remained" in v.detail
            for v in report.violations
        )

    def test_unjustified_capacity_reject_is_flagged(self):
        events = wrap_run(clean_round())
        events.insert(
            -2,  # before NNUpdate/RoundEnd — inside the round
            ev.CapacityReject(
                t=1.0, round=0, agent=2, obj=3, obj_size=2, residual=10,
            ),
        )
        report = audit_events(events)
        assert any(
            v.kind == "capacity" and "rejected" in v.detail
            for v in report.violations
        )

    def test_duplicate_reason_reject_is_not_checked_against_residual(self):
        events = wrap_run(clean_round())
        events.insert(
            -2,
            ev.CapacityReject(
                t=1.0, round=0, agent=2, obj=3, obj_size=2, residual=10,
                reason="duplicate",
            ),
        )
        assert audit_events(events).ok

    def test_first_price_rule_is_flagged_as_untruthful(self):
        events = wrap_run(clean_round())
        idx = next(
            i for i, e in enumerate(events) if isinstance(e, ev.PaymentEvent)
        )
        report = audit_events(
            replace_event(events, idx, rule="first_price", amount=5.0)
        )
        assert any(
            "not a truthful" in v.detail for v in report.violations
        )

    def test_payment_to_non_winner_is_flagged(self):
        events = wrap_run(clean_round())
        end_idx = next(
            i for i, e in enumerate(events) if isinstance(e, ev.RoundEnd)
        )
        events.insert(end_idx, ev.PaymentEvent(t=1.0, round=0, agent=2, amount=1.0))
        report = audit_events(events)
        assert any(
            v.kind == "payment" and "non-winner" in v.detail
            for v in report.violations
        )

    def test_duplicate_bid_is_flagged(self):
        events = wrap_run(clean_round())
        bid_idx = next(
            i for i, e in enumerate(events) if isinstance(e, ev.BidEvent)
        )
        events.insert(bid_idx, events[bid_idx])
        report = audit_events(events)
        assert any("bid twice" in v.detail for v in report.violations)

    def test_committed_count_mismatch_is_flagged(self):
        events = wrap_run(clean_round())
        idx = next(
            i for i, e in enumerate(events) if isinstance(e, ev.RoundEnd)
        )
        report = audit_events(replace_event(events, idx, committed=2))
        assert any(
            v.kind == "structure" and "winner event" in v.detail
            for v in report.violations
        )

    def test_truncated_log_is_flagged(self):
        events = wrap_run(clean_round())[:-3]  # drop NN/RoundEnd/RunEnd
        report = audit_events(events)
        assert any(
            "open round" in v.detail for v in report.violations
        )


class TestByzantineAudit:
    def rejected_round(self) -> list[ev.Event]:
        """Agent 0's top bid is rejected by the validator; agent 1 wins
        and is priced against agent 2 only."""
        t = 1.0
        return [
            ev.RoundStart(t=t, round=0),
            ev.BidEvent(t=t, round=0, agent=0, obj=3, value=5.0),
            ev.BidEvent(t=t, round=0, agent=1, obj=3, value=2.0),
            ev.BidEvent(t=t, round=0, agent=2, obj=3, value=1.0),
            ev.ValidationEvent(
                t=t, round=0, agent=0, kind="schema", obj=3, value=5.0,
                detail="rejected",
            ),
            ev.WinnerEvent(
                t=t, round=0, agent=1, obj=3, value=2.0,
                obj_size=2, residual_before=10,
            ),
            ev.PaymentEvent(t=t, round=0, agent=1, amount=1.0),
            ev.NNUpdateEvent(t=t, round=0, obj=3, agents=3),
            ev.RoundEnd(t=t, round=0, committed=1, otc=100.0),
        ]

    def test_rejected_bid_excluded_from_argmax_and_price(self):
        report = audit_events(wrap_run(self.rejected_round()))
        assert report.ok, report.summary()
        assert report.validations_seen == 1
        assert "byzantine log" in report.summary()

    def test_rejected_winner_is_flagged(self):
        events = wrap_run(self.rejected_round())
        idx = next(
            i for i, e in enumerate(events) if isinstance(e, ev.WinnerEvent)
        )
        # Declare the rejected agent the winner: the audit must object.
        events[idx] = dataclasses.replace(events[idx], agent=0, value=5.0)
        report = audit_events(events)
        assert not report.ok
        assert any(
            v.kind == "winner" and "rejected" in v.detail
            for v in report.violations
        )

    def test_tainted_payment_reported_not_violated(self):
        # Agent 1 sets round 0's price, then is quarantined at round 1:
        # the payment is reported as tainted, but the log still passes.
        events = wrap_run(
            clean_round(round=0, winner=0)
            + [
                ev.RoundStart(t=2.0, round=1),
                ev.BidEvent(t=2.0, round=1, agent=0, obj=4, value=3.0),
                ev.QuarantineEvent(
                    t=2.0, round=1, agent=1, action="quarantine",
                    strikes=3, until_round=22,
                ),
                ev.WinnerEvent(
                    t=2.0, round=1, agent=0, obj=4, value=3.0,
                    obj_size=2, residual_before=8,
                ),
                ev.PaymentEvent(t=2.0, round=1, agent=0, amount=0.0),
                ev.NNUpdateEvent(t=2.0, round=1, obj=4, agents=3),
                ev.RoundEnd(t=2.0, round=1, committed=1, otc=95.0),
            ]
        )
        report = audit_events(events)
        assert report.ok, report.summary()
        assert len(report.tainted_payments) == 1
        tp = report.tainted_payments[0]
        assert tp.setter == 1 and tp.round == 0 and tp.amount == 2.0
        assert tp.quarantined_at == 1
        assert report.tainted_payment_total == 2.0
        assert "tainted payments" in report.summary()

    def test_pre_quarantine_price_setters_are_clean(self):
        # Quarantine strictly *before* the priced round does not taint
        # it: the agent had been released and re-offended earlier.
        events = wrap_run(
            [
                ev.QuarantineEvent(
                    t=0.5, round=0, agent=1, action="quarantine",
                    strikes=3, until_round=1,
                ),
            ]
            + clean_round(round=2, winner=0, t=2.0)
        )
        report = audit_events(events)
        assert report.ok
        assert not report.tainted_payments


class TestCli:
    def test_audit_cli_exit_codes(self, tiny_instance, tmp_path):
        from repro.cli import main
        from repro.core.agt_ram import run_agt_ram

        with ev.capture() as sink:
            run_agt_ram(tiny_instance)
        good = write_events_jsonl(sink.events, tmp_path / "good.jsonl")
        assert main(["audit", str(good)]) == 0

        corrupted = [
            dataclasses.replace(e, amount=e.amount + 1.0)
            if isinstance(e, ev.PaymentEvent)
            else e
            for e in sink.events
        ]
        bad = write_events_jsonl(corrupted, tmp_path / "bad.jsonl")
        assert main(["audit", str(bad)]) == 1


# -- the NaN rule ------------------------------------------------------------

NAN = float("nan")


def nan_round(order=(0, 1, 2), *, declared=None, first=NAN) -> list[ev.Event]:
    """Agent 2 (bid 1.0) declared winner and paid 0.0, while agent 0 bid
    ``first`` and agent 1 bid 5.0; ``declared`` marks agent 0's bid
    ``"rejected"`` or ``"lost"``."""
    bids = {0: first, 1: 5.0, 2: 1.0}
    events: list[ev.Event] = [ev.RoundStart(t=1.0, round=0)]
    events += [
        ev.BidEvent(t=1.0, round=0, agent=a, obj=3, value=bids[a]) for a in order
    ]
    if declared == "rejected":
        events.append(
            ev.ValidationEvent(
                t=1.0, round=0, agent=0, kind="schema", obj=3, value=first,
                detail="rejected",
            )
        )
    elif declared == "lost":
        events.append(
            ev.TimeoutEvent(
                t=1.0, round=0, agents=(0,), expected=3, received=2,
                quorum_met=True,
            )
        )
    events += [
        ev.WinnerEvent(
            t=1.0, round=0, agent=2, obj=3, value=1.0, obj_size=2,
            residual_before=10,
        ),
        ev.PaymentEvent(t=1.0, round=0, agent=2, amount=0.0),
        ev.NNUpdateEvent(t=1.0, round=0, obj=3, agents=3),
        ev.RoundEnd(t=1.0, round=0, committed=1, otc=100.0),
    ]
    return events


class TestNanBids:
    @pytest.mark.parametrize(
        "order", [(0, 1, 2), (1, 0, 2), (1, 2, 0)], ids=["first", "middle", "last"]
    )
    def test_accepted_nan_is_flagged_and_hides_nothing(self, order):
        report = audit_events(wrap_run(nan_round(order)))
        assert [v.kind for v in report.violations] == [
            "structure", "winner", "payment"
        ]
        assert "NaN" in report.violations[0].detail
        assert report.violations == audit_events(wrap_run(nan_round())).violations

    def test_forged_round_without_the_nan_gets_the_same_findings(self):
        no_nan = wrap_run(
            [e for e in nan_round() if not (isinstance(e, ev.BidEvent) and e.agent == 0)]
        )
        report = audit_events(no_nan)
        assert [v.kind for v in report.violations] == ["winner", "payment"]
        assert report.violations == audit_events(wrap_run(nan_round())).violations[1:]

    def test_positive_infinity_flags_only_the_winner(self):
        report = audit_events(wrap_run(nan_round(first=float("inf"))))
        assert [v.kind for v in report.violations] == ["winner"]

    @pytest.mark.parametrize("declared", ["rejected", "lost"])
    def test_declared_nan_is_not_flagged(self, declared):
        report = audit_events(wrap_run(nan_round(declared=declared)))
        assert [v.kind for v in report.violations] == ["winner", "payment"]


# -- binary audit: the same verdicts from packed bid runs --------------------


def _first(events, cls) -> int:
    return next(i for i, e in enumerate(events) if isinstance(e, cls))


def _inserted(events, index, event) -> list[ev.Event]:
    out = list(events)
    out.insert(index, event)
    return out


def _violation_logs() -> dict[str, list[ev.Event]]:
    """Every log of TestViolations and TestByzantineAudit, plus the NaN
    logs above."""
    base = wrap_run(clean_round())
    pay, win, end = (
        _first(base, ev.PaymentEvent),
        _first(base, ev.WinnerEvent),
        _first(base, ev.RoundEnd),
    )
    bid = _first(base, ev.BidEvent)
    reject = ev.CapacityReject(
        t=1.0, round=0, agent=2, obj=3, obj_size=2, residual=10
    )
    byz = TestByzantineAudit().rejected_round()
    byz_win = _first(wrap_run(byz), ev.WinnerEvent)
    logs = {
        "corrupted-payment": replace_event(base, pay, amount=4.99),
        "wrong-winner": wrap_run(clean_round(winner=1)),
        "winner-mismatch": replace_event(base, win, obj=7),
        "capacity": replace_event(base, win, obj_size=11, residual_before=10),
        "residual-discontinuity": wrap_run(
            clean_round(round=0, t=1.0) + clean_round(round=1, t=2.0)
        ),
        "double-commit": double_commit(),
        "unjustified-reject": _inserted(base, -2, reject),
        "duplicate-reason-reject": _inserted(
            base, -2, dataclasses.replace(reject, reason="duplicate")
        ),
        "first-price": replace_event(base, pay, rule="first_price", amount=5.0),
        "non-winner-payment": _inserted(
            base, end, ev.PaymentEvent(t=1.0, round=0, agent=2, amount=1.0)
        ),
        "duplicate-bid": _inserted(base, bid, base[bid]),
        "committed-mismatch": replace_event(base, end, committed=2),
        "truncated": base[:-3],
        "rejected-bid": wrap_run(byz),
        "rejected-winner": replace_event(wrap_run(byz), byz_win, agent=0, value=5.0),
        "tainted": wrap_run(
            clean_round(round=0, winner=0)
            + [
                ev.RoundStart(t=2.0, round=1),
                ev.BidEvent(t=2.0, round=1, agent=0, obj=4, value=3.0),
                ev.QuarantineEvent(
                    t=2.0, round=1, agent=1, action="quarantine",
                    strikes=3, until_round=22,
                ),
                ev.WinnerEvent(
                    t=2.0, round=1, agent=0, obj=4, value=3.0,
                    obj_size=2, residual_before=8,
                ),
                ev.PaymentEvent(t=2.0, round=1, agent=0, amount=0.0),
                ev.NNUpdateEvent(t=2.0, round=1, obj=4, agents=3),
                ev.RoundEnd(t=2.0, round=1, committed=1, otc=95.0),
            ]
        ),
        "pre-quarantine": wrap_run(
            [
                ev.QuarantineEvent(
                    t=0.5, round=0, agent=1, action="quarantine",
                    strikes=3, until_round=1,
                ),
            ]
            + clean_round(round=2, winner=0, t=2.0)
        ),
        "bid-outside-round": [base[bid]] + base,
        "bid-in-later-round": wrap_run(
            clean_round(round=0) + [dataclasses.replace(base[bid], round=1)]
            + clean_round(round=1, t=2.0)[1:]
        ),
    }
    for order, name in (((0, 1, 2), "first"), ((1, 0, 2), "middle"), ((1, 2, 0), "last")):
        logs[f"nan-{name}"] = wrap_run(nan_round(order))
    for declared in ("rejected", "lost"):
        logs[f"nan-{declared}"] = wrap_run(nan_round(declared=declared))
    return logs


def _window_marks(audit, window: int) -> list:
    marks: list = []
    audit(
        window=window,
        on_window=lambda rounds, rep: marks.append((rounds, copy.deepcopy(rep))),
    )
    return marks


def assert_same_reports(*reports) -> None:
    """The reports pickle to the same bytes: equal field by field, with
    ``-0.0`` told from ``0.0`` and a NaN amount equal to itself."""
    first = pickle.dumps(reports[0])
    for other in reports[1:]:
        if pickle.dumps(other) != first:
            assert other == reports[0]  # pytest shows where they differ
            raise AssertionError(f"{other!r} pickles unlike {reports[0]!r}")


def assert_live_verdicts(events, *, sharded=False) -> None:
    """``events`` emitted through an :class:`InvariantMonitor` give the
    offline reports: the mechanism audit of the events before the first
    ``ServeStart``, the serving and the flat audit of the rest; and each
    violation became one ``InvariantEvent``."""
    split = next(
        (i for i, e in enumerate(events) if isinstance(e, ev.ServeStart)),
        len(events),
    )
    monitor = InvariantMonitor(sharded=sharded)
    for e in events:
        monitor.emit(e)
    live = monitor.finish()
    mechanism = audit_sharded_events if sharded else audit_events
    assert_same_reports(
        live,
        (
            mechanism(events[:split]),
            audit_serving_events(events[split:]),
            audit_events(events[split:]),
        ),
    )
    assert len(monitor.violations) == sum(len(r.violations) for r in live)


def assert_same_verdicts(events, path) -> None:
    """The dict-based reference checks on ``events``, the array checks
    on ``events``, ``audit_file`` on their REVB file (bid runs) and the
    live monitor give one report, and ``on_window`` fires at the same
    points with the same reports from events as from the file."""
    with reference_verification():
        reference = audit_events(events)
    write_events_binary(events, path)
    assert_same_reports(reference, audit_events(events), audit_file(path))
    assert_live_verdicts(events)
    for window in (1, 5, 64):
        from_events = _window_marks(partial(audit_stream, events), window)
        from_file = _window_marks(partial(audit_files, [path]), window)
        assert from_file == from_events


@pytest.fixture(scope="module")
def tiny_run_events(tiny_instance) -> list[ev.Event]:
    from repro.core.agt_ram import run_agt_ram

    with ev.logical_time(), ev.capture(ev.ColumnarSink()) as sink:
        run_agt_ram(tiny_instance)
    return list(sink.iter_events())


def _tampered(value, data, *, pairs=False):
    """``value`` with one field-shaped perturbation drawn from ``data``
    (``pairs``: a tuple field of (server, object) pairs)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + data.draw(st.sampled_from([-2, -1, 1, 2]))
    if isinstance(value, float):
        return data.draw(
            st.sampled_from(
                [value + 1.0, value - 1e-3, -value, NAN, math.inf, -math.inf, -0.0]
            )
        )
    if isinstance(value, str):
        return value + "x"
    if value:
        return value[1:]
    return ((0, 0),) if pairs else (0,)


class _Draws:
    """Scripted answers to ``data.draw``, in draw order: an ``@example``
    for an ``st.data()`` argument."""

    def __init__(self, *answers) -> None:
        self._answers = itertools.cycle(answers)

    def draw(self, strategy, label=None):
        return next(self._answers)


def _tamper(events, data) -> list[ev.Event]:
    """``events`` with one perturbed field, one dropped event, or one
    bid copied elsewhere, drawn from ``data``."""
    events = list(events)
    how = data.draw(st.sampled_from(["perturb", "drop", "duplicate-bid"]))
    if how == "duplicate-bid":
        bids = [i for i, e in enumerate(events) if isinstance(e, ev.BidEvent)]
        i = data.draw(st.sampled_from(bids))
        j = data.draw(st.integers(0, len(events)))
        events.insert(j, events[i])
    else:
        i = data.draw(st.integers(0, len(events) - 1))
        if how == "drop":
            del events[i]
        else:
            fields = {f.name: f for f in dataclasses.fields(events[i])}
            name = data.draw(st.sampled_from(list(fields)))
            pairs = "tuple[tuple[int, int]" in str(fields[name].type)
            new = _tampered(getattr(events[i], name), data, pairs=pairs)
            events[i] = dataclasses.replace(events[i], **{name: new})
    return events


@pytest.fixture(scope="module")
def batched_run_events(tiny_instance) -> list[ev.Event]:
    """A batched run: up to four winners a round, at a uniform price."""
    from repro.core.agt_ram import AGTRam

    with ev.logical_time(), ev.capture() as sink:
        AGTRam(batch_size=4).run(tiny_instance)
    events = list(sink.events)
    rounds = {}
    for e in events:
        if isinstance(e, ev.PaymentEvent):
            assert e.rule == "uniform"
            rounds[e.round] = rounds.get(e.round, 0) + 1
    assert max(rounds.values()) > 1
    assert audit_events(events).ok
    return events


class TestBinaryVerdicts:
    @pytest.mark.parametrize("name", list(_violation_logs()))
    def test_violation_log(self, name, tmp_path):
        assert_same_verdicts(_violation_logs()[name], tmp_path / "log.rev")

    def test_real_run(self, tiny_run_events, tmp_path):
        assert audit_events(tiny_run_events).ok
        assert_same_verdicts(tiny_run_events, tmp_path / "log.rev")

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tampered_real_run(self, tiny_run_events, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("tampered") / "log.rev"
        assert_same_verdicts(_tamper(tiny_run_events, data), path)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_tampered_batched_run(self, batched_run_events, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("batched") / "log.rev"
        assert_same_verdicts(_tamper(batched_run_events, data), path)


# -- the array checks' closeness test ----------------------------------------

#: Floats the price setters' closeness test must get right: zeros of
#: both signs, subnormals, the normal range's edges, infinity and NaN.
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-9, -1e-9, 1.7e308,
    -1.7e308, -math.inf, NAN,
]


@st.composite
def _values_below_top(draw):
    """A finite ``top > 0`` and reports no larger (NaN aside): the
    second price and the reports it was taken from."""
    top = draw(
        st.one_of(
            st.sampled_from([5e-324, 1e-310, 1e-9, 1.0, 1.7e308]),
            st.floats(min_value=5e-324, max_value=1.7e308),
        )
    )
    near = st.floats(0.0, 4e-9).map(lambda f: top - f * top)
    near_abs = st.floats(0.0, 4e-9).map(lambda f: top - f)
    value = st.one_of(
        st.sampled_from(_EDGE_FLOATS + [top]),
        st.floats(allow_infinity=False, allow_nan=False),
        near,
        near_abs,
    ).map(lambda v: v if v != v or v <= top else top)
    return top, draw(st.lists(value, max_size=40))


class TestCloseness:
    @given(case=_values_below_top())
    @settings(max_examples=300, deadline=None)
    def test_near_top_is_math_isclose_element_by_element(self, case):
        top, values = case
        got = _near_top(np.array(values, dtype=np.float64), top).tolist()
        assert got == [
            math.isclose(v, top, rel_tol=REL_TOL, abs_tol=ABS_TOL) for v in values
        ]

    def test_np_isclose_is_a_different_test(self):
        # It adds the relative and the absolute tolerance.
        top, v = 1.0, 1.0 - 1.5e-9
        assert not math.isclose(v, top, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        assert np.isclose(v, top, rtol=REL_TOL, atol=ABS_TOL)
        assert not _near_top(np.array([v]), top)[0]


# -- sharded logs: run feed, nested flat runs --------------------------------


@pytest.fixture(scope="module")
def showcase():
    """The showcase scenario: a sharded run under every failure plane,
    then a serving tail whose drift re-auction is a nested flat run."""
    from repro.runtime.scenario import CATALOG, run_scenario

    out = run_scenario(CATALOG["showcase"])
    assert out.ok, out.failures
    return list(out.monitor.events), out.split


@pytest.fixture(scope="module")
def sharded_run_events(tiny_instance) -> list[ev.Event]:
    from repro.runtime.shard import PartitionSchedule, ShardedAGTRam

    plan = PartitionSchedule.random(
        n_regions=4, horizon=20, seed=5, partition_fraction=0.4
    )
    with ev.logical_time(), ev.capture() as sink:
        ShardedAGTRam(n_regions=4, seed=7, plan=plan).run(tiny_instance)
    return list(sink.events)


#: The tiny sharded run's first reconcile, which keeps and revokes no
#: pair: perturbing a pair field there once made ``_tamper`` raise.
EMPTY_RECONCILE = 153


def assert_same_sharded_verdicts(events, path) -> None:
    """:func:`assert_same_verdicts` for the sharded audit."""
    with reference_verification():
        reference = audit_sharded_events(events)
    write_events_binary(events, path)
    assert_same_reports(
        reference, audit_sharded_events(events), audit_sharded_file(path)
    )
    assert_live_verdicts(events, sharded=True)


def _tampered_reauction(events, split) -> list[ev.Event]:
    """The log with its first re-auction payment raised to 3x + 1."""
    out = list(events)
    i = next(
        k for k in range(split, len(out)) if isinstance(out[k], ev.PaymentEvent)
    )
    out[i] = dataclasses.replace(out[i], amount=3 * out[i].amount + 1)
    return out


class TestShardedAudit:
    def test_nested_runs_are_audited_flat(self, showcase, tmp_path):
        events, split = showcase
        report = audit_sharded_events(events)
        assert report.ok, report.summary()
        assert_same_reports(report.nested, audit_events(events[split:]))
        assert report.nested.runs_audited == 1
        assert report.nested.payments_verified == 18
        # The serving tail leaves the shards' verdicts as they were.
        assert_same_reports(
            report.shards, audit_sharded_events(events[:split]).shards
        )
        assert "nested flat runs   1: 19 round(s)" in report.summary()
        assert_same_sharded_verdicts(events, tmp_path / "log.rev")

    def test_tampered_reauction_payment_is_flagged(self, showcase, tmp_path):
        from repro.cli import main

        events, split = showcase
        tampered = _tampered_reauction(events, split)
        report = audit_sharded_events(tampered)
        assert not report.ok
        assert report.violations == report.nested.violations
        assert [v.kind for v in report.violations] == ["payment"]
        assert_same_reports(report.nested, audit_events(tampered[split:]))
        assert "FAIL  1 violation(s)" in report.summary()
        path = write_events_binary(tampered, tmp_path / "log.rev")
        assert_same_reports(audit_sharded_file(path), report)
        assert_live_verdicts(tampered, sharded=True)
        jsonl = write_events_jsonl(tampered, tmp_path / "log.jsonl")
        assert main(["audit", "--sharded", str(jsonl)]) == 1
        assert main(["audit", "--sharded", str(path)]) == 1

    def test_nested_run_end_leaves_the_shards_open(self):
        # Agent 1 sets shard 0's price, a flat run nests, and agent 1 is
        # quarantined in shard 0's next round: the payment is tainted,
        # which it is not if the nested RunEnd finishes shard 0's run.
        def in_shard(events, **changes):
            return [
                dataclasses.replace(
                    e, region=0, **{k: v for k, v in changes.items() if hasattr(e, k)}
                )
                if hasattr(e, "region")
                else e
                for e in events
            ]

        later = in_shard(
            clean_round(round=1, t=3.0, bids=((0, 1.0), (2, 0.5))),
            obj=4,
            residual_before=8,
        )
        later.insert(1, ev.QuarantineEvent(t=3.0, round=1, agent=1))
        events = [
            ev.RunStart(t=0.0, algorithm="Sharded-AGT-RAM"),
            *in_shard(clean_round(round=0)),
            *wrap_run(clean_round(round=0, t=2.0)),
            *later,
            ev.RunEnd(t=9.0, algorithm="Sharded-AGT-RAM"),
        ]
        report = audit_sharded_events(events)
        assert report.ok, report.summary()
        assert report.nested.rounds_audited == 1
        (taint,) = report.shards[0].tainted_payments
        assert (taint.round, taint.setter, taint.quarantined_at) == (0, 1, 1)

    def test_mixed_region_run_goes_bid_by_bid(self, sharded_run_events, tmp_path):
        events = list(sharded_run_events)
        start = _first(events, ev.RoundStart)
        bid = start + 2  # the round's second bid, inside its run
        assert isinstance(events[bid], ev.BidEvent)
        other = (events[start].region + 1) % 4
        events[bid] = dataclasses.replace(events[bid], region=other)
        report = audit_sharded_events(events)
        assert [v.detail for v in report.shards[other].violations] == [
            "bid outside any round"
        ]
        assert_same_sharded_verdicts(events, tmp_path / "log.rev")

    def test_pinned_draw_hits_empty_pairs(self, sharded_run_events):
        reconcile = sharded_run_events[EMPTY_RECONCILE]
        assert isinstance(reconcile, ev.ReconcileEvent)
        assert reconcile.kept == reconcile.revoked == ()

    @given(data=st.data())
    @example(data=_Draws("tiny", "perturb", EMPTY_RECONCILE, "kept"))
    @settings(max_examples=40, deadline=None)
    def test_tampered_sharded_run(
        self, sharded_run_events, showcase, data, tmp_path_factory
    ):
        base = data.draw(st.sampled_from(["tiny", "showcase"]))
        events = sharded_run_events if base == "tiny" else showcase[0]
        path = tmp_path_factory.mktemp("sharded") / "log.rev"
        assert_same_sharded_verdicts(_tamper(events, data), path)

    def test_event_subclasses_are_handled_as_their_kind(self, showcase):
        @dataclasses.dataclass
        class TracedBid(ev.BidEvent):
            pass

        events, _ = showcase
        bids = [
            TracedBid(**dataclasses.asdict(e)) if isinstance(e, ev.BidEvent) else e
            for e in events
        ]
        assert_same_reports(audit_events(bids), audit_events(events))
        assert_same_reports(audit_sharded_events(bids), audit_sharded_events(events))

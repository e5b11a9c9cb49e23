"""Unit tests for the serving audit (placement-consistency replay)."""

from __future__ import annotations

import dataclasses
import pickle
import tempfile
from pathlib import Path

import pytest

from repro.obs import events as ev
from repro.obs.audit import audit_serving_events, audit_serving_file
from repro.obs.export import write_events_binary, write_events_jsonl
from repro.runtime.invariants import InvariantMonitor


def audited(events):
    """The serving audit of ``events``, which must be the same report
    (pickle for pickle) from the events, from their JSONL and REVB
    files, and live from an :class:`InvariantMonitor` (whose serving
    audit starts at the first ``ServeStart``)."""
    report = audit_serving_events(events)
    with tempfile.TemporaryDirectory() as tmp:
        from_files = [
            audit_serving_file(write(events, Path(tmp) / name))
            for write, name in (
                (write_events_jsonl, "log.jsonl"),
                (write_events_binary, "log.rev"),
            )
        ]
    split = next(
        (i for i, e in enumerate(events) if isinstance(e, ev.ServeStart)),
        len(events),
    )
    monitor = InvariantMonitor()
    for e in events:
        monitor.emit(e)
    _, live, _ = monitor.finish()
    expected = pickle.dumps(report)
    for other in from_files:
        assert pickle.dumps(other) == expected
    assert pickle.dumps(live) == pickle.dumps(audit_serving_events(events[split:]))
    return report


def serve_log(
    *,
    primaries=(0, 2),
    replicas=((1, 0),),
    requests=(),
    middle=(),
    end=True,
):
    """A minimal serving log: start, requests, extras, end."""
    events = [
        ev.ServeStart(
            t=1.0,
            workload="test",
            n_requests=len(requests),
            n_servers=3,
            n_objects=2,
            primaries=primaries,
            replicas=replicas,
        )
    ]
    for tick, (replica, obj, outcome) in enumerate(requests):
        events.append(
            ev.RequestEvent(
                t=2.0,
                tick=tick,
                client=0,
                server=0,
                obj=obj,
                kind="read",
                replica=replica,
                latency=1.0,
                attempts=1,
                hedged=False,
                outcome=outcome,
            )
        )
    events.extend(middle)
    if end:
        ok = sum(1 for _, _, o in requests if o == "ok")
        failed = len(requests) - ok
        events.append(
            ev.ServeEnd(
                t=3.0,
                served=ok,
                shed=0,
                failed=failed,
                hedges=0,
                failovers=0,
                reauctions=sum(
                    1 for e in middle if isinstance(e, ev.ReauctionEvent)
                ),
                availability=1.0,
                p50=1.0,
                p99=1.0,
            )
        )
    return events


def reauction(*, added=(), removed=(), tick=0):
    return ev.ReauctionEvent(
        t=2.5,
        tick=tick,
        trigger="drift",
        objects=tuple(sorted({o for _, o in added} | {o for _, o in removed})),
        added=added,
        removed=removed,
        otc_before=10.0,
        otc_after=9.0,
        rounds=1,
    )


class TestCleanLogs:
    def test_replica_and_primary_serves_pass(self):
        report = audited(
            serve_log(requests=[(1, 0, "ok"), (0, 0, "ok"), (2, 1, "ok")])
        )
        assert report.ok
        assert report.requests_audited == 3
        assert report.served_ok == 3

    def test_failed_requests_are_not_placement_violations(self):
        report = audited(serve_log(requests=[(-1, 0, "failed")]))
        assert report.ok
        assert report.failed == 1

    def test_empty_stream_is_ok(self):
        assert audited([]).ok

    def test_summary_mentions_verdict(self):
        report = audited(serve_log(requests=[(1, 0, "ok")]))
        assert "PASS" in report.summary()


class TestViolations:
    def test_serving_from_non_replica_flagged(self):
        # Server 2 holds no copy of object 0.
        report = audited(serve_log(requests=[(2, 0, "ok")]))
        assert not report.ok
        assert any(v.kind == "placement" for v in report.violations)

    def test_stale_replica_after_removal_flagged(self):
        events = serve_log(
            requests=[(1, 0, "ok")],
            middle=[reauction(removed=((1, 0),))],
        )
        # Reorder: reauction happens before the request is served.
        start, req, re_ev, end = events
        report = audited([start, re_ev, req, end])
        assert not report.ok
        assert any(v.kind == "placement" for v in report.violations)

    def test_added_replica_becomes_legal(self):
        events = serve_log(requests=[], middle=[reauction(added=((2, 0),))])
        start, re_ev, end = events
        late_request = ev.RequestEvent(
            t=2.6, tick=5, client=0, server=0, obj=0, kind="read",
            replica=2, latency=1.0, attempts=1, hedged=False, outcome="ok",
        )
        end = ev.ServeEnd(
            t=3.0, served=1, shed=0, failed=0, hedges=0, failovers=0,
            reauctions=1, availability=1.0, p50=1.0, p99=1.0,
        )
        report = audited([start, re_ev, late_request, end])
        assert report.ok

    def test_removing_primary_flagged(self):
        report = audited(
            serve_log(middle=[reauction(removed=((0, 0),))])
        )
        assert not report.ok
        assert any(v.kind == "placement" for v in report.violations)

    def test_removing_absent_pair_is_structure_violation(self):
        report = audited(
            serve_log(middle=[reauction(removed=((1, 1),))])
        )
        assert not report.ok
        assert any(v.kind == "structure" for v in report.violations)

    def test_serve_end_count_mismatch_flagged(self):
        events = serve_log(requests=[(1, 0, "ok")], end=False)
        events.append(
            ev.ServeEnd(
                t=3.0, served=5, shed=0, failed=0, hedges=0, failovers=0,
                reauctions=0, availability=1.0, p50=1.0, p99=1.0,
            )
        )
        report = audited(events)
        assert not report.ok
        assert any(v.kind == "structure" for v in report.violations)


class TestFileRoundTrip:
    def test_audit_serving_file(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        write_events_jsonl(
            serve_log(requests=[(1, 0, "ok"), (2, 1, "ok")]), path
        )
        assert audit_serving_file(path).ok


class TestLogOrder:
    def test_request_before_serve_start_flagged(self):
        start, req, end = serve_log(requests=[(1, 0, "ok")])
        report = audited([req, start, end])
        assert [v.detail for v in report.violations] == [
            "request before serve_start",
            "serve_end claims 1 served request(s) but the log records 0",
        ]

    def test_second_serve_start_flagged(self):
        start, req, end = serve_log(requests=[(1, 0, "ok")])
        report = audited([start, req, start, end])
        assert [v.detail for v in report.violations] == [
            "second serve_start in one log"
        ]


@pytest.fixture(scope="module")
def serve_drift_log():
    """The serve-drift preset's log: a flat-central run, then a serving
    tail whose drift re-auction is a nested flat run."""
    from repro.runtime.scenario import CATALOG, run_scenario

    out = run_scenario(CATALOG["serve-drift"])
    assert out.ok, out.failures
    return list(out.monitor.iter_events())


class TestAuditCommand:
    """``repro audit`` checks a scenario log's serving tail too."""

    def test_serving_tail_is_checked(self, serve_drift_log, tmp_path, capsys):
        from repro.cli import main

        path = write_events_binary(serve_drift_log, tmp_path / "log.rev")
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serving tail\nrequests audited   4000\n" in out
        assert "re-auctions        1\n" in out
        assert out.count("PASS") == 2

    def test_serving_violation_fails_the_audit(
        self, serve_drift_log, tmp_path, capsys
    ):
        from repro.cli import main

        events = list(serve_drift_log)
        i = next(
            k for k, e in enumerate(events)
            if isinstance(e, ev.RequestEvent) and e.outcome == "ok"
        )
        events[i] = dataclasses.replace(events[i], replica=-1)
        path = write_events_binary(events, tmp_path / "log.rev")
        assert main(["audit", str(path)]) == 1
        out = capsys.readouterr().out
        assert "PASS  every round paid" in out  # the mechanism is intact
        assert "marked ok with no serving replica" in out

    def test_mechanism_log_has_no_serving_tail(self, tiny_instance, tmp_path, capsys):
        from repro.cli import main
        from repro.core.agt_ram import run_agt_ram

        with ev.capture() as sink:
            run_agt_ram(tiny_instance)
        path = write_events_binary(sink.events, tmp_path / "log.rev")
        assert main(["audit", str(path)]) == 0
        assert "serving tail" not in capsys.readouterr().out

"""Consumers leave the event log as it was emitted.

Event records are plain dataclasses, so nothing at run time stops a
consumer from assigning to a field of an event it is handed.  The log is
the protocol's own record, which the audits re-verify the mechanism
from, so every consumer must treat it as read-only.  A sink here keeps
each event's pickle at emission; after the run (whose live monitor
feeds every event to the auditors), the exporters and the offline
audits, every event must still pickle to those bytes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.agt_ram import run_agt_ram
from repro.obs import events as ev
from repro.obs.audit import (
    audit_events,
    audit_log,
    audit_serving_events,
    audit_sharded_events,
)
from repro.obs.export import write_events_binary, write_events_jsonl
from repro.runtime import scenario
from repro.runtime.faults import FaultSchedule
from repro.serving import ServeConfig, make_traffic, serve, with_demand


class PicklingSink(ev.ColumnarSink):
    """A :class:`~repro.obs.events.ColumnarSink` that also keeps the
    pickle of every event at the moment it is emitted (a block's or a
    bid run's events as its expansion yields them)."""

    def __init__(self) -> None:
        super().__init__()
        self.emitted: list[bytes] = []

    def emit(self, event: ev.Event) -> None:
        super().emit(event)
        self.emitted.append(pickle.dumps(event, protocol=5))

    def emit_block(self, block: ev.RoundBlock) -> None:
        super().emit_block(block)
        self.emitted.extend(
            pickle.dumps(e, protocol=5) for e in ev.iter_block_events(block)
        )

    def emit_bids(self, run) -> None:
        super().emit_bids(run)
        self.emitted.extend(
            pickle.dumps(e, protocol=5) for e in ev.iter_bid_run(run)
        )

    def assert_unchanged(self) -> None:
        events = list(self.iter_events())
        assert len(events) == len(self.emitted)
        changed = [
            i
            for i, (e, before) in enumerate(zip(events, self.emitted))
            if pickle.dumps(e, protocol=5) != before
        ]
        assert not changed, (
            f"{len(changed)} events changed after emission; first: "
            f"{pickle.loads(self.emitted[changed[0]])} -> {events[changed[0]]}"
        )


@pytest.mark.parametrize("name", list(scenario.CATALOG))
def test_scenario_log_is_unchanged(name, monkeypatch, tmp_path):
    monitor_cls = scenario.InvariantMonitor
    monkeypatch.setattr(
        scenario,
        "InvariantMonitor",
        lambda inner, **kw: monitor_cls(PicklingSink(), **kw),
    )
    sc = scenario.CATALOG[name]
    out = scenario.run_scenario(sc)
    sink = out.monitor.inner
    assert isinstance(sink, PicklingSink) and len(sink) > 0

    sharded = sc.regions > 1
    rev = write_events_binary(out.monitor.iter_events(), tmp_path / "log.rev")
    jsonl = write_events_jsonl(out.events, tmp_path / "log.jsonl")
    for path in (rev, jsonl):
        mechanism, serving = audit_log([path], sharded=sharded)
        assert mechanism.ok and serving.ok
    log = out.events
    assert (audit_sharded_events if sharded else audit_events)(log).ok
    assert audit_serving_events(log).ok
    sink.assert_unchanged()


def test_serve_log_is_unchanged(tiny_instance):
    """A serving campaign with drift re-auctions, then the audits
    serve-flashcrowd's benchmark runs on the same list of events."""
    n, per_round = 8000, 100
    traffic = make_traffic("flashcrowd", tiny_instance, n, seed=11)
    instance = with_demand(tiny_instance, traffic)
    schedule = FaultSchedule.random(
        n_agents=instance.n_servers, horizon=n // per_round + 1, seed=5,
        crash_rate=0.05, straggler_rate=0.03,
    )
    with ev.logical_time(), ev.capture(PicklingSink()) as sink:
        rep = serve(
            instance, run_agt_ram(instance).state, traffic.stream,
            config=ServeConfig(requests_per_round=per_round),
            faults=schedule, seed=11, workload="flashcrowd", n_requests=n,
        )
    assert rep.reauctions and rep.failovers and rep.timeouts and rep.hedges
    log = sink.events
    assert audit_serving_events(log).ok
    assert audit_events(log).ok
    sink.assert_unchanged()

"""End-to-end tests of the serving loop (repro.serving.loop)."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.obs.audit import audit_events, audit_serving_events
from repro.obs.export import write_events_jsonl
from repro.runtime.faults import FaultSchedule
from repro.runtime.simulator import SemiDistributedSimulator
from repro.serving import ServeConfig, make_traffic, serve, with_demand


N_REQUESTS = 2000


@pytest.fixture(scope="module")
def served_instance(tiny_instance):
    traffic = make_traffic("worldcup", tiny_instance, N_REQUESTS, seed=11)
    instance = with_demand(tiny_instance, traffic)
    placement = SemiDistributedSimulator().run(instance)
    return instance, placement


def run_campaign(
    served_instance, *, workload="worldcup", faults=None, config=None,
    seed=11, n=N_REQUESTS,
):
    instance, placement = served_instance
    traffic = make_traffic(workload, instance, n, seed=seed)
    with ev.logical_time(), ev.capture() as sink:
        report = serve(
            instance,
            placement.state,
            traffic.stream,
            config=config or ServeConfig(),
            faults=faults or FaultSchedule.null(),
            seed=seed,
            workload=workload,
            n_requests=n,
        )
    return report, sink.events


class TestNullFaults:
    def test_full_availability_no_failovers(self, served_instance):
        report, events = run_campaign(served_instance)
        assert report.availability == 1.0
        assert report.failed == 0
        assert report.timeouts == 0
        assert report.shed == 0
        assert report.served == N_REQUESTS
        assert audit_serving_events(events).ok

    def test_byte_identical_across_runs(self, served_instance, tmp_path):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            _, events = run_campaign(served_instance)
            path = tmp_path / name
            write_events_jsonl(events, path)
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_report_deterministic(self, served_instance):
        r1, _ = run_campaign(served_instance)
        r2, _ = run_campaign(served_instance)
        assert r1.to_dict() == r2.to_dict()


class TestChaosServing:
    def test_sustains_availability_under_crashes(self, served_instance):
        instance, _ = served_instance
        schedule = FaultSchedule.random(
            n_agents=instance.n_servers,
            horizon=N_REQUESTS // 500 + 1,
            seed=5,
            crash_rate=0.05,
            mean_outage=2.0,
            straggler_rate=0.02,
        )
        report, events = run_campaign(served_instance, faults=schedule)
        assert report.availability >= 0.99
        assert report.p99 < float("inf")
        assert audit_serving_events(events).ok
        assert audit_events(events).ok

    def test_all_replicas_down_fails_request_not_loop(self, line_instance):
        from repro.drp.state import ReplicationState
        from repro.serving.streams import ServeRequest

        state = ReplicationState.primaries_only(line_instance)
        # Object 0's only copy (primary at server 0) is down forever.
        schedule = FaultSchedule(agent_crashes={0: ((0, 10_000),)})
        stream = [ServeRequest(client=1, server=1, obj=0, kind="read")] * 20
        with ev.logical_time(), ev.capture() as sink:
            report = serve(
                line_instance,
                state,
                stream,
                config=ServeConfig(max_reauctions=0),
                faults=schedule,
                seed=0,
            )
        assert report.failed == 20
        assert report.served == 0
        # Failed requests carry replica -1 and still audit cleanly.
        assert audit_serving_events(sink.events).ok


class TestSheddingAndDrift:
    def test_low_rate_sheds(self, served_instance):
        config = ServeConfig(rate=0.5, burst=10.0)
        report, events = run_campaign(served_instance, config=config)
        assert report.shed > 0
        assert report.admitted + report.shed == N_REQUESTS
        # Shedding is not unavailability.
        assert report.availability == 1.0
        assert audit_serving_events(events).ok

    @pytest.mark.parametrize("workload", ["drift", "flashcrowd"])
    def test_drift_triggers_reauction(self, served_instance, workload):
        config = ServeConfig(
            drift_window=400, drift_threshold=0.15, max_reauctions=3
        )
        report, events = run_campaign(
            served_instance, workload=workload, config=config
        )
        assert report.reauctions >= 1
        assert report.reauctions <= 3
        for entry in report.reauction_log:
            assert entry["otc_after"] <= entry["otc_before"]
        # The nested re-auction protocol runs audit cleanly in-stream.
        assert audit_events(events).ok
        assert audit_serving_events(events).ok

    def test_zero_budget_disables_drift_response(self, served_instance):
        config = ServeConfig(
            drift_window=400, drift_threshold=0.15, max_reauctions=0
        )
        report, _ = run_campaign(
            served_instance, workload="drift", config=config
        )
        assert report.reauctions == 0


class TestEventStream:
    def test_serve_start_end_bracket_the_log(self, served_instance):
        _, events = run_campaign(served_instance)
        kinds = [e.to_dict()["type"] for e in events]
        assert kinds[0] == "serve_start"
        assert kinds[-1] == "serve_end"
        assert kinds.count("request") == N_REQUESTS

    def test_no_sink_no_events(self, served_instance):
        instance, placement = served_instance
        traffic = make_traffic("worldcup", instance, 200, seed=11)
        report = serve(
            instance, placement.state, traffic.stream,
            config=ServeConfig(), seed=11, n_requests=200,
        )
        assert report.served == 200


class TestMalformedRequests:
    """A request ``serve()`` cannot route is rejected, not reinterpreted:
    no other kind served as a read, no wrapped-around negative id."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "delete"),
            ("server", -1),
            ("server", "M"),
            ("obj", -2),
            ("obj", "N"),
        ],
        ids=["kind-delete", "server-negative", "server-M", "obj-negative", "obj-N"],
    )
    def test_rejected_before_any_counter_moves(self, served_instance, field, value):
        instance, placement = served_instance
        value = {"M": instance.n_servers, "N": instance.n_objects}.get(value, value)
        requests = list(
            itertools.islice(make_traffic("worldcup", instance, 20, seed=11).stream, 8)
        )
        requests[5] = replace(requests[5], **{field: value})
        with ev.logical_time(), ev.capture() as sink:
            with pytest.raises(ConfigurationError, match=f"tick 5: {field} "):
                serve(instance, placement.state, iter(requests), seed=11)
        # Ticks 0-4 were served and logged; tick 5 left no trace.
        ticks = [e.tick for e in sink.events if hasattr(e, "tick")]
        assert sorted(set(ticks)) == [0, 1, 2, 3, 4]

"""Unit tests for the repro.obs tracing core."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import NULL_TRACER, Tracer, capture, current, install
from repro.obs.tracer import _NULL_SPAN, SpanStat


class TestSpanStat:
    def test_aggregates(self):
        stat = SpanStat()
        stat.record(0.5)
        stat.record(1.5)
        stat.record(1.0)
        assert stat.count == 3
        assert stat.total_s == pytest.approx(3.0)
        assert stat.min_s == pytest.approx(0.5)
        assert stat.max_s == pytest.approx(1.5)
        assert stat.to_dict()["mean_s"] == pytest.approx(1.0)

    def test_empty_dict_has_zero_min(self):
        d = SpanStat().to_dict()
        assert d["count"] == 0
        assert d["min_s"] == 0.0
        assert d["mean_s"] == 0.0


class TestTracer:
    def test_span_records_count_and_time(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("work"):
                time.sleep(0.001)
        stat = tracer.spans["work"]
        assert stat.count == 3
        assert stat.total_s >= 0.003

    def test_nested_spans_build_hierarchical_paths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert set(tracer.spans) == {"outer", "outer/inner"}
        assert tracer.spans["outer/inner"].count == 2
        assert tracer.spans["outer"].count == 1

    def test_add_respects_current_prefix(self):
        tracer = Tracer()
        tracer.add("loose", 0.25)
        with tracer.span("run"):
            tracer.add("phase", 0.5)
            tracer.add("phase", 0.25)
        assert tracer.total("loose") == pytest.approx(0.25)
        assert tracer.total("run/phase") == pytest.approx(0.75)
        assert tracer.total("missing") == 0.0

    def test_counters_prefix_and_accumulate(self):
        tracer = Tracer()
        tracer.count("events")
        tracer.count("events", 4)
        with tracer.span("run"):
            tracer.count("rounds", 7)
        assert tracer.counters == {"events": 5, "run/rounds": 7}

    def test_reset_clears_but_refuses_open_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.count("c")
            with pytest.raises(RuntimeError):
                tracer.reset()
        tracer.reset()
        assert tracer.spans == {}
        assert tracer.counters == {}

    def test_snapshot_is_json_serializable(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.add("b", 0.1)
            tracer.count("c", 2)
        snap = json.loads(json.dumps(tracer.snapshot()))
        assert snap["spans"]["a/b"]["count"] == 1
        assert snap["counters"]["a/c"] == 2


class TestDisabledMode:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work"):
            tracer.add("phase", 1.0)
            tracer.count("n")
        assert tracer.spans == {}
        assert tracer.counters == {}

    def test_disabled_span_is_shared_singleton(self):
        # The no-op path must not allocate per call.
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is _NULL_SPAN
        assert tracer.span("b") is _NULL_SPAN

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False


class TestRegistry:
    def test_default_current_is_null(self):
        assert current() is NULL_TRACER

    def test_capture_installs_and_restores(self):
        before = current()
        with capture() as tracer:
            assert current() is tracer
            assert tracer.enabled
        assert current() is before

    def test_capture_accepts_existing_tracer(self):
        mine = Tracer()
        with capture(mine) as tracer:
            assert tracer is mine

    def test_capture_restores_on_exception(self):
        before = current()
        with pytest.raises(ValueError):
            with capture():
                raise ValueError("boom")
        assert current() is before

    def test_install_returns_previous_and_none_restores_null(self):
        mine = Tracer()
        previous = install(mine)
        try:
            assert current() is mine
        finally:
            assert install(None) is mine
        assert current() is NULL_TRACER


class TestConcurrency:
    def test_captures_in_separate_threads_are_isolated(self):
        import threading

        results: dict[str, object] = {}
        barrier = threading.Barrier(2)

        def worker(name: str) -> None:
            with capture() as tracer:
                barrier.wait(timeout=5)  # both captures active at once
                current().count("hits")
                barrier.wait(timeout=5)
                results[name] = (current() is tracer, dict(tracer.counters))

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert current() is NULL_TRACER
        for saw_own, counters in results.values():
            assert saw_own
            assert counters == {"hits": 1}


class TestLibraryIntegration:
    def test_agt_ram_emits_round_phases(self, tiny_instance):
        from repro.core.agt_ram import run_agt_ram

        with capture() as tracer:
            result = run_agt_ram(tiny_instance)
        spans = tracer.snapshot()["spans"]
        assert "mechanism/AGT-RAM" in spans
        # Coarse phases only: nothing is timed inside the round loop.
        for phase in ("engine_init", "clear"):
            path = f"mechanism/AGT-RAM/{phase}"
            assert path in spans, f"missing phase span {path}"
        assert not any("/round/" in path for path in spans)
        counters = tracer.snapshot()["counters"]
        assert counters["mechanism/AGT-RAM/rounds"] == result.rounds

    def test_tracing_does_not_change_results(self, tiny_instance):
        from repro.core.agt_ram import run_agt_ram
        from repro.obs import events as ev

        def run(eventing):
            sink = ev.ColumnarSink() if eventing else ev.NullSink()
            with ev.logical_time(), ev.capture(sink):
                result = run_agt_ram(tiny_instance)
            events = sink.iter_events() if eventing else ()
            return result, [e.to_dict() for e in events]

        for eventing in (False, True):
            plain, plain_events = run(eventing)
            with capture():
                traced, traced_events = run(eventing)
            assert traced.state.x.tobytes() == plain.state.x.tobytes()
            for key in ("payments", "utilities"):
                assert traced.extra[key].tobytes() == plain.extra[key].tobytes()
            assert traced.otc == plain.otc
            assert traced.rounds == plain.rounds
            assert traced_events == plain_events

    def test_agt_ram_chrome_trace_rounds_at_flush(self, tiny_instance):
        # Under the wall clock a flushed block shares one timestamp: the
        # trace keeps every round and decision in order, but AGT-RAM's
        # round slices are zero-width at the flush instant inside a run
        # slice that spans the whole run.
        from repro.core.agt_ram import run_agt_ram
        from repro.obs import events as ev
        from repro.obs.export import events_to_chrome_trace

        with ev.capture(ev.RecordingSink()) as sink:
            result = run_agt_ram(tiny_instance)
        trace = events_to_chrome_trace(sink.events)["traceEvents"]
        slices = [e for e in trace if e["ph"] == "X"]
        runs = [e for e in slices if e["name"].startswith("run ")]
        rounds = [e for e in slices if e["name"].startswith("round ")]
        assert len(runs) == 1
        # One block at tiny (< 512 rounds), closing round included.
        assert [e["args"]["committed"] for e in rounds] == (
            [1] * result.rounds + [0]
        )
        assert {e["dur"] for e in rounds} == {0.0}
        flush_ts = {e["ts"] for e in rounds}
        assert len(flush_ts) == 1
        assert {e["ts"] for e in trace if e["ph"] == "i"} == flush_ts
        (run,) = runs
        assert run["ts"] <= min(flush_ts) <= run["ts"] + run["dur"]

    def test_baselines_emit_spans(self, tiny_instance):
        from repro.baselines.base import make_placer

        with capture() as tracer:
            make_placer("Greedy").place(tiny_instance)
            make_placer("Ae-Star").place(tiny_instance)
        spans = tracer.snapshot()["spans"]
        assert "baseline/Greedy" in spans
        # Greedy runs AGT-RAM's clearing loop on the global oracle.
        assert "baseline/Greedy/mechanism/AGT-RAM/engine_init" in spans
        assert "baseline/Greedy/mechanism/AGT-RAM/clear" in spans
        assert "baseline/Ae-Star" in spans
        assert "baseline/Ae-Star/candidates" in spans

    def test_simulator_emits_round_phases(self, tiny_instance):
        from repro.runtime.simulator import SemiDistributedSimulator

        with capture() as tracer:
            SemiDistributedSimulator().run(tiny_instance)
        spans = tracer.snapshot()["spans"]
        assert "simulator/run" in spans
        for phase in ("bid_sweep", "decision", "broadcast", "nn_update"):
            assert f"simulator/run/round/{phase}" in spans
